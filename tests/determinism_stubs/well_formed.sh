#!/bin/sh
# Well-formed smoke output: information lines vary across the matrix, digest
# lines do not; one lone `value` line, one pair and one triple.
echo "threads $MCOND_NUM_THREADS"
echo "prefetch $MCOND_PREFETCH_SEGMENTS"
echo "digest matmul value 00000000000000aa"
echo "digest spmm resident 00000000000000bb"
echo "digest spmm streamed 00000000000000bb"
echo "digest concurrent_graph expected 00000000000000cc"
echo "digest concurrent_graph k1 00000000000000cc"
echo "digest concurrent_graph k8 00000000000000cc"
