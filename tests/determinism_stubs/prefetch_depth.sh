#!/bin/sh
# A digest that depends on the prefetch depth.
echo "digest spmm value 00000000000000b$MCOND_PREFETCH_SEGMENTS"
