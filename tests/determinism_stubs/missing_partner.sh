#!/bin/sh
# One pair intact, one pair without its partner line.
echo "digest spmm resident 00000000000000aa"
echo "digest spmm streamed 00000000000000aa"
echo "digest rowsums resident 00000000000000bb"
