#!/bin/sh
# A digest that depends on the thread width.
echo "digest matmul value 00000000000000a$MCOND_NUM_THREADS"
