#!/bin/sh
# Information lines only, no digest line.
echo "threads $MCOND_NUM_THREADS"
