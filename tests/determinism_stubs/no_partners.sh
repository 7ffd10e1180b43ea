#!/bin/sh
# Every partner line missing: oracles only.
echo "digest k1_alpha_graph inproc 00000000000000aa"
echo "digest k1_beta_graph inproc 00000000000000bb"
