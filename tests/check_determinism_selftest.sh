#!/usr/bin/env bash
# Self-test of tools/check_determinism.sh on one stub binary: with `pass` the
# checker must exit 0, with `fail` non-zero; either way its output must match
# the given extended regex (the equality count, or the failure reason).
#
# Usage: check_determinism_selftest.sh <checker> <stub> pass|fail <regex>
set -uo pipefail

out=$("$1" "$2" 2>&1)
status=$?
echo "$out"
if [[ "$3" == pass ]] && ((status != 0)); then
  echo "SELFTEST FAILURE: expected exit 0, got $status" >&2
  exit 1
fi
if [[ "$3" == fail ]] && ((status == 0)); then
  echo "SELFTEST FAILURE: expected a non-zero exit, got 0" >&2
  exit 1
fi
if ! grep -qE "$4" <<< "$out"; then
  echo "SELFTEST FAILURE: output does not match '$4'" >&2
  exit 1
fi
