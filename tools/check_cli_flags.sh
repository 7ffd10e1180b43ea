#!/usr/bin/env bash
# Regression check for mcond_cli's flag parser: every subcommand accepts
# both `--key value` and `--key=value` spellings, and they mean the same
# thing. Runs a small condense round twice — once per spelling — through a
# real subprocess (the full argv path, not a unit-tested parser) and
# requires the two artifacts to be byte-identical; then round-trips each
# through `inspect` and compares the reports. A boolean flag given in both
# spellings must also behave identically. Finally serves the artifact once
# per spelling and requires identical accuracies.
#
# Usage: check_cli_flags.sh <path-to-mcond_cli>
# Registered as a ctest (tools/CMakeLists.txt).
set -euo pipefail

CLI="${1:?usage: check_cli_flags.sh <mcond_cli binary>}"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/mcond_cli_flags.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

# Same condense round, two spellings. The run is deterministic in --seed,
# so any parse divergence (a flag dropped, misread, or mis-valued) shows up
# as a byte difference in the artifact.
"$CLI" condense --dataset tiny-sim --ratio 0.05 --epochs 2 --seed 7 \
    --out "$workdir/space.bin" > "$workdir/space.out"
"$CLI" condense --dataset=tiny-sim --ratio=0.05 --epochs=2 --seed=7 \
    --out="$workdir/equals.bin" > "$workdir/equals.out"

if ! cmp -s "$workdir/space.bin" "$workdir/equals.bin"; then
  echo "FLAG PARSE FAILURE: --key value and --key=value condense artifacts differ" >&2
  exit 1
fi

# Mixed spellings in one invocation must also work.
"$CLI" condense --dataset tiny-sim --ratio=0.05 --epochs 2 --seed=7 \
    --out "$workdir/mixed.bin" > /dev/null
if ! cmp -s "$workdir/space.bin" "$workdir/mixed.bin"; then
  echo "FLAG PARSE FAILURE: mixed flag spellings produce a different artifact" >&2
  exit 1
fi

# Round-trip through a second subcommand: inspect reads the artifact path
# as a positional arg; its report must match for both artifacts.
"$CLI" inspect "$workdir/space.bin" > "$workdir/space.inspect"
"$CLI" inspect "$workdir/equals.bin" > "$workdir/equals.inspect"
if ! diff -q "$workdir/space.inspect" "$workdir/equals.inspect" > /dev/null; then
  echo "FLAG PARSE FAILURE: inspect reports differ between the two artifacts" >&2
  diff "$workdir/space.inspect" "$workdir/equals.inspect" >&2 || true
  exit 1
fi

# Boolean flags: bare `--verbose` and `--verbose=1` both enable it (the
# condense log gains per-round lines either way; just require success and
# identical artifacts — verbosity must not leak into the output file).
"$CLI" condense --dataset tiny-sim --ratio 0.05 --epochs 2 --seed 7 \
    --verbose --out "$workdir/verbose_bare.bin" > /dev/null
"$CLI" condense --dataset=tiny-sim --ratio=0.05 --epochs=2 --seed=7 \
    --verbose=1 --out="$workdir/verbose_eq.bin" > /dev/null
if ! cmp -s "$workdir/verbose_bare.bin" "$workdir/verbose_eq.bin"; then
  echo "FLAG PARSE FAILURE: --verbose vs --verbose=1 artifacts differ" >&2
  exit 1
fi
if ! cmp -s "$workdir/space.bin" "$workdir/verbose_bare.bin"; then
  echo "FLAG PARSE FAILURE: --verbose changed the condensed artifact" >&2
  exit 1
fi

# Serve round over the artifact above, both spellings, with the concurrent
# leg on (it exits 1 on logits that differ from a solo session). Accuracy
# is deterministic in --seed; the timing fields are not, so only the `acc`
# values are compared.
"$CLI" serve --dataset tiny-sim --artifact "$workdir/space.bin" --seed 7 \
    --node-batch --serve_concurrency 2 > "$workdir/space.serve"
"$CLI" serve --dataset=tiny-sim --artifact="$workdir/space.bin" --seed=7 \
    --node-batch --serve_concurrency=2 > "$workdir/equals.serve"
grep -o 'acc [^,]*' "$workdir/space.serve" > "$workdir/space.acc"
grep -o 'acc [^,]*' "$workdir/equals.serve" > "$workdir/equals.acc"
if [ ! -s "$workdir/space.acc" ] ||
   ! diff -q "$workdir/space.acc" "$workdir/equals.acc" > /dev/null; then
  echo "FLAG PARSE FAILURE: serve accuracies differ between spellings" >&2
  diff "$workdir/space.serve" "$workdir/equals.serve" >&2 || true
  exit 1
fi

echo "OK: --key value, --key=value and mixed spellings parse identically across subcommands"
exit 0
