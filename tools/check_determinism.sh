#!/usr/bin/env bash
# The determinism gate: runs `<binary> --smoke` for each binary under the
# matrix MCOND_NUM_THREADS {1, 8} x MCOND_PREFETCH_SEGMENTS {0, 3} and
# checks the `digest <group> <variant> <hex>` lines it prints
# (src/core/bit_digest.h):
#   - the digest lines are identical across the matrix — thread width and
#     segment prefetch change timing, never bits;
#   - within a run, every line of a group equals the group's first line, its
#     oracle (session == per-request, streamed == resident, net == inproc);
#   - a group of one line uses the variant `value`, so a pair that lost its
#     partner fails, and every binary prints at least one digest line.
# Other lines (`threads`, `simd`, `prefetch`) are information only. The SIMD
# tier is the caller's MCOND_SIMD.
#
# Usage: check_determinism.sh <binary>...
# Registered as ctest rows (bench/CMakeLists.txt); a single-core host still
# exercises the pool's worker threads at width 8 via preemption.
set -euo pipefail

(($# > 0)) || { echo "usage: check_determinism.sh <binary>..." >&2; exit 2; }

fail() {
  echo "DETERMINISM FAILURE: $*" >&2
  exit 1
}

total=0
for bin in "$@"; do
  oracle=""
  for threads in 1 8; do
    for prefetch in 0 3; do
      out=$(MCOND_NUM_THREADS=$threads MCOND_PREFETCH_SEGMENTS=$prefetch \
            "$bin" --smoke) || fail "$bin --smoke exited with status $?"
      digests=$(grep '^digest ' <<< "$out" || true)
      [[ -n "$digests" ]] || fail "$bin printed no digest line"
      if [[ -z "$oracle" ]]; then
        oracle=$digests
      elif [[ "$digests" != "$oracle" ]]; then
        if ((prefetch == 0)); then axis="thread widths 1 and $threads"
        elif ((threads == 1)); then axis="prefetch depths 0 and $prefetch"
        else axis="(1 thread, prefetch 0) and ($threads threads, prefetch $prefetch)"
        fi
        diff <(echo "$oracle") <(echo "$digests") >&2 || true
        fail "$bin digests differ between $axis"
      fi
    done
  done

  # Within-run check on the oracle run (every run is identical to it).
  checked=$(awk '
    function bad(msg) { print msg; failed = 1; exit 1 }
    NF != 4 { bad("malformed line: " $0) }
    !($2 in variant) { variant[$2] = $3; hex[$2] = $4; order[++groups] = $2
                       next }
    $4 != hex[$2] { bad("digest " $2 " " $3 " " $4 " differs from its oracle " \
                        variant[$2] " " hex[$2]) }
    { paired[$2] = 1; equal++ }
    END {
      if (failed) exit 1
      for (i = 1; i <= groups; i++) {
        g = order[i]
        if (!(g in paired) && variant[g] != "value")
          bad("digest " g " " variant[g] " has no partner line")
      }
      print equal + 0
    }' <<< "$oracle") || fail "$bin: $checked"

  echo "OK: $bin: digest lines identical at threads {1,8} x prefetch {0,3}; $checked within-run equalities"
  echo "$oracle"
  total=$((total + checked))
done
echo "OK: $# binaries, $total within-run equalities"
