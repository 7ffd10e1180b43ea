#!/usr/bin/env bash
# Unused-symbol check: every out-of-line function the src/ libraries define
# must be linked into at least one shipped binary (mcond_cli, the benches,
# the examples and the mcbench driver), or be named in
# tools/unused_symbols_allowlist.txt with the reason it stays (the oracle a
# test compares production results against, or a test hook).
#
# It builds the libraries and those binaries with
#   -O0 -fno-inline -ffunction-sections -fdata-sections -Wl,--gc-sections
# so that each function keeps its own symbol (at -O2 a live function that is
# inlined within its own file leaves no call to link) and the linker drops
# every function no binary reaches. The mcbench driver is configured from
# mcbench/CMakeLists.txt into the work directory; nothing in the source tree
# is written. A function reported here is dead: delete it, or allowlist it
# with its reason. An allowlist entry that no longer names an unlinked
# function fails too, so the list stays exact.
#
# Usage: check_unused_symbols.sh <source_dir> <work_dir> [jobs]
# <work_dir> is emptied first. Registered as a ctest `perf` check, outside
# tier-1 (two -O0 builds): ctest -C perf -L perf
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <source_dir> <work_dir> [jobs]" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
work=$2
jobs=${3:-$(nproc)}
allowlist=$src/tools/unused_symbols_allowlist.txt

rm -rf "$work"
mkdir -p "$work"
work=$(cd "$work" && pwd)

# A build type of its own, so no configuration-specific flags (-O2) apply.
scan=(-DCMAKE_BUILD_TYPE=UnusedSymbolScan
      "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
      "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=(mcond_cli)
binaries=("$work/build/tools/mcond_cli")
for f in "$src"/bench/bench_*.cc; do
  name=$(basename "$f" .cc)
  targets+=("$name")
  binaries+=("$work/build/bench/$name")
done
for f in "$src"/examples/*.cpp; do
  name=$(basename "$f" .cpp)
  targets+=("$name")
  binaries+=("$work/build/examples/$name")
done
binaries+=("$work/mcbench_build/mcbench")

cmake -S "$src" -B "$work/build" "${scan[@]}" > "$work/configure.log"
cmake --build "$work/build" -j "$jobs" --target "${targets[@]}" \
  > "$work/build.log"
cmake -S "$src/mcbench" -B "$work/mcbench_build" "${scan[@]}" \
  > "$work/configure_mcbench.log"
cmake --build "$work/mcbench_build" -j "$jobs" --target mcbench \
  > "$work/build_mcbench.log"

# Global text symbols of the libraries, and every symbol the binaries kept.
find "$work/build/src" -name 'libmcond_*.a' -print0 |
  xargs -0 nm --defined-only -g |
  awk '$2 == "T" { print $3 }' | sort -u > "$work/library.syms"
for b in "${binaries[@]}"; do
  nm --defined-only "$b" | awk '{ print $NF }'
done | sort -u > "$work/linked.syms"
comm -23 "$work/library.syms" "$work/linked.syms" | c++filt | sort -u \
  > "$work/unlinked.txt"

# Allowlist lines: "<demangled signature> # <reason>"; '#' lines comment.
status=0
grep -v -e '^#' -e '^[[:space:]]*$' "$allowlist" > "$work/allowlist.lines" ||
  true
while IFS= read -r line; do
  if [[ $line != *" # "* || -z ${line##*" # "} ]]; then
    echo "FAIL: allowlist entry without a reason: $line" >&2
    status=1
  fi
done < "$work/allowlist.lines"
sed 's/ # .*$//' "$work/allowlist.lines" | sort -u > "$work/allowed.txt"

unexpected=$(comm -23 "$work/unlinked.txt" "$work/allowed.txt")
stale=$(comm -13 "$work/unlinked.txt" "$work/allowed.txt")
if [[ -n $unexpected ]]; then
  echo "FAIL: functions in src/ that no binary links (delete them, or" \
       "allowlist them in tools/unused_symbols_allowlist.txt with a reason):" >&2
  echo "$unexpected" >&2
  status=1
fi
if [[ -n $stale ]]; then
  echo "FAIL: allowlist entries that name no unlinked function (remove" \
       "them):" >&2
  echo "$stale" >&2
  status=1
fi
if [[ $status -eq 0 ]]; then
  echo "OK: $(wc -l < "$work/library.syms") library functions, each linked" \
       "into one of ${#binaries[@]} binaries or allowlisted" \
       "($(wc -l < "$work/allowed.txt") entries)"
fi
exit "$status"
