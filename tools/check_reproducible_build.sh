#!/usr/bin/env bash
# Reproducible-build check: copies the source tree to two directories whose
# paths differ in length, configures and builds mcond_cli and the mcbench
# driver in each (mcbench the way mcbench/run.py builds it, from its own
# CMakeLists.txt), and requires each pair of binaries to be byte-identical
# (cmp). Source paths reach a binary only through __FILE__, which the
# -ffile-prefix-map option of mcond_core strips; a new path leak fails here.
#
# Usage: check_reproducible_build.sh <source_dir> <work_dir> [jobs]
# <work_dir> is emptied first. Registered as the ctest `perf` check, outside
# tier-1 (two full builds): ctest -C perf -L perf
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <source_dir> <work_dir> [jobs]" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
work=$2
jobs=${3:-$(nproc)}

rm -rf "$work"
mkdir -p "$work"
work=$(cd "$work" && pwd)
dirs=("$work/a" "$work/a_copy_at_a_longer_path")
# Both copies first, so the two builds see the same sources.
for d in "${dirs[@]}"; do
  mkdir -p "$d"
  (cd "$src" &&
   tar -cf - CMakeLists.txt src tests bench examples tools mcbench) |
    tar -xf - -C "$d"
done
for d in "${dirs[@]}"; do
  cmake -S "$d" -B "$d/build" -DCMAKE_BUILD_TYPE=Release > "$d/configure.log"
  cmake --build "$d/build" --target mcond_cli -j "$jobs" > "$d/build.log"
  cmake -S "$d/mcbench" -B "$d/mcbench_build" -DCMAKE_BUILD_TYPE=Release \
    > "$d/configure_mcbench.log"
  cmake --build "$d/mcbench_build" --target mcbench -j "$jobs" \
    > "$d/build_mcbench.log"
done

status=0
for bin in build/tools/mcond_cli mcbench_build/mcbench; do
  a=${dirs[0]}/$bin
  b=${dirs[1]}/$bin
  if cmp "$a" "$b"; then
    echo "OK: $(basename "$bin") is byte-identical from sources at paths" \
         "of ${#dirs[0]} and ${#dirs[1]} characters ($(stat -c %s "$a") bytes)"
  else
    echo "FAIL: $(basename "$bin") differs between source paths" \
         "${dirs[0]} and ${dirs[1]}" >&2
    status=1
  fi
done
exit "$status"
