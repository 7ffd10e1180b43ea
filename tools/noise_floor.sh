#!/usr/bin/env bash
# Noise floor of the mcbench end-to-end metrics: how far two builds of the
# same commit read apart on this host.
#
# Extracts <commit> twice with `git archive`, at two paths of different
# length, and runs `mcbench/run.py` in each for every workload named, for
# the run length BENCHMARK.json sets. The runs alternate: pair i runs both
# checkouts at seed i, checkout a first in odd pairs and b first in even
# ones. Every run gets an environment padded by a different number of
# bytes, which moves the initial stack placement (Mytkowicz et al., ASPLOS
# 2009); nothing reads the padding variable. The two mcbench binaries must
# be byte-identical (cmp, once the first pair has built them), so what
# differs between the sides is placement and the host, not the code.
#
# Prints, per workload and metric, the median of each side, the median |Δ|
# between the two runs of a pair, and the interquartile range of each
# side's runs, the last three in percent of side a's median. A change that
# moves a metric by less than these numbers is not distinguishable from a
# rebuild.
#
# Usage: noise_floor.sh <commit> <work_dir> <pairs> <workload>...
# <work_dir> is emptied first; each run's output stays in <work_dir>/runs.
# Not a ctest row: one pair of 10 s runs takes 35-60 s.
set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: $0 <commit> <work_dir> <pairs> <workload>..." >&2
  exit 2
fi
commit=$1
work=$2
pairs=$3
shift 3
workloads=("$@")
repo=$(cd "$(dirname "$0")/.." && pwd)

rm -rf "$work"
mkdir -p "$work/runs"
work=$(cd "$work" && pwd)
dirs=("$work/a" "$work/a_copy_at_a_longer_path")
for d in "${dirs[@]}"; do
  mkdir -p "$d"
  git -C "$repo" archive "$commit" | tar -xf - -C "$d"
done
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${dirs[0]}/BENCHMARK.json")

run() {  # run <workload> <pair> <side>
  local workload=$1 pair=$2 side=$3
  local pad=$(((pair * 1237 + side * 611) % 4096))
  local out="$work/runs/$workload-$pair-$side.out"
  (cd "${dirs[$side]}" &&
   env NOISE_FLOOR_PAD="$(printf '%*s' "$pad" '')" python3 mcbench/run.py \
     --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0 \
     > "$out" 2> "$out.log")
  echo "$workload pair $pair side $side (env +$pad B):" \
       "$(tail -n 1 "$out" | cut -c1-100)"
}

for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; ++i)); do
    if ((i % 2 == 1)); then order=(0 1); else order=(1 0); fi
    for side in "${order[@]}"; do run "$workload" "$i" "$side"; done
    if [[ $workload == "${workloads[0]}" && $i == 1 ]]; then
      a=${dirs[0]}/.bench_build/mcbench/mcbench
      b=${dirs[1]}/.bench_build/mcbench/mcbench
      if ! cmp "$a" "$b"; then
        echo "FAIL: the two checkouts built different mcbench binaries" >&2
        exit 1
      fi
      echo "OK: mcbench is byte-identical ($(stat -c %s "$a") bytes)"
    fi
  done
done

python3 - "$work/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

def pct(x, ref):
    return 100.0 * x / ref if ref else 0.0

for workload in workloads:
    side = [{}, {}]
    for i in range(1, pairs + 1):
        for s in (0, 1):
            with open(os.path.join(runs, f"{workload}-{i}-{s}.out")) as f:
                last = f.read().rstrip("\n").split("\n")[-1]
            for name, m in json.loads(last)["metrics"].items():
                side[s].setdefault(name, []).append(m["value"])
    print(f"noise floor {workload}, {pairs} pairs")
    print(f"{'metric':<12} {'median a':>12} {'median b':>12} "
          f"{'med |d| %':>9} {'IQR a %':>8} {'IQR b %':>8}")
    for name in side[0]:
        a, b = side[0][name], side[1][name]
        ma = statistics.median(a)
        d = statistics.median(abs(x - y) for x, y in zip(a, b))
        print(f"{name:<12} {ma:>12.6g} {statistics.median(b):>12.6g} "
              f"{pct(d, ma):>9.2f} {pct(iqr(a), ma):>8.2f} "
              f"{pct(iqr(b), ma):>8.2f}")
EOF
