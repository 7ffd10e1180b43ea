#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 mcbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Run from the repository root. The build lives in .bench_build/mcbench (the
first run configures and compiles the library; later runs are incremental).
The driver's last stdout line is the result object; this script checks it
against BENCHMARK.json before passing it through, and exits non-zero when the
build, the run or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "mcbench")
STATE = os.path.join(ROOT, ".bench_build", "mcbench-state")
SCRATCH = os.path.join(ROOT, ".bench_build", "mcbench-scratch")
WORKLOADS = ("serve-small", "serve-large", "condense", "condense-ooc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[mcbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            [cmake, "-S", os.path.join(ROOT, "mcbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("configure failed")
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    res = subprocess.run(
        [cmake, "--build", BUILD, "-j", jobs, "--target", "mcbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD, "mcbench")


def source_id():
    """Git commit when available, else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "mcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def check_result(line, trace):
    """Returns an error string, or None when the line is a valid result."""
    try:
        obj = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(obj)}"
    if not isinstance(obj["attempted"], int) or obj["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(obj["failed"], int) or obj["failed"] < 0:
        return "failed must be a non-negative integer"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in obj["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ: missing {missing} extra {extra} unit {wrong}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.time()
    binary = build()
    if binary is None:
        return 1
    log(f"build ready in {time.time() - t0:.1f} s")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(STATE, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("MCOND_LOG_LEVEL", "warn")
    env["MCBENCH_GIT_SHA"] = source_id()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", STATE, "--scratch", SCRATCH]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        log(f"driver exited with {run.returncode}")
        print(lines[-1] if lines else "", file=sys.stderr)
        return run.returncode if run.returncode > 0 else 1
    err = check_result(lines[-1], args.trace == 1)
    if err is not None:
        log(f"invalid result: {err}")
        print(lines[-1], file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
