#!/usr/bin/env python3
"""Builds and runs the MDM benchmark.

Usage (from the repository root):

    python3 mdmbench/run.py --workload fig1_serial --seed 1 --seconds 10 --trace 0

Builds mdmbench/ (the library sources under src/ plus the load
generator) into .bench_build/, runs one workload and passes its table
through. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; metrics holds the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1). Exits non-zero on a build failure, on any oracle
divergence, or when a listed metric is missing.

Extra flags: --scale tiny (seconds-long corpus, used by selfcheck.py).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "mdmbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "connection.h")):
        log("mdmbench: library sources (src/) not found next to mdmbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("mdmbench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "none"


def src_digest():
    """SHA-256 over src/ paths and contents: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    if not build():
        return 2

    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # One file per workload: the latest traced run's spans.
    trace_out = os.path.join(BUILD_ROOT, "traces", args.workload + ".json")
    cmd = [os.path.join(BUILD, "mdmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--tmp-dir", tmp,
           "--trace-out", trace_out if args.trace else "",
           "--commit", git_commit(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("mdmbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # journals of killed runs
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("mdmbench: no result line (exit %d)" % proc.returncode)
        return proc.returncode or 4
    produced = result["metrics"]
    missing = [m for m in wanted if m not in produced]
    if missing:
        log("mdmbench: metrics not produced: " + ", ".join(missing))
        return 5
    result["metrics"] = {m: produced[m] for m in wanted}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
