#!/usr/bin/env python3
"""Build and run the fleet link-adaptation benchmark.

Usage (from the repository root):
    python3 fleetbench/run.py --workload steady|storm|remote|scale --seed N \
        --seconds S --trace 0|1

Builds the LiBRA libraries from src/ plus the fleetbench harness into
.bench_build/fleetbench (incremental after the first run), then runs one
workload. Build output goes to stderr; the harness prints the result JSON as
the last line of stdout. Exits non-zero, without a result, when the sources
are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fleetbench"
# Beyond the measured window a run collects the training campaign, sets up
# five times, and runs a warm-up fleet and a replay.
RUN_MARGIN_S = 150


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"fleetbench: no LiBRA sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "fleetbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("fleetbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [str(BUILD / "fleetbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--work-dir", os.path.relpath(BUILD, ROOT)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"fleetbench: run exceeded {timeout:g} s")
    sys.stdout.write(proc.stdout.decode())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
