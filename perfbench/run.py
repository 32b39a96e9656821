#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload <timesharing|paging_pressure|acl_churn> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload <timesharing|paging_pressure> --seed <n> --sweep

The first run configures and builds the kernel libraries and the benchmark
into .bench_build/perfbench (a few minutes); later runs rebuild only what
changed. The workload runs in its own process. Its last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; this script checks that the metric names are exactly the ones
BENCHMARK.json declares for the mode (end_to_end with --trace 0, per_layer
with --trace 1) and exits non-zero, without a result, if the build fails, a
correctness check fails, or the names disagree.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"kernel sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
              BUILD_TIMEOUT_S)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["timesharing", "paging_pressure", "acl_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print the load-sizing table of an engine workload")
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed)]
    if args.sweep:
        sys.exit(subprocess.run(cmd + ["--sweep"], cwd=ROOT, timeout=1800).returncode)
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"workload exited with code {done.returncode}")
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    expected = declared_metrics(args.trace)
    if names != expected:
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        fail(f"metric names disagree with BENCHMARK.json: missing {missing}, extra {extra}")
    if not result["correct"]:
        fail("correctness check failed")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
