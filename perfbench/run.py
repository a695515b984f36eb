#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload campaign_cpu --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and compiles the
library sources and the perfbench program (CMake, Release) into
.bench_build/perfbench; later calls only rebuild what changed. The
program's output is passed through; its last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([str(binary), *sys.argv[1:],
                               "--work", str(ROOT / ".bench_build" / "work")],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError, IndexError):
        valid = False
    if proc.returncode != 0 or not valid:
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
