#!/usr/bin/env python3
"""Build the benchmark binary from this checkout's sources and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <tight_market|paper_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with CMake into .bench_build/perfbench (build output
goes to stderr). Its report goes to stdout; the last line is the JSON
result. The exit code is the binary's: 0 when every trial passed the
correctness gate, non-zero otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tight_market", "paper_sweep")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build() -> None:
    """Configures (first time) and builds the binary; exits on failure."""
    if not (ROOT / "src" / "core" / "rit.h").is_file():
        sys.exit("perfbench: no library sources under src/; run from a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build timed out")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
