#!/usr/bin/env python3
"""End-to-end benchmark for Clara.

Usage, from the root of the repository:

    python3 clarabench/run.py --workload <serve_mixed|cold_map|validate_matrix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (clarabench/CMakeLists.txt, which compiles the
Clara libraries from src/) into .bench_build on first use, then runs one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. METRICS.md documents every
metric and workload.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ("serve_mixed", "cold_map", "validate_matrix")


def build():
    """Configures and builds the driver; build output goes to stderr so
    the result stays the last line of stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "clara_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("clarabench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD_DIR, "clara_e2e")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", BUILD_DIR]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
