#!/usr/bin/env python3
"""Builds the service-path benchmark from source and runs one workload.

Run from the repository root:

    python3 servicebench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The library (src/) and the benchmark are built in Release under
.bench_build/servicebench; build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Traced runs write
their span, rung and scaling record to .bench_build/servicebench-results.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servicebench")
RESULTS = os.path.join(ROOT, ".bench_build", "servicebench-results")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    return subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          stdout=sys.stderr).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        print("servicebench: no library sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    status = build()
    if status != 0:
        print("servicebench: build failed", file=sys.stderr)
        return status
    os.makedirs(RESULTS, exist_ok=True)
    command = [os.path.join(BUILD, "servicebench")] + sys.argv[1:]
    command += ["--out-dir", RESULTS]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
