#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (Release, against the library headers in
src/) into the build directory -- $CARGO_TARGET_DIR when set, else
.bench_build -- and runs one workload. Build output goes to stderr; the
benchmark's last stdout line is its JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("point_lookup", "range_scan", "ingest_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "store", "neats_store.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    configure = ["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", build, "-j", "2"]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build failed")

    work = os.path.join(build, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(build, "trace"), exist_ok=True)
    cmd = [os.path.join(build, "neats_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--trace-out", os.path.join(build, "trace", args.workload + ".csv")]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
