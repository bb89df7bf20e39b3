#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload point_lookup --seeds 1-10

Runs perfbench/run.py once per seed and prints, per metric, the median and
the interquartile range as a share of the median (statistics.quantiles,
n=4), next to the metric's bound from BENCHMARK.json. A steady benchmark
keeps every spread below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(bench_dir, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s%s"
                     % (seed, done.returncode, done.stdout, done.stderr))
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())))

    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above bound/3"
        print("%-22s median %-12.6g spread %6.3f  bound %s%s"
              % (name, med, spread, bound, flag))


if __name__ == "__main__":
    main()
