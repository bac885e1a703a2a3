#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py once per seed on each workload (default: every
workload in BENCHMARK.json, at its run_seconds) and prints, per metric, the
median, the quartiles from statistics.quantiles(values, n=4), and their
distance as a share of the median next to the metric's bound. A metric is
steady when that share stays under a third of its bound (setup_s is
reported but judged only on its median). Exits non-zero when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", repr(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d)\n%s%s" %
                      (workload, seed, done.returncode, done.stdout,
                       done.stderr[-2000:]), file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("## %s (%d runs of %g s, seeds %d..%d)\n" %
              (workload, args.runs, args.seconds, args.first_seed,
               args.first_seed + args.runs - 1))
        print("| metric | median | q1 | q3 | (q3-q1)/median | bound | "
              "steady |")
        print("|---|---:|---:|---:|---:|---:|---|")
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, float("nan"))
            steady = ("n/a" if name == "setup_s"
                      else "yes" if spread < bound / 3 else "NO")
            print("| %s | %.4g | %.4g | %.4g | %.2f %% | %.0f %% | %s |" %
                  (name, median, q1, q3, 100 * spread, 100 * bound, steady))
        print()
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
