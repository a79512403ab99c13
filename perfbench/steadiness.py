#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs two sets, one after the other, of ten runs per workload (seeds
1..10) through run.py with tracing off. For every end-to-end metric in
BENCHMARK.json it prints, per set, the median, the quartiles as
statistics.quantiles(values, n=4) gives them and the spread
(Q3 - Q1) / median, then the change of the median from set 1 to set 2.
A metric holds when both spreads and the size of the change are within
its bound; the exit code is 1 when any metric does not.

  python3 perfbench/steadiness.py
  python3 perfbench/steadiness.py --workloads release_1m
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("%s seed %d exited with %d:\n%s"
                 % (workload, seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: incorrect run: %s" % (workload, seed, result))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    steady = True
    medians = {}  # (workload, metric) -> median of each set
    print("seeds %d..%d, %d s per run, %d sets"
          % (SEEDS[0], SEEDS[-1], bench["run_seconds"], SETS))
    print("\n| set | workload | metric | unit | median | Q1 | Q3 | spread "
          "| bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for set_number in range(1, SETS + 1):
        for workload in workloads:
            runs = [run_once(workload, seed, bench["run_seconds"])
                    for seed in SEEDS]
            for metric in bench["end_to_end"]:
                values = [r[metric["name"]] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                held = spread <= metric["bound"]
                steady = steady and held
                medians.setdefault((workload, metric["name"]), []).append(
                    median)
                print("| %d | %s | %s | %s | %.4f | %.4f | %.4f | %.2f%% "
                      "| %.0f%%%s |"
                      % (set_number, workload, metric["name"],
                         metric["unit"], median, q1, q3, 100 * spread,
                         100 * metric["bound"], "" if held else " OVER"),
                      flush=True)

    print("\n| workload | metric | set 1 median | set 2 median | change "
          "| bound |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            first, second = medians[(workload, metric["name"])]
            change = (second - first) / first
            held = abs(change) <= metric["bound"]
            steady = steady and held
            print("| %s | %s | %.4f | %.4f | %+.2f%% | %.0f%%%s |"
                  % (workload, metric["name"], first, second, 100 * change,
                     100 * metric["bound"], "" if held else " OVER"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
