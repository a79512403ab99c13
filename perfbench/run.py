#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the psk library and the perfbench binary from source (Release, into
.bench_build/perfbench under the checkout root), then runs one workload in
its own process. The binary's last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload release_1m --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

--workload all runs every workload, each in its own process, and ends with
a summary of every metric with its unit and sample count. --self-test
builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("release_1m", "search_wide", "jobs_mix")
# Per-workload ceiling; a run takes its seconds plus set-up and checks.
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (once) and builds `target`; exits 1 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no psk sources next to perfbench/ (expected "
                 "src/CMakeLists.txt in the checkout)")
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("run.py: build step failed: " + " ".join(step))


def run_workload(workload, args, capture):
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(args):
    results = {}
    for workload in WORKLOADS:
        proc = run_workload(workload, args, capture=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit("run.py: workload %s exited with %d"
                     % (workload, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        results[workload] = {
            "result": json.loads(lines[-1]),
            # Metric lines: "<tag> <name> <value> <unit> (n=<samples>)".
            "lines": [line for line in lines
                      if line.startswith(("metric ", "info "))],
        }
    print("\nsummary (seed %d, %s s, trace %d)"
          % (args.seed, args.seconds, args.trace))
    for workload, entry in results.items():
        result = entry["result"]
        print("%s: correct=%s attempted=%d failed=%d"
              % (workload, result["correct"], result["attempted"],
                 result["failed"]))
        for line in entry["lines"]:
            print("  " + line)
    return 0 if all(e["result"]["correct"] for e in results.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build("perfbench_tests")
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")],
                              cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    build("perfbench")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
