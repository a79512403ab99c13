#!/usr/bin/env python3
"""CI gate over BENCH_parallel.json: real multi-core speedup, or skip.

Usage: check_parallel_scaling.py [BENCH_parallel.json]

Gates the exhaustive engine (the one whose sweeps are pure NodeSweeper
fan-out, so it isolates the work-decomposition quality) on the synthetic
workload, whose QI tuples barely repeat, so every node groups all its
rows. The Adult rows are recorded but not gated: the encoding groups
Adult's few thousand distinct QI tuples instead of its rows, and a whole
search takes a few ms, too little to scale. The gate is:

  - >= 1.5x speedup_vs_1 at 4 threads when hardware_concurrency >= 4
  - >= 3.0x speedup_vs_1 at 8 threads when hardware_concurrency >= 8
    (only if an 8-thread row exists)

Rows marked oversubscribed (threads > hardware_concurrency) are never
gated: their "speedup" measures scheduler thrash, not scaling. On runners
with fewer than 4 cores the gate skips entirely with exit 0 — the bench
numbers are still appended to the JSON for the record, they just cannot
prove anything about scaling.
"""

import json
import sys

GATE_ENGINE = "exhaustive"
GATE_WORKLOAD = "synthetic"
GATES = [  # (threads, minimum speedup, minimum cores to judge it)
    (4, 1.5, 4),
    (8, 3.0, 8),
]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_parallel.json"
    with open(path) as f:
        doc = json.load(f)
    # Rows without a workload field come from single-workload captures,
    # named at the document level.
    doc_workload = doc.get("workload")
    rows = [r for r in doc.get("results", [])
            if r.get("engine") == GATE_ENGINE
            and r.get("workload", doc_workload) == GATE_WORKLOAD]
    if not rows:
        print(f"FAIL: no {GATE_WORKLOAD} {GATE_ENGINE} rows in {path}")
        return 1

    # Per-row hardware_concurrency (the row's capture machine) with the
    # document-level value as fallback for pre-flag captures.
    doc_hw = doc.get("hardware_concurrency", 0)
    checked = 0
    for threads, need, min_cores in GATES:
        for r in rows:
            if r.get("threads") != threads:
                continue
            hw = r.get("hardware_concurrency", doc_hw)
            if r.get("oversubscribed", hw != 0 and threads > hw):
                print(f"skip: {GATE_ENGINE} threads={threads} oversubscribed "
                      f"(hardware_concurrency={hw})")
                continue
            if hw < min_cores:
                print(f"skip: {GATE_ENGINE} threads={threads} needs >= "
                      f"{min_cores} cores to judge (have {hw})")
                continue
            got = r.get("speedup_vs_1", 0.0)
            checked += 1
            if got < need:
                print(f"FAIL: {GATE_ENGINE} threads={threads} speedup "
                      f"{got:.2f}x < required {need}x "
                      f"(wall_ms={r.get('wall_ms', 0):.1f}, "
                      f"hardware_concurrency={hw})")
                return 1
            print(f"ok: {GATE_ENGINE} threads={threads} speedup "
                  f"{got:.2f}x >= {need}x")
    if checked == 0:
        print("skip: no gateable rows (runner has too few cores) — "
              "scaling not judged on this machine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
