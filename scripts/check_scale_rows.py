#!/usr/bin/env python3
"""CI gate over BENCH_scale.json: streaming ingest must not balloon.

Usage: check_scale_rows.py [BENCH_scale.json]

For every scale row, the peak *tracked* bytes observed by the memory
budget during ingest+encode must stay within

    MAX_PEAK_RATIO * final_bytes + chunk_buffer_bytes

where final_bytes is the footprint retained once both finish (table +
encoded) and chunk_buffer_bytes is the largest single in-flight chunk
buffer. One chunk in flight is the streaming contract, not a balloon —
at small scales it dwarfs the 4-byte-per-cell retained table, so it
enters the bound as an additive allowance rather than skewing the
ratio. A blowout past the bound means a transient copy crept back into
the pipeline — the whole point of chunked ingest is that the only live
states are "table so far + one chunk" and "table + encoded", never
"text + row vectors + table".

Peak RSS is reported for context but never gated: it is
process-cumulative and allocator-dependent, so it cannot distinguish a
leak from a warm heap.

The end-to-end run (largest scale through the full Anonymizer pipeline)
must simply have completed: ok == true.
"""

import json
import sys

MAX_PEAK_RATIO = 2.0


def fmt_bytes(n):
    return f"{n / (1024 * 1024):.1f} MiB"


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scale.json"
    with open(path) as f:
        doc = json.load(f)

    rows = doc.get("results", [])
    if not rows:
        print(f"FAIL: no scale rows in {path}")
        return 1

    failed = False
    for r in rows:
        rows_n = r.get("rows", 0)
        final = r.get("final_bytes", 0)
        chunk = r.get("chunk_buffer_bytes", 0)
        peak = r.get("peak_tracked_bytes", 0)
        rss = r.get("peak_rss_bytes", 0)
        if final <= 0:
            print(f"FAIL: rows={rows_n} has no final_bytes")
            failed = True
            continue
        bound = MAX_PEAK_RATIO * final + chunk
        verdict = "ok" if peak <= bound else "FAIL"
        if verdict == "FAIL":
            failed = True
        print(f"{verdict}: rows={rows_n} peak {fmt_bytes(peak)} <= "
              f"{MAX_PEAK_RATIO}x final {fmt_bytes(final)} + chunk "
              f"{fmt_bytes(chunk)} = {fmt_bytes(bound)} "
              f"(rss {fmt_bytes(rss)}, "
              f"generate+append "
              f"{r.get('generate_append_rows_per_sec', 0):,.0f} rows/s)")

    e2e = doc.get("end_to_end", {})
    if not e2e.get("ok", False):
        print(f"FAIL: end-to-end run at rows={e2e.get('rows', '?')} "
              "did not complete")
        failed = True
    else:
        print(f"ok: end-to-end rows={e2e.get('rows', 0)} completed in "
              f"{e2e.get('wall_ms', 0):.0f} ms, released "
              f"{e2e.get('released_rows', 0)} rows, peak tracked "
              f"{fmt_bytes(e2e.get('peak_tracked_bytes', 0))}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
