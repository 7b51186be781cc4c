#!/usr/bin/env python3
"""Compare two results of one benchmark workload.

Usage: python3 perfbench/compare.py BEFORE AFTER

Each file holds the standard output of one ``perfbench/run.py`` run.  The
comparison is refused (exit 2) when the runs differ in workload, trace
mode, kernel path, Python or numpy version, or core count: such numbers
do not measure the same thing.  Otherwise prints each metric before and
after, with the after/before ratio.
"""

import json
import sys

SAME = ("kernel_path", "python", "numpy", "nproc")


def load(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 64
    (da, ra), (db, rb) = load(argv[1]), load(argv[2])
    diffs = [f"{k}: {da[k]!r} vs {db[k]!r}" for k in ("workload", "trace") if da[k] != db[k]]
    diffs += [
        f"{k}: {da['machine'][k]!r} vs {db['machine'][k]!r}"
        for k in SAME
        if da["machine"][k] != db["machine"][k]
    ]
    if diffs:
        print("refused, the runs are not comparable: " + "; ".join(diffs), file=sys.stderr)
        return 2
    print(f"{'metric':46} {'before':>14} {'after':>14} {'after/before':>12}")
    for name, a in ra["metrics"].items():
        b = rb["metrics"].get(name)
        if b is None:
            print(f"{name:46} {a['value']:>14.6g} {'missing':>14}")
            continue
        ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "-"
        print(f"{name:46} {a['value']:>14.6g} {b['value']:>14.6g} {ratio:>12}  {a['unit']}")
    for label, r in (("before", ra), ("after", rb)):
        print(f"{label}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
