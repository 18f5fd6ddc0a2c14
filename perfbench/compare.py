#!/usr/bin/env python3
"""Compare two run records written by ``perfbench/run.py``.

    python3 perfbench/compare.py .perfbench_runs/A.json .perfbench_runs/B.json

Prints each metric of both runs and their ratio B/A. Records whose
environments differ (kernel backend, Python, processor count, workload
shape, run length) are flagged before the table; a kernel-backend
mismatch makes the exit code 2, because the two runs timed different
kernels and their numbers do not compare.
"""

import json
import sys
from pathlib import Path

STAMP_KEYS = ("kernel_backend", "python", "nproc", "workload", "shape", "seconds")


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def flags(a: dict, b: dict) -> list:
    ea, eb = a["environment"], b["environment"]
    return [
        f"FLAG: {key} differs: {ea.get(key)!r} vs {eb.get(key)!r}"
        for key in STAMP_KEYS
        if ea.get(key) != eb.get(key)
    ]


def table(a: dict, b: dict) -> list:
    lines = []
    for section in ("end_to_end", "per_layer"):
        ma, mb = a.get(section) or {}, b.get(section) or {}
        for name in ma:
            if name not in mb:
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            lines.append(f"{name:<44} {va:>14.6g} {vb:>14.6g} {ratio} {ma[name]['unit']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    a, b = load(argv[0]), load(argv[1])
    found = flags(a, b)
    for line in found:
        print(line)
    print(f"{'metric':<44} {'A':>14} {'B':>14} {'B/A':>8}")
    for line in table(a, b):
        print(line)
    backend = a["environment"]["kernel_backend"] != b["environment"]["kernel_backend"]
    return 2 if backend else 0


if __name__ == "__main__":
    sys.exit(main())
