#!/usr/bin/env python3
"""Benchmark: per-call time of the numeric kernels and the t quantile.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each case reports the best of five repeats. The kernel cases are the
ones ``perfbench/kernels.py`` declares (``CASES``), called with the
backend module. The last two cases are this script's own: the t quantile,
and two-sided post-hoc power at n1 = n2 = 20 with a 1.5 variance ratio
(df 36.5): one t quantile and two noncentral t CDFs, the work of one
power dependent.
"""

import importlib.util
import timeit
from pathlib import Path

from a4l_analytics.stats import GroupSummary, student_t_quantile, welch_power
from a4l_analytics.stats._backend import kernels

_spec = importlib.util.spec_from_file_location(
    "perfbench_kernels", Path(__file__).resolve().parent.parent / "perfbench" / "kernels.py"
)
perfbench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_kernels)

_G1 = GroupSummary(label="group1", n=20, mean=3.4, sd=1.5**0.5)
_G2 = GroupSummary(label="group2", n=20, mean=2.7, sd=1.0)

CASES = [
    *((name, lambda call=call: call(kernels)) for name, call in perfbench_kernels.CASES),
    ("student_t_quantile(0.975, 36.5)", lambda: student_t_quantile(0.975, 36.5)),
    ("welch_power(n1=n2=20, two-sided)", lambda: welch_power(_G1, _G2)),
]


def time_call(fn, repeats=5, number=2000):
    best = min(timeit.repeat(fn, repeat=repeats, number=number))
    return best / number


def main():
    width = max(len(name) for name, _ in CASES)
    print(f"{'case':<{width}}  {'us/call':>9}")
    for name, call in CASES:
        print(f"{name:<{width}}  {time_call(call) * 1e6:>9.2f}")


if __name__ == "__main__":
    main()
