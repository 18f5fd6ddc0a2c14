#!/usr/bin/env python3
"""Benchmark: per-call time of the numeric kernels and the t quantile.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each case reports the best of five repeats. The last case is two-sided
post-hoc power at n1 = n2 = 20 with a 1.5 variance ratio (df 36.5): one
t quantile and two noncentral t CDFs, the work of one power dependent.
"""

import timeit

from a4l_analytics.stats import GroupSummary, student_t_quantile, welch_power
from a4l_analytics.stats._backend import kernels

_G1 = GroupSummary(label="group1", n=20, mean=3.4, sd=1.5**0.5)
_G2 = GroupSummary(label="group2", n=20, mean=2.7, sd=1.0)

CASES = [
    ("betainc(2.5, 3.5, 0.3)", lambda: kernels.betainc(2.5, 3.5, 0.3)),
    ("betainc(500, 700, 0.42)", lambda: kernels.betainc(500.0, 700.0, 0.42)),
    ("student_t_cdf(1.5, 38)", lambda: kernels.student_t_cdf(1.5, 38.0)),
    ("noncentral_t_cdf(2.0, 38, 2.53)", lambda: kernels.noncentral_t_cdf(2.0, 38.0, 2.53)),
    ("noncentral_t_cdf(30, 120, 32)", lambda: kernels.noncentral_t_cdf(30.0, 120.0, 32.0)),
    ("normal_cdf(1.96)", lambda: kernels.normal_cdf(1.96)),
    ("mwu_exact_counts(6, 6)", lambda: kernels.mwu_exact_counts(6, 6)),
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
