"""Per-call kernel timings.

The seven cases of ``benchmarks/bench_kernels.py``, timed on the backend
the package selected at import, and on the compiled extension as well
when it can be imported. Best of five repeats, each long enough (about
20 ms) for the clock's resolution not to matter.
"""

import timeit
from typing import Dict, Optional

CASES = (
    ("betainc_2.5_3.5_0.3", lambda m: m.betainc(2.5, 3.5, 0.3)),
    ("betainc_500_700_0.42", lambda m: m.betainc(500.0, 700.0, 0.42)),
    ("student_t_cdf_1.5_38", lambda m: m.student_t_cdf(1.5, 38.0)),
    ("noncentral_t_cdf_2_38_2.53", lambda m: m.noncentral_t_cdf(2.0, 38.0, 2.53)),
    ("noncentral_t_cdf_30_120_32", lambda m: m.noncentral_t_cdf(30.0, 120.0, 32.0)),
    ("normal_cdf_1.96", lambda m: m.normal_cdf(1.96)),
    ("mwu_exact_counts_6_6", lambda m: m.mwu_exact_counts(6, 6)),
)


def _per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < 0.02:
        number *= 2
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def time_kernels(module) -> Dict[str, float]:
    return {name: _per_call_us(lambda: call(module)) for name, call in CASES}


def compiled_module() -> Optional[object]:
    try:
        from a4l_analytics.stats import _ckernels
    except ImportError:
        return None
    return _ckernels
