"""Validated public surface over the numeric kernels.

Every function is pure and deterministic. Argument-domain violations
raise :class:`~a4l_analytics.errors.ArgumentError`; numeric
non-convergence raises :class:`~a4l_analytics.errors.NonConvergenceError`
naming the inputs.
"""

import math
import sys
from typing import Tuple

from ..errors import ArgumentError, NonConvergenceError
from ._backend import kernels

_EPS = sys.float_info.epsilon
_LN_MAX_FLOAT = math.log(sys.float_info.max)
# Halley converges cubically, so a step this small leaves an error far
# below double precision.
_QUANTILE_RTOL = 1e-8
_QUANTILE_MAX_STEPS = 100


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if not (a > 0.0 and b > 0.0):
        raise ArgumentError(f"a and b must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ArgumentError(f"x must lie in [0, 1], got x={x}")
    return kernels.betainc(a, b, x)


def student_t_cdf(x: float, df: float) -> float:
    """CDF of the central Student t distribution."""
    if not df > 0.0:
        raise ArgumentError(f"df must be positive, got df={df}")
    return kernels.student_t_cdf(x, df)


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return kernels.normal_cdf(z)


def noncentral_t_cdf(x: float, df: float, nc: float) -> float:
    """CDF of the noncentral t distribution with noncentrality nc."""
    if not df > 0.0:
        raise ArgumentError(f"df must be positive, got df={df}")
    return kernels.noncentral_t_cdf(x, df, nc)


def student_t_pdf(x: float, df: float) -> float:
    """Density of the central Student t distribution."""
    if not df > 0.0:
        raise ArgumentError(f"df must be positive, got df={df}")
    ln = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1.0) * math.log1p(x * x / df)
    )
    return math.exp(ln)


def _quantile_start(q: float, df: float) -> Tuple[float, bool]:
    """A close estimate of the t > 0 with upper tail S(t) = q < 1/2, and
    whether it is exact to double precision.

    Three approximations, each good where the others are poor; the
    largest is kept. The second and third are lower bounds. The first fell
    short as well at every point checked (df from 1e-2 to 1e6, q down to
    1e-300), but nothing below relies on that:

    * Cornish-Fisher: four terms of the expansion of t in powers of 1/df
      around the normal quantile z (Abramowitz & Stegun 26.7.5), with z from
      Wichura's AS 241 as implemented by ``statistics.NormalDist``. Accurate
      once df is large against z^2.
    * The leading term of the incomplete-beta series,
      S(t) ~ x^(df/2) / (df B(df/2, 1/2)) with x = df / (df + t^2), solved
      for t. The series' other terms are positive, so this t is a lower
      bound; its relative error is about x / (2 df), which makes it the
      close start deep in the tail and at small df, and exact once that
      error is below an ulp.
    * The tangent at the median, S(t) ~ 1/2 - pdf(0) t. S is convex for
      t > 0, so this too is a lower bound; it is the close start near
      p = 1/2 when df is small.
    """
    # imported here only: statistics loads decimal and fractions, which a
    # command that computes no t quantile never uses
    from statistics import NormalDist

    z = -NormalDist().inv_cdf(q)
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = (
        (((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0
    ) * z / 92160.0
    t_cf = z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df

    # pdf(0) = 1 / (sqrt(df) B(df/2, 1/2))
    ln_beta = math.lgamma(0.5 * df) + math.lgamma(0.5) - math.lgamma(0.5 * df + 0.5)
    t_median = (0.5 - q) * math.sqrt(df) * math.exp(ln_beta)

    ln_x = 2.0 / df * (math.log(q) + math.log(df) + ln_beta)
    if ln_x >= 0.0:
        return max(t_cf, t_median), False
    if ln_x > -700.0:
        t_tail = math.sqrt(df * math.expm1(-ln_x))
    else:
        # df / x - df == df / x to double precision; t may overflow
        ln_t = 0.5 * (math.log(df) - ln_x)
        t_tail = math.exp(ln_t) if ln_t < _LN_MAX_FLOAT else math.inf
    if ln_x < math.log(_EPS * df):
        return t_tail, True
    return max(t_cf, t_tail, t_median), False


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF of the central Student t distribution.

    Solves S(t) = q for the upper-tail probability q = min(p, 1 - p),
    which is exact in floating point for either half, from the close
    start of :func:`_quantile_start`, with Halley steps on
    ``kernels.student_t_cdf``. A step that leaves the bracket the
    evaluations so far have established is replaced by doubling or
    bisection. One or two CDF evaluations are typical.
    """
    if not df > 0.0:
        raise ArgumentError(f"df must be positive, got df={df}")
    if not (0.0 < p < 1.0):
        raise ArgumentError(f"p must lie in (0, 1), got p={p}")
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)
    t, exact = _quantile_start(q, df)
    # An exact start needs no steps, and its t^2 may overflow the CDF.
    if not exact:
        t = _refine_quantile(q, df, t)
    return t if p > 0.5 else -t


def _refine_quantile(q: float, df: float, t: float) -> float:
    """Halley steps on S(t) - q from t, kept inside a bracket (lo, hi)."""
    lo, hi = 0.0, math.inf  # S(lo) > q > S(hi)
    for _ in range(_QUANTILE_MAX_STEPS):
        s = kernels.student_t_cdf(-t, df)
        if s == q:
            return t
        if s > q:
            lo = t
        else:
            hi = t
        # S' = -pdf and S'' = pdf (df + 1) t / (df + t^2). Where Halley's
        # factor would more than double the Newton step u, u is taken. A
        # pdf that underflowed gives no step, which sends t to the bracket.
        d = student_t_pdf(t, df)
        u = (s - q) / d if d > 0.0 else math.nan
        denom = 1.0 - 0.5 * u * (df + 1.0) * t / (df + t * t)
        step = u / denom if denom > 0.5 else u
        t_next = t + step
        if abs(step) <= _QUANTILE_RTOL * t:
            return t_next
        # The CDF sees t only through df / (df + t^2), rounded to double; a
        # step below the change in t that moves it by an ulp is noise.
        if abs(step) <= _EPS * (df + t * t) / t:
            return t
        if not lo < t_next < hi:
            t_next = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        t = t_next
    raise NonConvergenceError(f"t quantile did not converge for q={q}, df={df}")
