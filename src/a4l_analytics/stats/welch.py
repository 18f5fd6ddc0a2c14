"""Welch's two-sample t-test and its post-hoc power.

Group ordering is the caller's contract: ``alternative="less"`` asserts
that group1's mean is below group2's. The test statistic is

    t = (m1 - m2) / sqrt(s1^2/n1 + s2^2/n2)

with Welch-Satterthwaite degrees of freedom. Post-hoc power evaluates
the noncentral t distribution at the observed noncentrality with the
same degrees of freedom, so the power statement matches the test that
was actually run.
"""

import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

from ..errors import DegenerateDataError, InsufficientDataError
from .special import noncentral_t_cdf, student_t_cdf, student_t_quantile
from .summaries import Document, GroupSummary

TWO_SIDED = "two_sided"
LESS = "less"
GREATER = "greater"


@dataclass(frozen=True)
class WelchResult(Document):
    kind: ClassVar[str] = "welch_ttest"
    dependent: str
    group1: GroupSummary
    group2: GroupSummary
    t: float
    df: float
    p_value: float
    alternative: str
    alpha: float


@dataclass(frozen=True)
class PowerResult(Document):
    kind: ClassVar[str] = "welch_power"
    dependent: str
    noncentrality: float
    df: float
    critical_value: float
    power: float
    alpha: float
    alternative: str


def _welch_parts(g1: GroupSummary, g2: GroupSummary) -> Tuple[float, float]:
    """Standard error and Welch-Satterthwaite df from two summaries.

    The df uses the scale-free form 1 / (r^2/(n1-1) + (1-r)^2/(n2-1))
    with r = v1/(v1+v2), which cannot underflow for tiny variances the
    way the textbook se^4-over-sum-of-squares layout does.
    """
    v1 = g1.variance / g1.n
    v2 = g2.variance / g2.n
    se2 = v1 + v2
    if se2 == 0.0:
        raise DegenerateDataError(
            "group variances are below representable precision, "
            "the t statistic is undefined"
        )
    r = v1 / se2
    df = 1.0 / (r * r / (g1.n - 1) + (1.0 - r) * (1.0 - r) / (g2.n - 1))
    return se2**0.5, df


def _check_groups(g1: GroupSummary, g2: GroupSummary) -> None:
    if g1.n < 2 or g2.n < 2:
        raise InsufficientDataError(
            f"each group needs n >= 2 non-missing values, got n1={g1.n}, n2={g2.n}"
        )
    # variance == 0.0 also catches sample spreads below the double-
    # precision floor, where no finite t statistic is representable
    if g1.variance + g2.variance == 0.0:
        raise DegenerateDataError(
            "both groups have zero variance, the t statistic is undefined"
        )


def welch_ttest(
    group1: GroupSummary,
    group2: GroupSummary,
    alternative: str = TWO_SIDED,
    alpha: float = 0.05,
    dependent: str = "",
) -> WelchResult:
    """Welch's unequal-variances t-test of two summarised samples."""
    _check_groups(group1, group2)

    se, df = _welch_parts(group1, group2)
    diff = group1.mean - group2.mean
    t = diff / se
    if not math.isfinite(t):
        # finite summaries can still overflow here, e.g. a mean difference
        # of 1e200 over a standard error of 1e-150; JSON has no infinity
        raise DegenerateDataError(
            f"the t statistic overflows the float range "
            f"(mean difference {diff!r}, standard error {se!r})"
        )
    f = student_t_cdf(t, df)
    if alternative == LESS:
        p = f
    elif alternative == GREATER:
        p = 1.0 - f
    else:
        p = 2.0 * min(f, 1.0 - f)
    return WelchResult(
        dependent=dependent,
        group1=group1,
        group2=group2,
        t=t,
        df=df,
        p_value=p,
        alternative=alternative,
        alpha=alpha,
    )


def welch_power(
    group1: GroupSummary,
    group2: GroupSummary,
    alpha: float = 0.05,
    alternative: str = TWO_SIDED,
    dependent: str = "",
) -> PowerResult:
    """Post-hoc power of the Welch test at the observed effect."""
    _check_groups(group1, group2)

    se, df = _welch_parts(group1, group2)
    nc = (group1.mean - group2.mean) / se
    if alternative == GREATER:
        crit = student_t_quantile(1.0 - alpha, df)
        power = 1.0 - noncentral_t_cdf(crit, df, nc)
    elif alternative == LESS:
        crit = student_t_quantile(alpha, df)
        power = noncentral_t_cdf(crit, df, nc)
    else:
        crit = student_t_quantile(1.0 - 0.5 * alpha, df)
        power = 1.0 - noncentral_t_cdf(crit, df, nc) + noncentral_t_cdf(-crit, df, nc)
    return PowerResult(
        dependent=dependent,
        noncentrality=nc,
        df=df,
        critical_value=crit,
        power=min(max(power, 0.0), 1.0),
        alpha=alpha,
        alternative=alternative,
    )
