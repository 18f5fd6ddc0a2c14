"""Mann-Whitney U test.

u1 counts pairs won by group1 (ties count one half), computed through
the midrank identity u1 = R1 - n1(n1+1)/2. Small tie-free samples get
the exact permutation p-value from the count distribution; everything
else uses the normal approximation with tie-corrected variance and a
continuity correction of one half. ``alternative="less"`` asserts that
group1 tends to produce smaller values than group2.
"""

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Sequence, Tuple

from ..errors import DegenerateDataError, InsufficientDataError
from ._backend import kernels
from .special import normal_cdf
from .summaries import Document
from .welch import GREATER, LESS, TWO_SIDED

EXACT_SIZE_LIMIT = 12


@dataclass(frozen=True)
class MannWhitneyResult(Document):
    kind: ClassVar[str] = "mann_whitney_u"
    dependent: str
    u1: float
    u2: float
    n1: int
    n2: int
    p_value: float
    method: str  # "exact" | "normal_approx"
    tie_correction_applied: bool
    alternative: str


def _rank_walk(
    group1: Sequence[float], pooled: Sequence[float]
) -> Tuple[float, int, int]:
    """group1's midrank sum, the tie sum and the number of distinct values.

    One walk over the sorted distinct pooled values: a value held c
    times, k of them in group1, has midrank below + (c + 1) / 2 and adds
    c^3 - c to the tie sum. The rank sum is a sum of half-integers, so
    it is exact below 2^53.
    """
    counts = Counter(pooled)
    in1 = Counter(group1)
    r1 = 0.0
    tie_sum = 0
    below = 0
    for value in sorted(counts):
        c = counts[value]
        k = in1.get(value, 0)
        if k:
            r1 += k * (below + (c + 1) / 2)
        tie_sum += c**3 - c
        below += c
    return r1, tie_sum, len(counts)


def _exact_p(u1: float, n1: int, n2: int, alternative: str) -> float:
    counts = kernels.mwu_exact_counts(n1, n2)
    total = sum(counts)
    u = int(u1)
    if alternative == LESS:
        return sum(counts[: u + 1]) / total
    if alternative == GREATER:
        return sum(counts[u:]) / total
    lo = min(u, n1 * n2 - u)
    p = (sum(counts[: lo + 1]) + sum(counts[n1 * n2 - lo :])) / total
    return min(p, 1.0)


def mann_whitney_u(
    group1: Sequence[float],
    group2: Sequence[float],
    alternative: str = TWO_SIDED,
    dependent: str = "",
) -> MannWhitneyResult:
    """Rank-sum comparison of two samples."""
    n1, n2 = len(group1), len(group2)
    if n1 == 0 or n2 == 0:
        raise InsufficientDataError(
            f"both groups must be non-empty, got n1={n1}, n2={n2}"
        )

    n = n1 + n2
    r1, tie_sum, distinct = _rank_walk(group1, [*group1, *group2])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1

    # Exactness needs the count distribution to be the permutation
    # distribution, which requires all pooled values distinct.
    if n <= EXACT_SIZE_LIMIT and distinct == n:
        p = _exact_p(u1, n1, n2, alternative)
        return MannWhitneyResult(
            dependent=dependent,
            u1=u1,
            u2=u2,
            n1=n1,
            n2=n2,
            p_value=p,
            method="exact",
            tie_correction_applied=False,
            alternative=alternative,
        )

    variance = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if variance <= 0.0:
        raise DegenerateDataError("all pooled values are identical, U has no variance")
    sd = variance**0.5

    mean = n1 * n2 / 2.0
    p_less = normal_cdf((u1 - mean + 0.5) / sd)
    p_greater = 1.0 - normal_cdf((u1 - mean - 0.5) / sd)
    if alternative == LESS:
        p = p_less
    elif alternative == GREATER:
        p = p_greater
    else:
        p = min(1.0, 2.0 * min(p_less, p_greater))
    return MannWhitneyResult(
        dependent=dependent,
        u1=u1,
        u2=u2,
        n1=n1,
        n2=n2,
        p_value=p,
        method="normal_approx",
        tie_correction_applied=tie_sum > 0,
        alternative=alternative,
    )
