"""Descriptive summaries of numeric samples."""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DegenerateDataError


@dataclass(frozen=True)
class GroupSummary:
    """Count, mean and sample standard deviation of one group.

    ``mean`` is None when the group is empty; ``sd`` is None when fewer
    than two observations are present.
    """

    label: str
    n: int
    mean: Optional[float]
    sd: Optional[float]

    @property
    def variance(self) -> Optional[float]:
        if self.sd is None:
            return None
        return self.sd * self.sd

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "mean": self.mean,
            "sd": self.sd,
            "variance": self.variance,
        }


def descriptives(values: Sequence[Optional[float]], label: str = "all") -> GroupSummary:
    """Summarize the non-missing values of a numeric sample.

    Missing entries (None) are ignored. With no observations the mean is
    missing; with fewer than two, the standard deviation is missing.
    Finite values whose sum or sum of squared deviations is beyond the
    float range raise DegenerateDataError.
    """
    xs = [v for v in values if v is not None]
    n = len(xs)
    if n == 0:
        return GroupSummary(label=label, n=0, mean=None, sd=None)
    try:
        mean = math.fsum(xs) / n
    except OverflowError:
        raise DegenerateDataError(
            "the sum of the values overflows the float range"
        ) from None
    if n < 2:
        return GroupSummary(label=label, n=n, mean=mean, sd=None)
    try:
        ss = math.fsum((v - mean) ** 2 for v in xs)
    except OverflowError:
        ss = math.inf
    if math.isinf(ss):
        raise DegenerateDataError(
            "the sum of squared deviations from the mean overflows the float range"
        )
    # sd is at most the rounded sqrt of the largest float, whose square
    # is finite, so the variance property cannot overflow either
    sd = math.sqrt(ss / (n - 1))
    return GroupSummary(label=label, n=n, mean=mean, sd=sd)


@dataclass(frozen=True)
class DescriptivesResult:
    """Per-group descriptives of one dependent variable."""

    dependent: str
    group1: GroupSummary
    group2: GroupSummary

    def to_dict(self) -> dict:
        return {
            "kind": "descriptives",
            "dependent": self.dependent,
            "group1": self.group1.to_dict(),
            "group2": self.group2.to_dict(),
        }
