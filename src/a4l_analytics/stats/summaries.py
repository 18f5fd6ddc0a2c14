"""Descriptive summaries of numeric samples, and the encoder of every
result document."""

import math
from dataclasses import dataclass, field, fields
from functools import cache
from typing import ClassVar, Optional, Sequence, Tuple

from ..errors import DegenerateDataError


@cache
def _layout(cls: type) -> Tuple[Optional[str], Tuple[str, ...]]:
    return getattr(cls, "kind", None), tuple(f.name for f in fields(cls))


class Document:
    """Base of every dataclass that is written as a JSON document or entry.

    The document is ``kind``, where the class declares one, followed by
    every dataclass field in declaration order; a field holding another
    Document becomes that one's document. So a class's fields are its
    document keys, in order, and docs/result_schema.json lists the same.
    """

    def to_dict(self) -> dict:
        kind, names = _layout(type(self))
        doc = {} if kind is None else {"kind": kind}
        for name in names:
            value = getattr(self, name)
            doc[name] = value.to_dict() if isinstance(value, Document) else value
        return doc


@dataclass(frozen=True)
class GroupSummary(Document):
    """Count, mean and sample standard deviation of one group.

    ``mean`` is None when the group is empty; ``sd`` and ``variance`` are
    None when fewer than two observations are present.
    """

    label: str
    n: int
    mean: Optional[float]
    sd: Optional[float]
    variance: Optional[float] = field(init=False)

    def __post_init__(self) -> None:
        variance = None if self.sd is None else self.sd * self.sd
        object.__setattr__(self, "variance", variance)


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
        ss = math.fsum([(v - mean) ** 2 for v in xs])
    except OverflowError:
        ss = math.inf
    if math.isinf(ss):
        raise DegenerateDataError(
            "the sum of squared deviations from the mean overflows the float range"
        )
    # sd is at most the rounded sqrt of the largest float, whose square
    # is finite, so the variance cannot overflow either
    sd = math.sqrt(ss / (n - 1))
    return GroupSummary(label=label, n=n, mean=mean, sd=sd)


@dataclass(frozen=True)
class DescriptivesResult(Document):
    """Per-group descriptives of one dependent variable."""

    kind: ClassVar[str] = "descriptives"
    dependent: str
    group1: GroupSummary
    group2: GroupSummary
