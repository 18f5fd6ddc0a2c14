"""Cross-tabulation of two categorical or boolean columns."""

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

from ..errors import ArgumentError
from .summaries import Document


@dataclass(frozen=True)
class ContingencyTable(Document):
    kind: ClassVar[str] = "contingency_table"
    row_variable: str
    col_variable: str
    row_levels: List[str]
    col_levels: List[str]
    counts: List[List[int]]
    row_totals: List[int]
    col_totals: List[int]
    grand_total: int


def _levels(cells: Sequence[Optional[str]]) -> List[str]:
    return sorted({v for v in cells if v is not None})


def contingency(
    row_name: str,
    row_kind: str,
    row_cells: Sequence[Optional[str]],
    col_name: str,
    col_kind: str,
    col_cells: Sequence[Optional[str]],
) -> ContingencyTable:
    """Cross-tabulated counts over rows where both cells are present.

    Cells are the rendered (string) values of the two columns; levels
    are ordered lexicographically. Numeric columns are rejected: they
    must be discretized upstream before tabulation.
    """
    for name, kind in ((row_name, row_kind), (col_name, col_kind)):
        if kind not in ("boolean", "categorical"):
            raise ArgumentError(
                f"column {name!r} is {kind}; contingency tables need boolean or "
                "categorical columns, discretize numeric data explicitly first"
            )
    if len(row_cells) != len(col_cells):
        raise ArgumentError(
            f"columns {row_name!r} and {col_name!r} have different lengths"
        )

    row_levels = _levels(row_cells)
    col_levels = _levels(col_cells)
    row_index = {v: i for i, v in enumerate(row_levels)}
    col_index = {v: i for i, v in enumerate(col_levels)}

    counts = [[0] * len(col_levels) for _ in row_levels]
    for r, c in zip(row_cells, col_cells):
        if r is None or c is None:
            continue
        counts[row_index[r]][col_index[c]] += 1

    row_totals = [sum(row) for row in counts]
    col_totals = [sum(row[j] for row in counts) for j in range(len(col_levels))]
    return ContingencyTable(
        row_variable=row_name,
        col_variable=col_name,
        row_levels=row_levels,
        col_levels=col_levels,
        counts=counts,
        row_totals=row_totals,
        col_totals=col_totals,
        grand_total=sum(row_totals),
    )
