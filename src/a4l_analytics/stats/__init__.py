"""Statistical procedures and the special functions behind them.

Everything here is pure and deterministic. The numeric kernels are
implemented once, in pure Python (``_pure``); :func:`kernel_backend`
names that implementation for benchmark records.
"""

from ._backend import kernel_backend
from .contingency import ContingencyTable, contingency
from .mannwhitney import EXACT_SIZE_LIMIT, MannWhitneyResult, mann_whitney_u
from .special import (
    noncentral_t_cdf,
    normal_cdf,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_pdf,
    student_t_quantile,
)
from .summaries import DescriptivesResult, GroupSummary, descriptives
from .welch import (
    GREATER,
    LESS,
    TWO_SIDED,
    PowerResult,
    WelchResult,
    welch_power,
    welch_ttest,
)

__all__ = [
    "ContingencyTable",
    "DescriptivesResult",
    "EXACT_SIZE_LIMIT",
    "GREATER",
    "GroupSummary",
    "LESS",
    "MannWhitneyResult",
    "PowerResult",
    "TWO_SIDED",
    "WelchResult",
    "contingency",
    "descriptives",
    "kernel_backend",
    "mann_whitney_u",
    "noncentral_t_cdf",
    "normal_cdf",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "student_t_pdf",
    "student_t_quantile",
    "welch_power",
    "welch_ttest",
]
