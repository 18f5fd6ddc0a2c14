"""Executes one validated payload against the warehouse datasets.

Each analysis request produces exactly one result document. Statistical
failures (degenerate data, too few observations, a bad group split) are
recorded per dependent variable inside the document; they never abort
the other dependents or requests. Documents are deterministic given the
payload and the dataset bytes, apart from run_id and generated_at.
"""

import json
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from .dataset import (  # noqa: F401  load_csv: looked up here by callers
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    DatasetCache,
    StagedRun,
    TabularDataset,
    atomic_write,
    load_csv,
)
from .errors import GroupSplitError, StatError
from .stats import (
    contingency,
    descriptives,
    mann_whitney_u,
    welch_power,
    welch_ttest,
)
from .stats.summaries import DescriptivesResult, Document, GroupSummary

if TYPE_CHECKING:
    from .payload import AnalysisPayload, AnalysisRequest, OutputSpec

RESULT_SCHEMA_VERSION = 1

# The kinds an independent column may have, for every statistic.
GROUPING_KINDS = (KIND_BOOLEAN, KIND_CATEGORICAL)


def utc_now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class StoredResultKey:
    """Location of one result document below the results root."""

    bucket: str
    prefix: str
    file_name: str

    def as_path(self) -> str:
        parts = [self.bucket]
        if self.prefix:
            parts.extend(p for p in self.prefix.split("/") if p)
        parts.append(self.file_name)
        return "/".join(parts)


@dataclass(kw_only=True)
class ResultDocument(Document):
    """Serialized output of one analysis request; its fields are the
    document's keys, in order."""

    schema_version: int = RESULT_SCHEMA_VERSION
    domain: str
    statistic: str
    dataset: Dict[str, str]  # {"name": ..., "sha256": ...}
    independent: str
    alternative: str
    alpha: float
    groups: Optional[Dict[str, str]]
    results: List[dict]
    result_file: str
    run_id: str
    generated_at: str

    def has_errors(self) -> bool:
        return any("error" in entry for entry in self.results)


@dataclass
class GroupSplit:
    """Two numeric samples plus the level-to-group assignment.

    Every statistic over the same columns of one dataset shares one
    split, so the samples must not be changed.
    """

    sample1: List[float]
    sample2: List[float]
    ordering: Dict[str, str]
    labels: Tuple[str, str]
    _summaries: Optional[Tuple[GroupSummary, GroupSummary]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def summaries(self) -> Tuple[GroupSummary, GroupSummary]:
        """The descriptives of both groups, computed on the first call.

        A DegenerateDataError is raised again on every call.
        """
        if self._summaries is None:
            self._summaries = (
                descriptives(self.sample1, label=self.labels[0]),
                descriptives(self.sample2, label=self.labels[1]),
            )
        return self._summaries


@dataclass(frozen=True)
class GroupIndex:
    """The two levels of an independent column and the rows in each.

    Built once per request; every dependent is split from it.
    """

    labels: Tuple[str, str]
    rows: Tuple[Tuple[int, ...], Tuple[int, ...]]

    def ordering(self) -> Dict[str, str]:
        return {self.labels[0]: "group1", self.labels[1]: "group2"}


def group_index(ds: TabularDataset, independent: str) -> GroupIndex:
    """Index the rows of ``ds`` by the two levels of ``independent``.

    group1 is the lexicographically first level ("false" sorts before
    "true"); rows missing the independent value belong to neither group.
    """
    col = ds.column(independent)
    if col.kind not in GROUPING_KINDS:
        raise GroupSplitError(
            f"independent column {independent!r} is {col.kind}, needs boolean or categorical"
        )
    cells = col.rendered()
    levels = sorted({v for v in cells if v is not None})
    if len(levels) != 2:
        raise GroupSplitError(
            f"independent column {independent!r} must have exactly 2 distinct "
            f"non-missing levels, found {len(levels)}: {levels}"
        )
    level1, level2 = levels
    return GroupIndex(
        labels=(level1, level2),
        rows=(
            tuple(i for i, v in enumerate(cells) if v == level1),
            tuple(i for i, v in enumerate(cells) if v == level2),
        ),
    )


def split_groups(
    ds: TabularDataset,
    independent: str,
    dependent: str,
    index: Optional[GroupIndex] = None,
) -> GroupSplit:
    """Split one numeric dependent column into two groups.

    Rows missing either the independent or this dependent value are
    dropped (pairwise deletion). group1 is the lexicographically first
    level of the independent column ("false" sorts before "true").
    ``index`` is ``group_index(ds, independent)``, built here if absent.
    """
    if index is None:
        index = group_index(ds, independent)
    dep_col = ds.column(dependent)
    if dep_col.kind != KIND_NUMERIC:
        raise GroupSplitError(
            f"dependent column {dependent!r} is {dep_col.kind}, needs numeric"
        )

    cells = dep_col.cells
    sample1, sample2 = (
        [v for v in map(cells.__getitem__, rows) if v is not None] for rows in index.rows
    )
    return GroupSplit(
        sample1=sample1,
        sample2=sample2,
        ordering=index.ordering(),
        labels=index.labels,
    )


def _welch_ttest(req: "AnalysisRequest", split: GroupSplit, dep: str):
    g1, g2 = split.summaries()
    return welch_ttest(
        g1, g2, alternative=req.alternative.value, alpha=req.alpha, dependent=dep
    )


def _welch_power(req: "AnalysisRequest", split: GroupSplit, dep: str):
    g1, g2 = split.summaries()
    return welch_power(
        g1, g2, alpha=req.alpha, alternative=req.alternative.value, dependent=dep
    )


def _mann_whitney_u(req: "AnalysisRequest", split: GroupSplit, dep: str):
    return mann_whitney_u(
        split.sample1, split.sample2, alternative=req.alternative.value, dependent=dep
    )


def _descriptives(req: "AnalysisRequest", split: GroupSplit, dep: str):
    g1, g2 = split.summaries()
    return DescriptivesResult(dependent=dep, group1=g1, group2=g2)


@dataclass(frozen=True)
class Statistic:
    """One statistic a payload may request.

    Every statistic takes an independent column of a GROUPING_KINDS
    kind; ``dependent_kinds`` are the kinds each dependent column may
    have. ``compute`` returns the result object for one dependent from
    its two-group split, which every statistic over the same columns
    shares. It is None for the contingency table, which cross-tabulates
    the two columns instead of splitting into groups.
    """

    dependent_kinds: Tuple[str, ...]
    compute: Optional[Callable[["AnalysisRequest", GroupSplit, str], object]]


# The closed set of statistics, by payload name. Validation and
# execution both read this table; docs/payload_schema.json and
# docs/result_schema.json list the same names.
STATISTICS: Dict[str, Statistic] = {
    "get_welch_ttest": Statistic((KIND_NUMERIC,), _welch_ttest),
    "get_welch_power": Statistic((KIND_NUMERIC,), _welch_power),
    "get_mann_whitney_u": Statistic((KIND_NUMERIC,), _mann_whitney_u),
    "get_contingency_table": Statistic(GROUPING_KINDS, None),
    "get_descriptives": Statistic((KIND_NUMERIC,), _descriptives),
}


def _execute_request(
    payload: "AnalysisPayload",
    req: "AnalysisRequest",
    ds: TabularDataset,
    run_id: str,
    generated_at: str,
) -> ResultDocument:
    compute = STATISTICS[req.statistic].compute
    groups: Optional[Dict[str, str]] = None
    if compute is None:
        row = ds.column(req.independent)
        row_cells = row.rendered()

        def result_for(dep: str):
            col = ds.column(dep)
            return contingency(
                row.name, row.kind, row_cells, col.name, col.kind, col.rendered()
            )

    else:
        # ds.views holds the index of each independent column and the
        # split of each (independent, dependent) pair for as long as the
        # dataset is cached; a failure is not kept, so it is raised again.
        views = ds.views
        index: Optional[GroupIndex] = views.get(req.independent)
        if index is None:
            try:
                index = views[req.independent] = group_index(ds, req.independent)
            except StatError:
                # split_groups raises the same error again for every dependent
                pass
        if index is not None:
            groups = index.ordering()

        def result_for(dep: str):
            key = (req.independent, dep)
            split = views.get(key)
            if split is None:
                split = views[key] = split_groups(ds, req.independent, dep, index)
            return compute(req, split, dep)

    entries: List[dict] = []
    for dep in req.dependent:
        try:
            entries.append(result_for(dep).to_dict())
            continue
        except StatError as exc:
            error = {"kind": exc.kind, "message": str(exc)}
        except (ArithmeticError, ValueError) as exc:
            # a kernel's own numeric failure, e.g. an overflow at a huge
            # noncentrality, fails this dependent only
            error = {"kind": StatError.kind, "message": f"{type(exc).__name__}: {exc}"}
        entries.append({"dependent": dep, "error": error})

    return ResultDocument(
        domain=payload.domain,
        statistic=req.statistic,
        dataset={"name": ds.name, "sha256": ds.version},
        independent=req.independent,
        alternative=req.alternative.value,
        alpha=req.alpha,
        groups=groups,
        results=entries,
        result_file=req.result_file,
        run_id=run_id,
        generated_at=generated_at,
    )


def execute_payload(
    payload: "AnalysisPayload", staged: StagedRun, cache: Optional[DatasetCache] = None
) -> List[ResultDocument]:
    """Run every request of a validated payload, in payload order.

    Datasets come from ``cache`` when it already holds the manifest
    version; otherwise it loads them from the warehouse.
    """
    run_id = staged.run_id or uuid.uuid4().hex
    generated_at = utc_now_rfc3339()
    cache = DatasetCache() if cache is None else cache
    documents = []
    for req in payload.analyses:
        name = req.dataset
        ds = cache.get(name, staged.versions[name], staged.staged[name])
        documents.append(_execute_request(payload, req, ds, run_id, generated_at))
    return documents


def write_result(
    doc: ResultDocument, out: "OutputSpec", results_root: Union[str, Path]
) -> StoredResultKey:
    """Atomically write one result document below the results root."""
    key = StoredResultKey(
        bucket=out.bucket, prefix=out.prefix, file_name=f"{doc.result_file}.json"
    )
    target = Path(results_root).joinpath(*key.as_path().split("/"))
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc.to_dict(), indent=2) + "\n"
    atomic_write(target, text.encode("utf-8"))
    return key
