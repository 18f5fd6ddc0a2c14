"""Executes one validated payload against staged datasets.

Each analysis request produces exactly one result document. Statistical
failures (degenerate data, too few observations, a bad group split) are
recorded per dependent variable inside the document; they never abort
the other dependents or requests. Documents are deterministic given the
payload and the dataset bytes, apart from run_id and generated_at.
"""

import json
import os
import tempfile
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .dataset import (  # noqa: F401  load_csv: looked up here by callers
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    DatasetCache,
    StagedRun,
    TabularDataset,
    load_csv,
)
from .errors import GroupSplitError, StatError
from .payload import AnalysisPayload, AnalysisRequest, OutputSpec, StatisticName
from .stats import (
    contingency,
    descriptives,
    mann_whitney_u,
    welch_power,
    welch_ttest,
)
from .stats.summaries import DescriptivesResult

RESULT_SCHEMA_VERSION = 1


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


@dataclass
class ResultDocument:
    """Serialized output of one analysis request."""

    domain: str
    statistic: str
    dataset_name: str
    dataset_sha256: str
    independent: str
    alternative: str
    alpha: float
    ordering: Optional[Dict[str, str]]
    results: List[dict]
    result_file: str
    run_id: str
    generated_at: str
    schema_version: int = RESULT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "domain": self.domain,
            "statistic": self.statistic,
            "dataset": {"name": self.dataset_name, "sha256": self.dataset_sha256},
            "independent": self.independent,
            "alternative": self.alternative,
            "alpha": self.alpha,
            "groups": self.ordering,
            "results": self.results,
            "result_file": self.result_file,
            "run_id": self.run_id,
            "generated_at": self.generated_at,
        }

    def has_errors(self) -> bool:
        return any("error" in entry for entry in self.results)


@dataclass
class GroupSplit:
    """Two numeric samples plus the level-to-group assignment."""

    sample1: List[float]
    sample2: List[float]
    ordering: Dict[str, str]
    labels: Tuple[str, str]


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
    if col.kind not in (KIND_BOOLEAN, KIND_CATEGORICAL):
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


def _run_grouped(
    req: AnalysisRequest, ds: TabularDataset, dep: str, index: Optional[GroupIndex]
) -> dict:
    split = split_groups(ds, req.independent, dep, index)
    statistic = req.statistic
    if statistic == StatisticName.WELCH_TTEST:
        result = welch_ttest(
            split.sample1,
            split.sample2,
            alternative=req.alternative.value,
            alpha=req.alpha,
            dependent=dep,
            labels=split.labels,
        )
    elif statistic == StatisticName.WELCH_POWER:
        g1 = descriptives(split.sample1, label=split.labels[0])
        g2 = descriptives(split.sample2, label=split.labels[1])
        result = welch_power(
            g1, g2, alpha=req.alpha, alternative=req.alternative.value, dependent=dep
        )
    elif statistic == StatisticName.MANN_WHITNEY_U:
        result = mann_whitney_u(
            split.sample1, split.sample2, alternative=req.alternative.value, dependent=dep
        )
    else:  # descriptives
        result = DescriptivesResult(
            dependent=dep,
            group1=descriptives(split.sample1, label=split.labels[0]),
            group2=descriptives(split.sample2, label=split.labels[1]),
        )
    return result.to_dict()


def _execute_request(
    payload: AnalysisPayload,
    req: AnalysisRequest,
    ds: TabularDataset,
    run_id: str,
    generated_at: str,
) -> ResultDocument:
    ordering: Optional[Dict[str, str]] = None
    index: Optional[GroupIndex] = None
    if req.statistic == StatisticName.CONTINGENCY_TABLE:
        row = ds.column(req.independent)
        row_cells = row.rendered()
    else:
        try:
            index = group_index(ds, req.independent)
            ordering = index.ordering()
        except StatError:
            # split_groups raises the same error again for every dependent
            pass

    entries: List[dict] = []
    for dep in req.dependent:
        try:
            if req.statistic == StatisticName.CONTINGENCY_TABLE:
                col = ds.column(dep)
                table = contingency(
                    row.name, row.kind, row_cells, col.name, col.kind, col.rendered()
                )
                entries.append(table.to_dict())
            else:
                entries.append(_run_grouped(req, ds, dep, index))
        except StatError as exc:
            entries.append(
                {"dependent": dep, "error": {"kind": exc.kind, "message": str(exc)}}
            )

    return ResultDocument(
        domain=payload.domain,
        statistic=req.statistic.value,
        dataset_name=ds.name,
        dataset_sha256=ds.version,
        independent=req.independent,
        alternative=req.alternative.value,
        alpha=req.alpha,
        ordering=ordering,
        results=entries,
        result_file=req.result_file,
        run_id=run_id,
        generated_at=generated_at,
    )


def execute_payload(
    payload: AnalysisPayload, staged: StagedRun, cache: Optional[DatasetCache] = None
) -> List[ResultDocument]:
    """Run every request of a validated payload, in payload order.

    Datasets come from ``cache`` when it already holds the staged
    version; otherwise they are parsed from the staging copy into it.
    """
    run_id = staged.run_id or uuid.uuid4().hex
    generated_at = utc_now_rfc3339()
    cache = DatasetCache() if cache is None else cache
    documents = []
    for req in payload.analyses:
        ds = cache.get(
            req.dataset, staged.versions.get(req.dataset), staged.staged[req.dataset]
        )
        documents.append(_execute_request(payload, req, ds, run_id, generated_at))
    return documents


def write_result(
    doc: ResultDocument, out: OutputSpec, results_root: Union[str, Path]
) -> StoredResultKey:
    """Atomically write one result document below the results root."""
    key = StoredResultKey(
        bucket=out.bucket, prefix=out.prefix, file_name=f"{doc.result_file}.json"
    )
    target = Path(results_root).joinpath(*key.as_path().split("/"))
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc.to_dict(), indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".result-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return key
