"""Executes one validated payload against the warehouse datasets.

Each analysis request produces exactly one result document. Statistical
failures (degenerate data, too few observations, a bad group split) are
recorded per dependent variable inside the document; they never abort
the other dependents or requests. Documents are deterministic given the
payload and the dataset bytes, apart from run_id and generated_at.
"""

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from .dataset import (  # noqa: F401  load_csv: looked up here by callers
    ENTRIES,
    KIND_BOOLEAN,
    KIND_CATEGORICAL,
    KIND_NUMERIC,
    LABELS,
    Column,
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


# The one encoder of every written document: json.dumps(..., indent=2)
# builds this same encoder on each call.
_ENCODER = json.JSONEncoder(indent=2)

# What follows the results key in an encoded document whose results are
# empty; a key of the document's top level is the only text indented by
# two spaces, so this occurs once.
_EMPTY_RESULTS = '\n  "results": []'


def utc_now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat()


def entry_text(entry: dict) -> str:
    """``entry`` encoded as ``write_result`` writes it in a document's
    results list: ``indent=2`` JSON at that list's depth, four spaces
    deeper than at the top. Every raw newline in the encoder's output
    is structural (one inside a string is escaped), so indenting after
    each newline is exact."""
    return "    " + _ENCODER.encode(entry).replace("\n", "\n    ")


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

    # The (entry, text) pair of each entry, as ``_execute_request`` keeps
    # it, so ``document_text`` writes the text in place of encoding the
    # entry again. An entry of ``results`` with no pair here is encoded;
    # a ClassVar, so not a document key.
    encoded: ClassVar[Sequence[Tuple[dict, str]]] = ()

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

    @cached_property
    def summaries(self) -> Tuple[GroupSummary, GroupSummary]:
        """The descriptives of both groups, computed on first use.

        A DegenerateDataError is raised again on every access: a getter
        that raises stores nothing.
        """
        return (
            descriptives(self.sample1, label=self.labels[0]),
            descriptives(self.sample2, label=self.labels[1]),
        )


@dataclass(frozen=True)
class GroupIndex:
    """The two levels of an independent column and the rows in each.

    ``masks`` holds one byte per row for each level: 1 where the row has
    that level. It is built on first use, so an index read only for its
    ``ordering`` never renders the column. Kept once per independent
    column while its dataset is cached; every dependent is split from it.
    """

    labels: Tuple[str, str]
    column: Column = field(repr=False, compare=False)

    @cached_property
    def masks(self) -> Tuple[bytes, bytes]:
        cells = self.column.rendered()
        level1, level2 = self.labels
        return bytes(v == level1 for v in cells), bytes(v == level2 for v in cells)

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
    present = set(col.cells)
    present.discard(None)
    if col.kind == KIND_BOOLEAN:
        present = {"true" if c else "false" for c in present}
    levels = sorted(present)
    if len(levels) != 2:
        raise GroupSplitError(
            f"independent column {independent!r} must have exactly 2 distinct "
            f"non-missing levels, found {len(levels)}: {levels}"
        )
    return GroupIndex(labels=(levels[0], levels[1]), column=col)


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
        [v for v in compress(cells, mask) if v is not None] for mask in index.masks
    )
    return GroupSplit(
        sample1=sample1,
        sample2=sample2,
        ordering=index.ordering(),
        labels=index.labels,
    )


def _welch_ttest(split: GroupSplit, dep: str, alternative: str, alpha: float):
    g1, g2 = split.summaries
    return welch_ttest(g1, g2, alternative=alternative, alpha=alpha, dependent=dep)


def _welch_power(split: GroupSplit, dep: str, alternative: str, alpha: float):
    g1, g2 = split.summaries
    return welch_power(g1, g2, alpha=alpha, alternative=alternative, dependent=dep)


def _mann_whitney_u(split: GroupSplit, dep: str, alternative: str, alpha: float):
    return mann_whitney_u(
        split.sample1, split.sample2, alternative=alternative, dependent=dep
    )


def _descriptives(split: GroupSplit, dep: str, alternative: str, alpha: float):
    g1, g2 = split.summaries
    return DescriptivesResult(dependent=dep, group1=g1, group2=g2)


@dataclass(frozen=True)
class Statistic:
    """One statistic a payload may request.

    Every statistic takes an independent column of a GROUPING_KINDS
    kind; ``dependent_kinds`` are the kinds each dependent column may
    have. ``compute(split, dep, alternative, alpha)`` returns the result
    object for one dependent from its two-group split, which every
    statistic over the same columns shares. It must be a pure function
    of its arguments: its entry is kept in the dataset version's column
    file and reused for every later request with the same key, in this
    invocation or a later one run by the same package source (see
    ``_execute_request``). It is None for the contingency table, which
    cross-tabulates the two columns instead of splitting into groups.
    """

    dependent_kinds: Tuple[str, ...]
    compute: Optional[Callable[[GroupSplit, str, str, float], object]]


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


def _group_index(ds: TabularDataset, independent: str) -> Optional[GroupIndex]:
    """The index of ``independent``, kept in ``ds.views`` from its first
    use; None when the column cannot be split, in which case
    ``split_groups`` raises the error for each dependent.

    Its labels, or None, are kept in ``ds.views[LABELS]``, which the
    version's column file stores with the entries, so a later
    invocation builds the index from them without decoding the column;
    the index's masks still decode it on first use."""
    views = ds.views
    if independent not in views:
        labels = views.setdefault(LABELS, {})
        if independent in labels:
            stored = labels[independent]
            index = None if stored is None else GroupIndex(stored, ds.column(independent))
        else:
            try:
                index = group_index(ds, independent)
            except StatError:
                index = None
            labels[independent] = None if index is None else index.labels
        views[independent] = index
    return views[independent]


def _entry(
    ds: TabularDataset, statistic: str, independent: str, dep: str, alternative: str, alpha: float
) -> dict:
    """One dependent's entry: its result, or the error that failed it."""
    compute = STATISTICS[statistic].compute
    try:
        if compute is None:
            row, col = ds.column(independent), ds.column(dep)
            result = contingency(
                row.name, row.kind, row.rendered(), col.name, col.kind, col.rendered()
            )
        else:
            # ds.views holds the split of each (independent, dependent)
            # pair for as long as the dataset is cached; a failed split is
            # not kept, so each statistic that needs it raises it again.
            key = (independent, dep)
            split = ds.views.get(key)
            if split is None:
                index = _group_index(ds, independent)
                split = ds.views[key] = split_groups(ds, independent, dep, index)
            result = compute(split, dep, alternative, alpha)
        return result.to_dict()
    except StatError as exc:
        error = {"kind": exc.kind, "message": str(exc)}
    except (ArithmeticError, ValueError) as exc:
        # a kernel's own numeric failure, e.g. an overflow at a huge
        # noncentrality, fails this dependent only
        error = {"kind": StatError.kind, "message": f"{type(exc).__name__}: {exc}"}
    return {"dependent": dep, "error": error}


def _execute_request(
    payload: "AnalysisPayload",
    req: "AnalysisRequest",
    ds: TabularDataset,
    run_id: str,
    generated_at: str,
) -> ResultDocument:
    # Each entry is computed and encoded once per (dataset version,
    # statistic, independent, dependent, alternative, alpha) and package
    # source; every later request for that key gets the same entry and
    # text, error entries included, so an entry must not be changed. The
    # memo is loaded with the version's column file, and the cache
    # writes it back when the version leaves it.
    memo = ds.views.setdefault(ENTRIES, {})
    alternative = req.alternative.value
    encoded: List[Tuple[dict, str]] = []
    for dep in req.dependent:
        key = (req.statistic, req.independent, dep, alternative, req.alpha)
        pair = memo.get(key)
        if pair is None:
            entry = _entry(ds, *key)
            pair = memo[key] = (entry, entry_text(entry))
        encoded.append(pair)

    groups: Optional[Dict[str, str]] = None
    if STATISTICS[req.statistic].compute is not None:
        index = _group_index(ds, req.independent)
        if index is not None:
            groups = index.ordering()

    doc = ResultDocument(
        domain=payload.domain,
        statistic=req.statistic,
        dataset={"name": ds.name, "sha256": ds.version},
        independent=req.independent,
        alternative=alternative,
        alpha=req.alpha,
        groups=groups,
        results=[entry for entry, _ in encoded],
        result_file=req.result_file,
        run_id=run_id,
        generated_at=generated_at,
    )
    doc.encoded = encoded
    return doc


def execute_payload(
    payload: "AnalysisPayload", staged: StagedRun, cache: DatasetCache
) -> List[ResultDocument]:
    """Run every request of a validated payload, in payload order.

    Datasets come from ``cache`` when it already holds the manifest
    version; otherwise it loads them from the warehouse.
    """
    generated_at = utc_now_rfc3339()
    documents = []
    for req in payload.analyses:
        name = req.dataset
        ds = cache.get(name, staged.versions[name], staged.staged[name])
        documents.append(_execute_request(payload, req, ds, staged.run_id, generated_at))
    return documents


def document_text(doc: ResultDocument) -> str:
    """The text of ``doc``: ``json.dumps(doc.to_dict(), indent=2)`` and a
    newline, made of one encoded shell, the document with its results
    empty, and each entry's text spliced into the shell's results list.
    An entry's text is its pair's in ``doc.encoded``, and otherwise
    ``entry_text`` of it."""
    shell = doc.to_dict()
    entries, shell["results"] = shell["results"], []
    text = _ENCODER.encode(shell)
    if not entries:
        return text + "\n"
    # doc.encoded keeps each of its entries alive, so an id found there
    # is that very entry
    known = {id(entry): stored for entry, stored in doc.encoded}
    texts = [known[id(e)] if id(e) in known else entry_text(e) for e in entries]
    at = text.index(_EMPTY_RESULTS) + len(_EMPTY_RESULTS) - 1
    return text[:at] + "\n" + ",\n".join(texts) + "\n  " + text[at:] + "\n"


def write_result(
    doc: ResultDocument, out: "OutputSpec", results_root: Union[str, Path]
) -> StoredResultKey:
    """Atomically write one result document below the results root, as
    ``document_text`` gives it."""
    key = StoredResultKey(
        bucket=out.bucket, prefix=out.prefix, file_name=f"{doc.result_file}.json"
    )
    target = Path(results_root).joinpath(*key.as_path().split("/"))
    target.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(target, document_text(doc).encode("utf-8"))
    return key
