"""The JSON analysis-configuration payload.

A payload is the complete description of a pipeline run: which
statistics to compute, on which dataset, over which columns, with what
alternative hypothesis and significance level, and where the result
documents go. Parsing is strict: unknown fields, missing fields and
structurally invalid values are all reported with a field path, so a
payload that parses and validates cleanly cannot fail on a name lookup
during execution.
"""

import difflib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Mapping, Optional, Set, Tuple, Union

from .errors import PayloadError, PayloadParseError
from .runner import GROUPING_KINDS, STATISTICS

DOMAIN_RE = re.compile(r"^[a-z][a-z0-9_]*$")
RESULT_FILE_RE = re.compile(r"^[a-z0-9_]+$")

DEFAULT_ALPHA = 0.05


class Alternative(str, Enum):
    TWO_SIDED = "two_sided"
    LESS = "less"
    GREATER = "greater"


@dataclass(frozen=True)
class OutputSpec:
    """Per-domain storage location for result documents."""

    bucket: str
    prefix: str = ""


@dataclass(frozen=True)
class AnalysisRequest:
    """One statistic applied to one dataset."""

    statistic: str
    dataset: str
    independent: str
    dependent: Tuple[str, ...]
    result_file: str
    alternative: Alternative = Alternative.TWO_SIDED
    alpha: float = DEFAULT_ALPHA


@dataclass(frozen=True)
class AnalysisPayload:
    payload_version: int
    domain: str
    analyses: Tuple[AnalysisRequest, ...]
    output: OutputSpec

    def datasets(self) -> Set[str]:
        return {req.dataset for req in self.analyses}


@dataclass(frozen=True)
class Diagnostic:
    """One validation problem, anchored to a payload field path."""

    path: str
    message: str
    value: Optional[str] = None
    suggestion: Optional[str] = None

    def render(self) -> str:
        parts = [f"{self.path}: {self.message}"]
        if self.value is not None:
            parts.append(f"(got {self.value!r})")
        if self.suggestion is not None:
            parts.append(f"- did you mean {self.suggestion!r}?")
        return " ".join(parts)


@dataclass
class ValidationReport:
    ok: bool
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def render(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(d.render() for d in self.diagnostics)


class _Reader:
    """Strict dict reader that records the field path in every error."""

    def __init__(self, obj, path, problems):
        self.obj = obj
        self.path = path
        self.problems = problems
        self.seen = set()

    def _fail(self, key, message, value=None):
        path = f"{self.path}.{key}" if self.path else key
        self.problems.append(Diagnostic(path=path, message=message, value=value))

    def require(self, key, kinds, kind_name):
        self.seen.add(key)
        if key not in self.obj:
            self._fail(key, "missing required field")
            return None
        value = self.obj[key]
        if not isinstance(value, kinds) or isinstance(value, bool) and kinds != (bool,):
            self._fail(key, f"expected {kind_name}", value=repr(value))
            return None
        return value

    def optional(self, key, kinds, kind_name, default):
        self.seen.add(key)
        if key not in self.obj:
            return default
        value = self.obj[key]
        if not isinstance(value, kinds) or isinstance(value, bool) and kinds != (bool,):
            self._fail(key, f"expected {kind_name}", value=repr(value))
            return None
        return value

    def reject_unknown(self):
        for key in self.obj:
            if key not in self.seen:
                self._fail(key, "unknown field")


def _parse_request(obj, path, problems) -> Optional[AnalysisRequest]:
    if not isinstance(obj, dict):
        problems.append(Diagnostic(path=path, message="expected an object"))
        return None
    start = len(problems)
    r = _Reader(obj, path, problems)

    statistic = r.require("statistic", (str,), "a string")
    dataset = r.require("dataset", (str,), "a string")
    independent = r.require("independent", (str,), "a string")
    dependent = r.require("dependent", (list,), "a list of column names")
    result_file = r.require("result_file", (str,), "a string")
    alternative = r.optional("alternative", (str,), "a string", Alternative.TWO_SIDED)
    alpha = r.optional("alpha", (int, float), "a number", DEFAULT_ALPHA)
    r.reject_unknown()

    alt_value = None
    if alternative is not None:
        if isinstance(alternative, Alternative):
            alt_value = alternative
        else:
            try:
                alt_value = Alternative(alternative.replace("-", "_"))
            except ValueError:
                r._fail(
                    "alternative",
                    "must be one of two_sided, less, greater",
                    value=repr(alternative),
                )

    if dependent is not None:
        cleaned = []
        for i, name in enumerate(dependent):
            if not isinstance(name, str) or not name:
                problems.append(
                    Diagnostic(
                        path=f"{path}.dependent[{i}]",
                        message="expected a non-empty column name",
                        value=repr(name),
                    )
                )
            else:
                cleaned.append(name)
        if not dependent:
            r._fail("dependent", "must be non-empty")
        if len(set(cleaned)) != len(cleaned):
            r._fail("dependent", "contains duplicate column names")
        if independent is not None and independent in cleaned:
            r._fail("dependent", f"must not contain the independent column {independent!r}")
        dependent = tuple(cleaned)

    if alpha is not None and not 0.0 < float(alpha) < 1.0:
        r._fail("alpha", "must lie strictly between 0 and 1", value=repr(alpha))
    if result_file is not None and not RESULT_FILE_RE.match(result_file):
        r._fail(
            "result_file",
            "must match [a-z0-9_]+ (no path separators)",
            value=repr(result_file),
        )

    if len(problems) > start:
        return None
    return AnalysisRequest(
        statistic=statistic,
        dataset=dataset,
        independent=independent,
        dependent=dependent,
        result_file=result_file,
        alternative=alt_value,
        alpha=float(alpha),
    )


def _parse_output(obj, path, problems) -> Optional[OutputSpec]:
    if not isinstance(obj, dict):
        problems.append(Diagnostic(path=path, message="expected an object"))
        return None
    start = len(problems)
    r = _Reader(obj, path, problems)
    bucket = r.require("bucket", (str,), "a string")
    prefix = r.optional("prefix", (str,), "a string", "")
    r.reject_unknown()

    if bucket is not None and not bucket:
        r._fail("bucket", "must be non-empty")
    if prefix:
        segments = prefix.split("/")
        if ".." in segments or prefix.startswith("/"):
            r._fail("prefix", "must be a relative path without '..' segments", value=repr(prefix))
    if len(problems) > start:
        return None
    return OutputSpec(bucket=bucket, prefix=prefix or "")


def parse_payload(raw: Union[bytes, str]) -> AnalysisPayload:
    """Parse UTF-8 JSON text into a fully populated payload.

    Defaults (alternative=two_sided, alpha=0.05) are applied here, so
    serializing the result and re-parsing yields an equal value.
    Raises PayloadParseError for bytes that are not UTF-8 or malformed
    JSON (with line/column) and PayloadError carrying field-path
    diagnostics for structural problems, including unknown fields.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            column = exc.start - raw.rfind(b"\n", 0, exc.start)
            raise PayloadParseError(
                f"invalid UTF-8 at line {line}, column {column}: {exc.reason}",
                line=line,
                column=column,
            ) from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PayloadParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc

    problems: List[Diagnostic] = []
    if not isinstance(obj, dict):
        raise PayloadError(
            "payload must be a JSON object",
            [Diagnostic(path="", message="payload must be a JSON object")],
        )

    r = _Reader(obj, "", problems)
    version = r.require("payload_version", (int,), "an integer")
    domain = r.require("domain", (str,), "a string")
    analyses = r.require("analyses", (list,), "a list of analysis requests")
    output = r.require("output", (dict,), "an object")
    r.reject_unknown()

    if domain is not None and not DOMAIN_RE.match(domain):
        r._fail("domain", "must match [a-z][a-z0-9_]*", value=repr(domain))

    requests: List[AnalysisRequest] = []
    if analyses is not None:
        if not analyses:
            r._fail("analyses", "must be non-empty")
        for i, entry in enumerate(analyses):
            req = _parse_request(entry, f"analyses[{i}]", problems)
            if req is not None:
                requests.append(req)

    out_spec = _parse_output(output, "output", problems) if output is not None else None

    if not problems:
        names = [req.result_file for req in requests]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            r._fail("analyses", f"result_file names must be unique, repeated: {dupes}")

    if problems:
        raise PayloadError(
            "; ".join(d.render() for d in problems),
            problems,
        )
    return AnalysisPayload(
        payload_version=version,
        domain=domain,
        analyses=tuple(requests),
        output=out_spec,
    )


def serialize_payload(payload: AnalysisPayload) -> str:
    """Canonical JSON form; parse_payload(serialize_payload(p)) == p."""
    doc = {
        "payload_version": payload.payload_version,
        "domain": payload.domain,
        "analyses": [
            {
                "statistic": req.statistic,
                "dataset": req.dataset,
                "independent": req.independent,
                "dependent": list(req.dependent),
                "alternative": req.alternative.value,
                "alpha": req.alpha,
                "result_file": req.result_file,
            }
            for req in payload.analyses
        ],
        "output": {"bucket": payload.output.bucket, "prefix": payload.output.prefix},
    }
    return json.dumps(doc, indent=2) + "\n"


def _suggest(name: str, candidates: Iterable[str]) -> Optional[str]:
    matches = difflib.get_close_matches(name, list(candidates), n=1)
    return matches[0] if matches else None


def validate_payload(
    payload: AnalysisPayload,
    catalog: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> ValidationReport:
    """Check every request against the statistic table and warehouse.

    ``catalog`` maps dataset name -> {column name -> kind} for every
    dataset in the warehouse. A payload that validates ok references
    only existing datasets, existing columns of workable kinds and
    registered statistics, so execution cannot hit an unknown name.
    """
    catalog = {} if catalog is None else catalog
    diagnostics: List[Diagnostic] = []

    for i, req in enumerate(payload.analyses):
        path = f"analyses[{i}]"
        if req.statistic not in STATISTICS:
            diagnostics.append(
                Diagnostic(
                    path=f"{path}.statistic",
                    message="unknown statistic",
                    value=req.statistic,
                    suggestion=_suggest(req.statistic, STATISTICS),
                )
            )
            continue

        if req.dataset not in catalog:
            diagnostics.append(
                Diagnostic(
                    path=f"{path}.dataset",
                    message="unknown dataset",
                    value=req.dataset,
                    suggestion=_suggest(req.dataset, catalog.keys()),
                )
            )
            continue

        columns = catalog[req.dataset]
        dep_kinds = STATISTICS[req.statistic].dependent_kinds

        if req.independent not in columns:
            diagnostics.append(
                Diagnostic(
                    path=f"{path}.independent",
                    message=f"column not in dataset {req.dataset!r}",
                    value=req.independent,
                    suggestion=_suggest(req.independent, columns.keys()),
                )
            )
        elif columns[req.independent] not in GROUPING_KINDS:
            diagnostics.append(
                Diagnostic(
                    path=f"{path}.independent",
                    message=(
                        f"column is {columns[req.independent]}, "
                        f"{req.statistic} needs one of {', '.join(GROUPING_KINDS)}"
                    ),
                    value=req.independent,
                )
            )

        for j, dep in enumerate(req.dependent):
            if dep not in columns:
                diagnostics.append(
                    Diagnostic(
                        path=f"{path}.dependent[{j}]",
                        message=f"column not in dataset {req.dataset!r}",
                        value=dep,
                        suggestion=_suggest(dep, columns.keys()),
                    )
                )
            elif columns[dep] not in dep_kinds:
                diagnostics.append(
                    Diagnostic(
                        path=f"{path}.dependent[{j}]",
                        message=(
                            f"column is {columns[dep]}, "
                            f"{req.statistic} needs one of {', '.join(dep_kinds)}"
                        ),
                        value=dep,
                    )
                )

    return ValidationReport(ok=not diagnostics, diagnostics=diagnostics)
