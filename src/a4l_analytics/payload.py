"""The JSON analysis-configuration payload.

A payload is the complete description of a pipeline run: which
statistics to compute, on which dataset, over which columns, with what
alternative hypothesis and significance level, and where the result
documents go. Parsing is strict: unknown fields, missing fields and
structurally invalid values are all reported with a field path, so a
payload that parses and validates cleanly cannot fail on a name lookup
during execution.
"""

import json
import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Iterable, List, Mapping, Optional, Set, Tuple, Union

from .errors import PayloadError, PayloadParseError
from .runner import GROUPING_KINDS, STATISTICS

# Matched with fullmatch: "$" in a pattern also matches before a final "\n".
DOMAIN_RE = re.compile(r"[a-z][a-z0-9_]*")
RESULT_FILE_RE = re.compile(r"[a-z0-9_]+")

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


class _NoValue:
    def __repr__(self) -> str:
        return "NO_VALUE"


# The value of a Diagnostic that shows none; None is a payload's null.
NO_VALUE = _NoValue()


@dataclass(frozen=True)
class Diagnostic:
    """One validation problem, anchored to a payload field path.

    ``value`` is the offending value as the payload holds it; ``render``
    quotes it, once.
    """

    path: str
    message: str
    value: Any = NO_VALUE
    suggestion: Optional[str] = None

    def render(self) -> str:
        parts = [f"{self.path}: {self.message}"]
        if self.value is not NO_VALUE:
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


# Each object's fields, in reading order: name -> (accepted types, the
# type's name in a diagnostic, default). A field whose default is None is
# required.
_PAYLOAD_FIELDS = {
    "payload_version": (int, "an integer", None),
    "domain": (str, "a string", None),
    "analyses": (list, "a list of analysis requests", None),
    "output": (dict, "an object", None),
}
_REQUEST_FIELDS = {
    "statistic": (str, "a string", None),
    "dataset": (str, "a string", None),
    "independent": (str, "a string", None),
    "dependent": (list, "a list of column names", None),
    "result_file": (str, "a string", None),
    "alternative": (str, "a string", "two_sided"),
    "alpha": ((int, float), "a number", DEFAULT_ALPHA),
}
_OUTPUT_FIELDS = {
    "bucket": (str, "a string", None),
    "prefix": (str, "a string", ""),
}


def _fail(problems, path, key, message, value=NO_VALUE):
    problems.append(Diagnostic(f"{path}.{key}" if path else key, message, value))


def _read(obj, path, fields, problems) -> list:
    """The value of each of ``fields`` in ``obj``, in table order.

    An absent field takes its default; an absent required field, a value
    of another type (a bool is never a number) and every key the table
    does not name are reported at their path. A reported field reads as
    None.
    """
    values = []
    for key, (types, type_name, default) in fields.items():
        if key not in obj:
            if default is None:
                _fail(problems, path, key, "missing required field")
            values.append(default)
            continue
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, types):
            _fail(problems, path, key, f"expected {type_name}", value)
            value = None
        values.append(value)
    for key in obj:
        if key not in fields:
            _fail(problems, path, key, "unknown field")
    return values


def _parse_request(obj, path, problems) -> Optional[AnalysisRequest]:
    if not isinstance(obj, dict):
        problems.append(Diagnostic(path=path, message="expected an object"))
        return None
    start = len(problems)
    statistic, dataset, independent, dependent, result_file, alternative, alpha = _read(
        obj, path, _REQUEST_FIELDS, problems
    )

    if alternative is not None:
        try:
            alternative = Alternative(alternative.replace("-", "_"))
        except ValueError:
            message = "must be one of two_sided, less, greater"
            _fail(problems, path, "alternative", message, alternative)

    if dependent is not None:
        cleaned = []
        for i, name in enumerate(dependent):
            if not isinstance(name, str) or not name:
                message = "expected a non-empty column name"
                _fail(problems, path, f"dependent[{i}]", message, name)
            else:
                cleaned.append(name)
        if not dependent:
            _fail(problems, path, "dependent", "must be non-empty")
        if len(set(cleaned)) != len(cleaned):
            _fail(problems, path, "dependent", "contains duplicate column names")
        if independent is not None and independent in cleaned:
            message = f"must not contain the independent column {independent!r}"
            _fail(problems, path, "dependent", message)
        dependent = tuple(cleaned)

    # compared before float(): an int compares exactly, and a huge one
    # would overflow the conversion
    if alpha is not None and not 0 < alpha < 1:
        _fail(problems, path, "alpha", "must lie strictly between 0 and 1", alpha)
    if result_file is not None and not RESULT_FILE_RE.fullmatch(result_file):
        message = "must match [a-z0-9_]+ (no path separators)"
        _fail(problems, path, "result_file", message, result_file)

    if len(problems) > start:
        return None
    return AnalysisRequest(
        statistic=statistic,
        dataset=dataset,
        independent=independent,
        dependent=dependent,
        result_file=result_file,
        alternative=alternative,
        alpha=float(alpha),
    )


def _parse_output(obj, path, problems) -> Optional[OutputSpec]:
    start = len(problems)
    bucket, prefix = _read(obj, path, _OUTPUT_FIELDS, problems)

    if bucket is not None and not bucket:
        _fail(problems, path, "bucket", "must be non-empty")
    elif bucket is not None and (
        bucket in (".", "..") or "/" in bucket or "\0" in bucket
    ):
        message = "must be one directory name: not '.' or '..', no '/' or NUL"
        _fail(problems, path, "bucket", message, bucket)
    if prefix:
        segments = prefix.split("/")
        if ".." in segments or prefix.startswith("/") or "\0" in prefix:
            message = "must be a relative path without '..' segments or NUL"
            _fail(problems, path, "prefix", message, prefix)
    if len(problems) > start:
        return None
    return OutputSpec(bucket=bucket, prefix=prefix)


def parse_payload(raw: Union[bytes, str]) -> AnalysisPayload:
    """Parse UTF-8 JSON text into a fully populated payload.

    Defaults (alternative=two_sided, alpha=0.05) are applied here, so
    serializing the result and re-parsing yields an equal value.
    Raises PayloadParseError for bytes that are not UTF-8 or malformed
    JSON (with line/column) or JSON beyond json.loads' integer-digit or
    nesting limits, and PayloadError carrying field-path diagnostics for
    structural problems, including unknown fields.
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
    except (ValueError, RecursionError) as exc:
        # an integer beyond the int-digits limit, or nesting too deep
        raise PayloadParseError(f"unparseable JSON: {exc}") from exc

    problems: List[Diagnostic] = []
    if not isinstance(obj, dict):
        raise PayloadError(
            "payload must be a JSON object",
            [Diagnostic(path="", message="payload must be a JSON object")],
        )

    version, domain, analyses, output = _read(obj, "", _PAYLOAD_FIELDS, problems)

    if version is not None and version < 1:
        _fail(problems, "", "payload_version", "must be at least 1", version)
    if domain is not None and not DOMAIN_RE.fullmatch(domain):
        _fail(problems, "", "domain", "must match [a-z][a-z0-9_]*", domain)

    requests: List[AnalysisRequest] = []
    if analyses is not None:
        if not analyses:
            _fail(problems, "", "analyses", "must be non-empty")
        for i, entry in enumerate(analyses):
            req = _parse_request(entry, f"analyses[{i}]", problems)
            if req is not None:
                requests.append(req)

    out_spec = _parse_output(output, "output", problems) if output is not None else None

    if not problems:
        names = [req.result_file for req in requests]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            message = f"result_file names must be unique, repeated: {dupes}"
            _fail(problems, "", "analyses", message)

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
    return json.dumps(asdict(payload), indent=2) + "\n"


def _unknown_name(path: str, message: str, name: str, known: Iterable[str]) -> Diagnostic:
    """A name that is not among ``known``, suggesting the closest one."""
    # imported on this path only: a command whose payload names only
    # known datasets and columns never loads it
    import difflib

    matches = difflib.get_close_matches(name, list(known), n=1)
    return Diagnostic(path, message, name, matches[0] if matches else None)


def _check_column(diagnostics, path, name, kinds, columns, req) -> None:
    """Report a column of ``req`` that is not in ``columns`` or not of ``kinds``."""
    kind = columns.get(name)
    if kind is None:
        message = f"column not in dataset {req.dataset!r}"
        diagnostics.append(_unknown_name(path, message, name, columns))
    elif kind not in kinds:
        message = f"column is {kind}, {req.statistic} needs one of {', '.join(kinds)}"
        diagnostics.append(Diagnostic(path, message, name))


def validate_payload(
    payload: AnalysisPayload, catalog: Mapping[str, Mapping[str, str]]
) -> ValidationReport:
    """Check every request against the statistic table and warehouse.

    ``catalog`` maps dataset name -> {column name -> kind} for every
    dataset in the warehouse. A payload that validates ok references
    only existing datasets, existing columns of workable kinds and
    registered statistics, so execution cannot hit an unknown name.
    """
    diagnostics: List[Diagnostic] = []
    for i, req in enumerate(payload.analyses):
        path = f"analyses[{i}]"
        statistic = STATISTICS.get(req.statistic)
        if statistic is None:
            diagnostics.append(
                _unknown_name(
                    f"{path}.statistic", "unknown statistic", req.statistic, STATISTICS
                )
            )
        elif req.dataset not in catalog:
            diagnostics.append(
                _unknown_name(f"{path}.dataset", "unknown dataset", req.dataset, catalog)
            )
        else:
            columns = catalog[req.dataset]
            _check_column(
                diagnostics, f"{path}.independent", req.independent, GROUPING_KINDS,
                columns, req,
            )
            for j, dep in enumerate(req.dependent):
                _check_column(
                    diagnostics, f"{path}.dependent[{j}]", dep,
                    statistic.dependent_kinds, columns, req,
                )
    return ValidationReport(ok=not diagnostics, diagnostics=diagnostics)
