"""Payload parsing, serialization, defaults and validation."""

import json
import re
from pathlib import Path

import pytest

from a4l_analytics.errors import PayloadError, PayloadParseError
from a4l_analytics.payload import (
    Alternative,
    parse_payload,
    serialize_payload,
    validate_payload,
)
from a4l_analytics.runner import STATISTICS
from conftest import hostile_payloads

DOCS = Path(__file__).parent.parent / "docs"
BAD_BUCKETS = ["../../escaped", "..", ".", "a/b", "/abs", "a\0b", ""]
BAD_PREFIXES = ["a/../b", "a/..", "..", "/abs", "a\0b"]

SAMI_POWER_PAYLOAD = {
    "payload_version": 1,
    "domain": "sami",
    "analyses": [
        {
            "statistic": "get_welch_power",
            "dataset": "sami_fall24_usage",
            "independent": "used_sami",
            "dependent": [
                "sob_score",
                "distinct_impressions",
                "comfortable_interacting",
                "sense_of_collaboration",
            ],
            "alternative": "less",
            "alpha": 0.05,
            "result_file": "sami_fall24_ttest_power",
        }
    ],
    "output": {"bucket": "sami", "prefix": ""},
}

CATALOG = {
    "sami_fall24_usage": {
        "used_sami": "boolean",
        "sob_score": "numeric",
        "distinct_impressions": "numeric",
        "comfortable_interacting": "numeric",
        "sense_of_collaboration": "numeric",
        "age_group": "categorical",
        "gender": "categorical",
    }
}


def _dump(obj) -> str:
    return json.dumps(obj)


class TestParse:
    def test_sami_power_payload(self):
        payload = parse_payload(_dump(SAMI_POWER_PAYLOAD))
        assert payload.domain == "sami"
        assert len(payload.analyses) == 1
        req = payload.analyses[0]
        assert req.statistic == "get_welch_power"
        assert req.dataset == "sami_fall24_usage"
        assert req.independent == "used_sami"
        assert req.dependent == (
            "sob_score",
            "distinct_impressions",
            "comfortable_interacting",
            "sense_of_collaboration",
        )
        assert req.result_file == "sami_fall24_ttest_power"
        assert req.alternative == Alternative.LESS

    def test_defaults_applied(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        del doc["analyses"][0]["alternative"]
        del doc["analyses"][0]["alpha"]
        payload = parse_payload(_dump(doc))
        req = payload.analyses[0]
        assert req.alternative == Alternative.TWO_SIDED
        assert req.alpha == 0.05

    def test_defaults_idempotent(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        del doc["analyses"][0]["alternative"]
        del doc["analyses"][0]["alpha"]
        once = parse_payload(_dump(doc))
        twice = parse_payload(serialize_payload(once))
        assert once == twice

    def test_round_trip(self):
        payload = parse_payload(_dump(SAMI_POWER_PAYLOAD))
        assert parse_payload(serialize_payload(payload)) == payload

    def test_bytes_accepted(self):
        payload = parse_payload(_dump(SAMI_POWER_PAYLOAD).encode("utf-8"))
        assert payload.domain == "sami"

    def test_hyphenated_alternative_accepted(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["alternative"] = "two-sided"
        payload = parse_payload(_dump(doc))
        assert payload.analyses[0].alternative == Alternative.TWO_SIDED

    def test_empty_analyses_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"] = []
        with pytest.raises(PayloadError, match="must be non-empty"):
            parse_payload(_dump(doc))

    def test_malformed_json_has_line_and_column(self):
        with pytest.raises(PayloadParseError) as exc_info:
            parse_payload('{\n  "payload_version": 1,\n  "domain": }')
        assert exc_info.value.line == 3
        assert exc_info.value.column is not None

    def test_invalid_utf8_is_a_parse_error(self):
        with pytest.raises(PayloadParseError, match="invalid UTF-8") as exc_info:
            parse_payload(b'{\n  "domain": "\xff"}')
        assert (exc_info.value.line, exc_info.value.column) == (2, 14)

    def test_missing_field_names_path(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        del doc["analyses"][0]["statistic"]
        with pytest.raises(PayloadError) as exc_info:
            parse_payload(_dump(doc))
        assert any(
            d.path == "analyses[0].statistic" and "missing" in d.message
            for d in exc_info.value.diagnostics
        )

    def test_unknown_field_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["extra_knob"] = 1
        with pytest.raises(PayloadError) as exc_info:
            parse_payload(_dump(doc))
        assert any(
            d.path == "analyses[0].extra_knob" and d.message == "unknown field"
            for d in exc_info.value.diagnostics
        )

    def test_top_level_unknown_field_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["commentary"] = "hello"
        with pytest.raises(PayloadError):
            parse_payload(_dump(doc))

    def test_duplicate_result_files_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"].append(json.loads(_dump(doc["analyses"][0])))
        with pytest.raises(PayloadError, match="unique"):
            parse_payload(_dump(doc))

    def test_dependent_must_not_contain_independent(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dependent"].append("used_sami")
        with pytest.raises(PayloadError, match="independent"):
            parse_payload(_dump(doc))

    def test_dependent_duplicates_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dependent"] = ["sob_score", "sob_score"]
        with pytest.raises(PayloadError, match="duplicate"):
            parse_payload(_dump(doc))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 2.0])
    def test_alpha_bounds(self, alpha):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["alpha"] = alpha
        with pytest.raises(PayloadError, match="alpha"):
            parse_payload(_dump(doc))

    @pytest.mark.parametrize("bad", ["with/slash", "UPPER", "dots.bad", "", "r\n"])
    def test_result_file_pattern(self, bad):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["result_file"] = bad
        with pytest.raises(PayloadError, match="result_file"):
            parse_payload(_dump(doc))

    @pytest.mark.parametrize("bad", ["Sami", "9lives", "has-dash", "", "sami\n"])
    def test_domain_pattern(self, bad):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["domain"] = bad
        with pytest.raises(PayloadError, match="domain"):
            parse_payload(_dump(doc))

    def test_prefix_traversal_rejected(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["output"]["prefix"] = "../escape"
        with pytest.raises(PayloadError, match="prefix"):
            parse_payload(_dump(doc))

    @pytest.mark.parametrize(
        "field, bad",
        [("bucket", bad) for bad in BAD_BUCKETS] + [("prefix", bad) for bad in BAD_PREFIXES],
    )
    def test_output_path_stays_below_results(self, field, bad):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["output"][field] = bad
        with pytest.raises(PayloadError, match=f"output.{field}"):
            parse_payload(_dump(doc))

    @pytest.mark.parametrize("name", sorted(hostile_payloads()))
    def test_hostile_numbers_and_nesting_rejected(self, name):
        with pytest.raises(PayloadError):
            parse_payload(hostile_payloads()[name])

    def test_all_requests_diagnosed(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        second = json.loads(_dump(doc["analyses"][0]))
        second["result_file"] = "other_file"
        second["alpha"] = 7
        doc["analyses"][0]["dependent"] = []
        doc["analyses"].append(second)
        with pytest.raises(PayloadError) as exc_info:
            parse_payload(_dump(doc))
        paths = {d.path for d in exc_info.value.diagnostics}
        assert "analyses[0].dependent" in paths
        assert "analyses[1].alpha" in paths

    @pytest.mark.parametrize("version", [0, -5])
    def test_payload_version_below_1_rejected(self, version):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["payload_version"] = version
        with pytest.raises(PayloadError) as exc_info:
            parse_payload(_dump(doc))
        assert [d.render() for d in exc_info.value.diagnostics] == [
            f"payload_version: must be at least 1 (got {version})"
        ]

    def test_payload_version_1_accepted(self):
        assert parse_payload(_dump(SAMI_POWER_PAYLOAD)).payload_version == 1


def _rendered(edit):
    """The rendered diagnostics of SAMI_POWER_PAYLOAD after ``edit``."""
    doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
    edit(doc)
    with pytest.raises(PayloadError) as exc_info:
        parse_payload(_dump(doc))
    return [d.render() for d in exc_info.value.diagnostics]


def _set(path, value):
    """An edit that sets the field at ``path``, a list of keys, to ``value``."""

    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


class TestDiagnosticText:
    """Each value a diagnostic shows is quoted once, as Python's repr."""

    @pytest.mark.parametrize(
        "path, value, text",
        [
            (["domain"], 7, "domain: expected a string (got 7)"),
            (["domain"], None, "domain: expected a string (got None)"),
            (["analyses", 0, "alpha"], "0.1", "analyses[0].alpha: expected a number (got '0.1')"),
            (
                ["analyses", 0, "alternative"],
                "sideways",
                "analyses[0].alternative: must be one of two_sided, less, greater "
                "(got 'sideways')",
            ),
            (
                ["analyses", 0, "dependent", 1],
                "",
                "analyses[0].dependent[1]: expected a non-empty column name (got '')",
            ),
            (
                ["analyses", 0, "dependent", 1],
                None,
                "analyses[0].dependent[1]: expected a non-empty column name (got None)",
            ),
            (
                ["analyses", 0, "alpha"],
                0.0,
                "analyses[0].alpha: must lie strictly between 0 and 1 (got 0.0)",
            ),
            (
                ["analyses", 0, "result_file"],
                "a/b",
                "analyses[0].result_file: must match [a-z0-9_]+ (no path separators) "
                "(got 'a/b')",
            ),
            (
                ["output", "bucket"],
                "..",
                "output.bucket: must be one directory name: not '.' or '..', no '/' or NUL "
                "(got '..')",
            ),
            (
                ["output", "prefix"],
                "../x",
                "output.prefix: must be a relative path without '..' segments or NUL "
                "(got '../x')",
            ),
            (["domain"], "Sami", "domain: must match [a-z][a-z0-9_]* (got 'Sami')"),
        ],
    )
    def test_value_quoted_once(self, path, value, text):
        assert _rendered(_set(path, value)) == [text]

    def test_no_value_shown_where_none_is_carried(self):
        assert _rendered(lambda doc: doc.pop("domain")) == [
            "domain: missing required field"
        ]



class TestValidate:
    def test_fixture_payload_ok(self):
        payload = parse_payload(_dump(SAMI_POWER_PAYLOAD))
        report = validate_payload(payload, catalog=CATALOG)
        assert report.ok
        assert report.render() == "ok"

    def test_unknown_statistic(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["statistic"] = "get_foo"
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok
        diag = report.diagnostics[0]
        assert diag.message == "unknown statistic"
        assert diag.path == "analyses[0].statistic"

    def test_statistic_suggestion(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["statistic"] = "get_welch_powr"
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert report.diagnostics[0].suggestion == "get_welch_power"

    def test_unknown_dataset_with_suggestion(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dataset"] = "sami_fall24_usag"
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok
        assert report.diagnostics[0].suggestion == "sami_fall24_usage"

    def test_unknown_dependent_column_names_dataset(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dependent"] = ["sob_score", "missing_col"]
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok
        diag = report.diagnostics[0]
        assert diag.value == "missing_col"
        assert "sami_fall24_usage" in diag.message
        assert diag.path == "analyses[0].dependent[1]"

    def test_unknown_independent_column(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["independent"] = "used_sami_typo"
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok
        assert report.diagnostics[0].suggestion == "used_sami"

    def test_kind_mismatch_dependent(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dependent"] = ["age_group"]
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok
        assert "categorical" in report.diagnostics[0].message

    def test_kind_mismatch_independent_for_contingency(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["statistic"] = "get_contingency_table"
        doc["analyses"][0]["dependent"] = ["sob_score"]
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert not report.ok

    def test_every_diagnostic_has_request_index(self):
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["analyses"][0]["dependent"] = ["nope_a", "nope_b"]
        payload = parse_payload(_dump(doc))
        report = validate_payload(payload, catalog=CATALOG)
        assert len(report.diagnostics) == 2
        assert all(d.path.startswith("analyses[0]") for d in report.diagnostics)


NUMERIC_DEPENDENT = ("get_welch_ttest", "get_welch_power", "get_mann_whitney_u", "get_descriptives")


def _kind_report(statistic, independent, dependent):
    doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
    doc["analyses"][0].update(
        statistic=statistic, independent=independent, dependent=[dependent]
    )
    return validate_payload(parse_payload(_dump(doc)), catalog=CATALOG).render()


@pytest.mark.parametrize("statistic", NUMERIC_DEPENDENT + ("get_contingency_table",))
def test_wrong_kind_independent_diagnostic(statistic):
    dependent = "age_group" if statistic == "get_contingency_table" else "sob_score"
    assert _kind_report(statistic, "distinct_impressions", dependent) == (
        f"analyses[0].independent: column is numeric, {statistic} needs one of "
        "boolean, categorical (got 'distinct_impressions')"
    )


@pytest.mark.parametrize("statistic", NUMERIC_DEPENDENT)
def test_wrong_kind_dependent_diagnostic_numeric(statistic):
    assert _kind_report(statistic, "used_sami", "age_group") == (
        f"analyses[0].dependent[0]: column is categorical, {statistic} needs one of "
        "numeric (got 'age_group')"
    )


def test_wrong_kind_dependent_diagnostic_contingency():
    assert _kind_report("get_contingency_table", "used_sami", "sob_score") == (
        "analyses[0].dependent[0]: column is numeric, get_contingency_table needs "
        "one of boolean, categorical (got 'sob_score')"
    )


def test_schema_enums_list_the_statistic_table():
    payload_schema = json.loads((DOCS / "payload_schema.json").read_text())
    result_schema = json.loads((DOCS / "result_schema.json").read_text())
    request = payload_schema["$defs"]["analysis_request"]
    assert sorted(request["properties"]["statistic"]["enum"]) == sorted(STATISTICS)
    assert sorted(result_schema["properties"]["statistic"]["enum"]) == sorted(STATISTICS)


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("bucket", BAD_BUCKETS, ["sami", "p01.v2", "...", ".hidden"]),
        ("prefix", BAD_PREFIXES, ["", "w0", "fall/2024", "a/..b", "...", "a/"]),
    ],
)
def test_schema_output_patterns_match_the_parser(field, bad, good):
    payload_schema = json.loads((DOCS / "payload_schema.json").read_text())
    pattern = payload_schema["properties"]["output"]["properties"][field]["pattern"]
    assert [value for value in bad if re.search(pattern, value)] == []
    assert [value for value in good if not re.search(pattern, value)] == []
    for value in good:
        doc = json.loads(_dump(SAMI_POWER_PAYLOAD))
        doc["output"][field] = value
        assert getattr(parse_payload(_dump(doc)).output, field) == value
