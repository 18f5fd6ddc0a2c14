"""Structural validation of result documents against the shipped schema.

Mirrors docs/result_schema.json closely enough for the acceptance suite
without pulling in a JSON Schema engine. Tests read result documents and
``runs/`` reports through ``strict_loads``, so a NaN or an infinity that
``json.dumps`` let through fails them.
"""

import json
from pathlib import Path

RESULT_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "result_schema.json").read_text()
)
# Read from the schema, not from the package's statistic table, so the
# check stays independent of the code it checks.
STATISTICS = set(RESULT_SCHEMA["properties"]["statistic"]["enum"])


ALTERNATIVES = {"two_sided", "less", "greater"}
ERROR_KINDS = {
    "argument_error",
    "insufficient_data",
    "degenerate_data",
    "group_split",
    "non_convergence",
    "stat_error",
}
TOP_LEVEL_KEYS = {
    "schema_version",
    "domain",
    "statistic",
    "dataset",
    "independent",
    "alternative",
    "alpha",
    "groups",
    "results",
    "result_file",
    "run_id",
    "generated_at",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def strict_loads(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity (RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def _check_group_summary(entry, label):
    assert set(entry) == {"label", "n", "mean", "sd", "variance"}, label
    assert isinstance(entry["label"], str)
    assert isinstance(entry["n"], int) and entry["n"] >= 0
    for key in ("mean", "sd", "variance"):
        assert entry[key] is None or isinstance(entry[key], (int, float))


def _check_probability(value):
    assert isinstance(value, (int, float))
    assert 0.0 <= value <= 1.0


def _check_entry(entry):
    if "error" in entry:
        assert set(entry) == {"dependent", "error"}
        assert isinstance(entry["dependent"], str)
        assert set(entry["error"]) == {"kind", "message"}
        assert entry["error"]["kind"] in ERROR_KINDS
        assert isinstance(entry["error"]["message"], str)
        return

    kind = entry["kind"]
    if kind == "welch_ttest":
        assert set(entry) == {
            "kind", "dependent", "group1", "group2", "t", "df",
            "p_value", "alternative", "alpha",
        }
        _check_group_summary(entry["group1"], "group1")
        _check_group_summary(entry["group2"], "group2")
        assert isinstance(entry["t"], (int, float))
        assert entry["df"] > 0
        _check_probability(entry["p_value"])
        assert entry["alternative"] in ALTERNATIVES
    elif kind == "welch_power":
        assert set(entry) == {
            "kind", "dependent", "noncentrality", "df", "critical_value",
            "power", "alpha", "alternative",
        }
        assert entry["df"] > 0
        _check_probability(entry["power"])
        assert entry["alternative"] in ALTERNATIVES
    elif kind == "mann_whitney_u":
        assert set(entry) == {
            "kind", "dependent", "u1", "u2", "n1", "n2", "p_value",
            "method", "tie_correction_applied", "alternative",
        }
        assert entry["u1"] >= 0 and entry["u2"] >= 0
        assert entry["u1"] + entry["u2"] == entry["n1"] * entry["n2"]
        _check_probability(entry["p_value"])
        assert entry["method"] in ("exact", "normal_approx")
        assert isinstance(entry["tie_correction_applied"], bool)
    elif kind == "contingency_table":
        assert set(entry) == {
            "kind", "row_variable", "col_variable", "row_levels", "col_levels",
            "counts", "row_totals", "col_totals", "grand_total",
        }
        counts = entry["counts"]
        assert len(counts) == len(entry["row_levels"])
        for i, row in enumerate(counts):
            assert len(row) == len(entry["col_levels"])
            assert all(isinstance(c, int) and c >= 0 for c in row)
            assert sum(row) == entry["row_totals"][i]
        for j, total in enumerate(entry["col_totals"]):
            assert total == sum(row[j] for row in counts)
        assert sum(entry["row_totals"]) == entry["grand_total"]
    elif kind == "descriptives":
        assert set(entry) == {"kind", "dependent", "group1", "group2"}
        _check_group_summary(entry["group1"], "group1")
        _check_group_summary(entry["group2"], "group2")
    else:
        raise AssertionError(f"unknown result kind {kind!r}")


def check_result_document(doc):
    """Assert one result document matches the documented schema."""
    assert set(doc) == TOP_LEVEL_KEYS, set(doc) ^ TOP_LEVEL_KEYS
    assert doc["schema_version"] == 1
    assert isinstance(doc["domain"], str) and doc["domain"]
    assert doc["statistic"] in STATISTICS
    assert set(doc["dataset"]) == {"name", "sha256"}
    assert len(doc["dataset"]["sha256"]) == 64
    assert isinstance(doc["independent"], str)
    assert doc["alternative"] in ALTERNATIVES
    assert 0.0 < doc["alpha"] < 1.0
    if doc["groups"] is not None:
        assert set(doc["groups"].values()) == {"group1", "group2"}
        assert len(doc["groups"]) == 2
    assert isinstance(doc["results"], list) and doc["results"]
    for entry in doc["results"]:
        _check_entry(entry)
    assert isinstance(doc["run_id"], str) and doc["run_id"]
    assert isinstance(doc["generated_at"], str) and doc["generated_at"]
