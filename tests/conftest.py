"""Shared fixtures: synthetic research-domain roots.

Three fixture domains (jw, vera, sami) mirror the production payload
bundles; a fourth (xyz) exists to prove onboarding needs nothing but a
CSV and a payload file. All data is generated deterministically.
"""

import csv
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _maybe_missing(rng, value, p=0.04):
    return "" if rng.random() < p else value


def jw_csv(seed=101, n=90):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        used = rng.random() < 0.55
        score = rng.gauss(82.0 + (4.0 if used else 0.0), 7.0)
        rows.append(
            [
                "true" if used else "false",
                _maybe_missing(rng, f"{score:.2f}"),
                rng.choice(["<25", ">=25"]),
            ]
        )
    return _csv_text(["used_jw", "course_final_score", "age_group"], rows)


def vera_csv(seed=202, n=110):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        used = rng.random() < 0.45
        lift = 0.45 if used else 0.0
        rows.append(
            [
                "true" if used else "false",
                _maybe_missing(rng, f"{rng.gauss(3.6 + lift, 0.8):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.4 + lift, 0.9):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.1 + lift, 0.8):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.3 + lift, 0.7):.2f}"),
                rng.choice(["female", "male", "nonbinary"]),
            ]
        )
    header = [
        "used_vera",
        "nfc_score",
        "self_efficacy_score",
        "help_seeking_score",
        "peer_learning_score",
        "gender",
    ]
    return _csv_text(header, rows)


def sami_csv(seed=303, n=120):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        used = rng.random() < 0.5
        lift = 0.5 if used else 0.0
        rows.append(
            [
                "true" if used else "false",
                _maybe_missing(rng, f"{rng.gauss(3.4 + lift, 1.0):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.0 + lift, 1.0):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.7 + lift, 0.9):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(3.2 + lift, 0.9):.2f}"),
                rng.choice(["<25", ">=25"]),
                rng.choice(["female", "male", "nonbinary"]),
            ]
        )
    header = [
        "used_sami",
        "sob_score",
        "distinct_impressions",
        "comfortable_interacting",
        "sense_of_collaboration",
        "age_group",
        "gender",
    ]
    return _csv_text(header, rows)


def xyz_csv(seed=404, n=70):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        used = rng.random() < 0.5
        rows.append(
            [
                "true" if used else "false",
                _maybe_missing(rng, f"{rng.gauss(60.0 + (6.0 if used else 0.0), 9.0):.2f}"),
                _maybe_missing(rng, f"{rng.gauss(7.0 + (0.8 if used else 0.0), 1.4):.2f}"),
                rng.choice(["north", "south", "east", "west"]),
            ]
        )
    return _csv_text(["used_xyz", "engagement_score", "quiz_score", "region"], rows)


SAMI_DEPENDENTS = [
    "sob_score",
    "distinct_impressions",
    "comfortable_interacting",
    "sense_of_collaboration",
]
VERA_DEPENDENTS = [
    "nfc_score",
    "self_efficacy_score",
    "help_seeking_score",
    "peer_learning_score",
]


def jw_payload():
    return {
        "payload_version": 1,
        "domain": "jw",
        "analyses": [
            {
                "statistic": "get_welch_ttest",
                "dataset": "jw_fall23_usage",
                "independent": "used_jw",
                "dependent": ["course_final_score"],
                "alternative": "two_sided",
                "result_file": "jw_fall23_ttest",
            },
            {
                "statistic": "get_contingency_table",
                "dataset": "jw_fall23_usage",
                "independent": "used_jw",
                "dependent": ["age_group"],
                "result_file": "jw_fall23_contingency",
            },
        ],
        "output": {"bucket": "jw", "prefix": ""},
    }


def vera_payload():
    return {
        "payload_version": 1,
        "domain": "vera",
        "analyses": [
            {
                "statistic": "get_welch_ttest",
                "dataset": "vera_summer23_usage",
                "independent": "used_vera",
                "dependent": VERA_DEPENDENTS,
                "alternative": "two_sided",
                "result_file": "vera_summer23_ttest",
            },
            {
                "statistic": "get_welch_power",
                "dataset": "vera_summer23_usage",
                "independent": "used_vera",
                "dependent": VERA_DEPENDENTS,
                "alternative": "two_sided",
                "result_file": "vera_summer23_ttest_power",
            },
            {
                "statistic": "get_contingency_table",
                "dataset": "vera_summer23_usage",
                "independent": "used_vera",
                "dependent": ["gender"],
                "result_file": "vera_summer23_contingency",
            },
        ],
        "output": {"bucket": "vera", "prefix": ""},
    }


def sami_payload():
    return {
        "payload_version": 1,
        "domain": "sami",
        "analyses": [
            {
                "statistic": "get_welch_ttest",
                "dataset": "sami_fall24_usage",
                "independent": "used_sami",
                "dependent": SAMI_DEPENDENTS,
                "alternative": "less",
                "result_file": "sami_fall24_ttest",
            },
            {
                "statistic": "get_welch_power",
                "dataset": "sami_fall24_usage",
                "independent": "used_sami",
                "dependent": SAMI_DEPENDENTS,
                "alternative": "less",
                "result_file": "sami_fall24_ttest_power",
            },
            {
                "statistic": "get_mann_whitney_u",
                "dataset": "sami_fall24_usage",
                "independent": "used_sami",
                "dependent": ["sob_score"],
                "alternative": "less",
                "result_file": "sami_fall24_mwu",
            },
            {
                "statistic": "get_contingency_table",
                "dataset": "sami_fall24_usage",
                "independent": "used_sami",
                "dependent": ["age_group", "gender"],
                "result_file": "sami_fall24_contingency",
            },
        ],
        "output": {"bucket": "sami", "prefix": ""},
    }


def xyz_payload():
    return {
        "payload_version": 1,
        "domain": "xyz",
        "analyses": [
            {
                "statistic": "get_welch_ttest",
                "dataset": "xyz_spring25_usage",
                "independent": "used_xyz",
                "dependent": ["engagement_score", "quiz_score"],
                "alternative": "greater",
                "result_file": "xyz_spring25_ttest",
            },
            {
                "statistic": "get_descriptives",
                "dataset": "xyz_spring25_usage",
                "independent": "used_xyz",
                "dependent": ["engagement_score", "quiz_score"],
                "result_file": "xyz_spring25_descriptives",
            },
            {
                "statistic": "get_mann_whitney_u",
                "dataset": "xyz_spring25_usage",
                "independent": "used_xyz",
                "dependent": ["engagement_score"],
                "result_file": "xyz_spring25_mwu",
            },
        ],
        "output": {"bucket": "xyz", "prefix": ""},
    }


DOMAIN_FILES = {
    "jw": ("jw_fall23_usage", jw_csv, "jw_fall23.json", jw_payload),
    "vera": ("vera_summer23_usage", vera_csv, "vera_summer23.json", vera_payload),
    "sami": ("sami_fall24_usage", sami_csv, "sami_fall24.json", sami_payload),
    "xyz": ("xyz_spring25_usage", xyz_csv, "xyz_spring25.json", xyz_payload),
}


def build_root(root: Path, domains=("jw", "vera", "sami")) -> Path:
    """Create store/ and payloads/ for the requested fixture domains."""
    (root / "store").mkdir(parents=True, exist_ok=True)
    (root / "payloads").mkdir(parents=True, exist_ok=True)
    for domain in domains:
        dataset, csv_fn, payload_file, payload_fn = DOMAIN_FILES[domain]
        (root / "store" / f"{dataset}.csv").write_text(csv_fn(), encoding="utf-8")
        (root / "payloads" / payload_file).write_text(
            json.dumps(payload_fn(), indent=2) + "\n", encoding="utf-8"
        )
    return root


def add_domain(root: Path, domain: str) -> Path:
    """Onboard one more domain: drop its CSV and payload file, no code."""
    dataset, csv_fn, payload_file, payload_fn = DOMAIN_FILES[domain]
    (root / "store" / f"{dataset}.csv").write_text(csv_fn(), encoding="utf-8")
    (root / "payloads" / payload_file).write_text(
        json.dumps(payload_fn(), indent=2) + "\n", encoding="utf-8"
    )
    return root


@pytest.fixture
def parses(monkeypatch):
    """Dataset name of every real CSV parse made through dataset.load_csv."""
    from a4l_analytics import dataset

    parsed = []
    original = dataset.load_csv

    def counting(path, name=None):
        parsed.append(name)
        return original(path, name=name)

    monkeypatch.setattr(dataset, "load_csv", counting)
    return parsed


@pytest.fixture
def domain_root(tmp_path):
    return build_root(tmp_path / "root")


@pytest.fixture
def synced_root(domain_root):
    from a4l_analytics.orchestrator import run_cycle

    run_cycle(domain_root)
    return domain_root
