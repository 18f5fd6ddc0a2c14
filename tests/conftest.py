"""Shared fixtures: synthetic research-domain roots.

Three fixture domains (jw, vera, sami) mirror the production payload
bundles; a fourth (xyz) exists to prove onboarding needs nothing but a
CSV and a payload file. All data is generated deterministically.
"""

import csv
import io
import json
import marshal
import random
import sys
import zlib
from collections import Counter
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


def huge_vera_cell(root: Path) -> None:
    """Put the finite cell 1e200 in vera's nfc_score column: its sum of
    squared deviations overflows, which the float range cannot hold."""
    store = root / "store" / "vera_summer23_usage.csv"
    header, first, rest = store.read_text(encoding="utf-8").split("\n", 2)
    cells = first.split(",")
    cells[header.split(",").index("nfc_score")] = "1e200"
    store.write_text("\n".join([header, ",".join(cells), rest]), encoding="utf-8")


def huge_vera_group(root: Path) -> None:
    """Set every used_vera=true cell of vera's nfc_score to the finite
    1e154: the summaries stay finite, but post-hoc power meets a
    noncentrality near 1e155, beyond what the noncentral t kernel takes."""
    store = root / "store" / "vera_summer23_usage.csv"
    rows = list(csv.reader(io.StringIO(store.read_text(encoding="utf-8"))))
    used, score = rows[0].index("used_vera"), rows[0].index("nfc_score")
    for row in rows[1:]:
        if row[used] == "true":
            row[score] = "1e154"
    store.write_text(_csv_text(rows[0], rows[1:]), encoding="utf-8")


def hostile_payloads():
    """sami's payload text with a number or a nesting depth beyond what
    float() or json.loads take, by name."""
    doc = sami_payload()
    doc["analyses"][0]["alpha"] = 10**400  # float() overflows
    huge_alpha = json.dumps(doc)
    text = json.dumps(sami_payload())
    return {
        "huge_alpha": huge_alpha,
        # beyond the int-digits limit of json.loads
        "huge_integer": text.replace(
            '"payload_version": 1', '"payload_version": 1' + "0" * 5000
        ),
        # beyond the recursion limit of json.loads
        "deep_nesting": text.replace(
            '"payload_version": 1', '"payload_version": ' + "[" * 100_000 + "]" * 100_000
        ),
    }


def read_column_file(data):
    """The parts of the column file ``data``: (tag, row_count, columns,
    entries_tag, entries, labels), each column as (name, kind, cells)
    and each entry as its dict, once each column's blob and the entries
    blob match the crc32 stored beside them and each entry's stored text
    is ``entry_text`` of it."""
    from a4l_analytics.runner import entry_text

    tag, row_count, stored, entries_tag, entries_crc, entries_blob = marshal.loads(data)
    columns = []
    for name, kind, crc, blob in stored:
        assert zlib.crc32(blob) == crc, f"column {name!r}: crc32 mismatch"
        columns.append((name, kind, marshal.loads(blob)))
    assert zlib.crc32(entries_blob) == entries_crc, "entries: crc32 mismatch"
    pairs, labels = marshal.loads(entries_blob)
    entries = {}
    for key, (entry, text) in pairs.items():
        assert text == entry_text(entry), f"entry {key!r}: text mismatch"
        entries[key] = entry
    return tag, row_count, tuple(columns), entries_tag, entries, labels


def column_file_bytes(tag, row_count, columns, entries_tag=None, entries=None, labels=None):
    """A column file of the parts ``read_column_file`` returns: each
    (name, kind, cells) column is stored as the marshal blob of its cells
    and that blob's crc32, and each entry dict with its ``entry_text``.
    Entries that are not a dict, and an entry that is not a dict, are
    stored as given, so a test can spoil them."""
    from a4l_analytics.runner import entry_text

    stored = []
    for name, kind, cells in columns:
        blob = marshal.dumps(cells)
        stored.append((name, kind, zlib.crc32(blob), blob))
    if entries is None:
        entries = {}
    if type(entries) is dict:
        entries = {
            key: (entry, entry_text(entry)) if type(entry) is dict else entry
            for key, entry in entries.items()
        }
    entries_blob = marshal.dumps((entries, {} if labels is None else labels))
    return marshal.dumps(
        (tag, row_count, tuple(stored), entries_tag, zlib.crc32(entries_blob), entries_blob)
    )


def column_blobs(data):
    """Each column's blob in the column file ``data``, by column name."""
    return {name: blob for name, _, _, blob in marshal.loads(data)[2]}


def entries_blob(data):
    """The blob of the result entries and labels in the column file ``data``."""
    return marshal.loads(data)[5]


def stored_column(name, kind, cells, row_count=None):
    """The column ``Column.stored`` makes of ``cells``' blob and crc32,
    for ``row_count`` rows (``len(cells)`` by default), with no parse to
    fall back to."""
    from a4l_analytics.dataset import Column

    blob = marshal.dumps(tuple(cells))
    n = len(cells) if row_count is None else row_count
    return Column.stored(name, kind, zlib.crc32(blob), blob, n, None)


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
def payload_parses(monkeypatch):
    """The bytes of every parse made through orchestrator.parse_payload,
    the registry walk's parser."""
    from a4l_analytics import orchestrator

    parsed = []
    original = orchestrator.parse_payload

    def counting(raw):
        parsed.append(raw)
        return original(raw)

    monkeypatch.setattr(orchestrator, "parse_payload", counting)
    return parsed


@pytest.fixture
def input_reads(monkeypatch):
    """Every store file hashed through orchestrator.sha256_file, as
    ("hash", "store/<file>"), and every store or payload file read whole
    through Path.read_bytes, as ("read", "<dir>/<file>"), in call order."""
    from a4l_analytics import orchestrator

    seen = []
    sha256_file, read_bytes = orchestrator.sha256_file, Path.read_bytes

    def hashing(path):
        path = Path(path)
        seen.append(("hash", f"{path.parent.name}/{path.name}"))
        return sha256_file(path)

    def reading(self):
        if self.parent.name in ("store", "payloads"):
            seen.append(("read", f"{self.parent.name}/{self.name}"))
        return read_bytes(self)

    monkeypatch.setattr(orchestrator, "sha256_file", hashing)
    monkeypatch.setattr(Path, "read_bytes", reading)
    return seen


@pytest.fixture
def derived(monkeypatch):
    """Every group split, group summary and kernel call the runner makes.

    ``splits`` records (dataset, independent, dependent) of each
    runner.split_groups call, ``summaries`` the label of each
    runner.descriptives call, and ``kernels`` counts the calls of each
    statistic's kernel by its runner name.
    """
    from a4l_analytics import runner

    made = {"splits": [], "summaries": [], "kernels": Counter()}
    split_groups, descriptives = runner.split_groups, runner.descriptives

    def counting(name):
        kernel = getattr(runner, name)

        def call(*args, **kwargs):
            made["kernels"][name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(runner, name, call)

    for name in ("welch_ttest", "welch_power", "mann_whitney_u", "contingency"):
        counting(name)

    def counting_split(ds, independent, dependent, index=None):
        made["splits"].append((ds.name, independent, dependent))
        return split_groups(ds, independent, dependent, index)

    def counting_descriptives(values, label="all"):
        made["summaries"].append(label)
        return descriptives(values, label=label)

    monkeypatch.setattr(runner, "split_groups", counting_split)
    monkeypatch.setattr(runner, "descriptives", counting_descriptives)
    return made


@pytest.fixture
def no_staging(monkeypatch):
    """Make any temp dir or file copy raise: runs read the warehouse in place."""
    import shutil
    import tempfile

    def forbidden(*args, **kwargs):
        raise AssertionError("a run made a temp dir or copied a file")

    monkeypatch.setattr(tempfile, "mkdtemp", forbidden)
    monkeypatch.setattr(shutil, "copyfile", forbidden)


@pytest.fixture
def empty_record(tmp_path):
    """A registry record that holds no entry, kept outside every root and
    never saved: with no lock stamp, a scan or walk over it reads and
    hashes every input file."""
    from a4l_analytics.orchestrator import RegistryRecord

    return RegistryRecord(tmp_path / "empty-reconcile.json")


@pytest.fixture
def domain_root(tmp_path):
    return build_root(tmp_path / "root")


@pytest.fixture
def synced_root(domain_root):
    from a4l_analytics.orchestrator import run_cycle

    run_cycle(domain_root)
    return domain_root


@pytest.fixture
def settled_root(synced_root):
    """A synced root after one more cycle, so that the registry record
    holds a stat witness for every input file: the first cycle may hash
    files written within its own lock stamp's clock tick, whose witnesses
    it does not keep, and the second finds them older than its stamp."""
    from a4l_analytics.orchestrator import run_cycle

    run_cycle(synced_root)
    return synced_root
