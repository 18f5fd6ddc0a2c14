"""Seeded synthetic pipeline roots.

A root is what an operator of the pipeline would have on disk: published
CSV datasets under ``store/``, a payload registry under ``payloads/`` and
one extra payload, ``probe.json``, kept outside the registry so that
``a4l run`` can be timed without the sync cycle ever selecting it.

Everything is a pure function of ``(seed, shape)``. Dataset columns are
regenerated on demand from ``(seed, dataset, variant)`` rather than kept,
so the oracle can recompute every result from the generator's own values
after the timed region without those values inflating the measured RSS.
"""

import hashlib
import json
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

GROUP = "group"
ALTERNATIVES = ("two_sided", "less", "greater")
ALL_STATISTICS = (
    "get_welch_ttest",
    "get_welch_power",
    "get_mann_whitney_u",
    "get_descriptives",
    "get_contingency_table",
)
CATEGORICAL_LEVELS = ("east", "north", "south", "west")
# Largest group effect on a numeric column, in standard deviations.
MAX_EFFECT = 0.6


@dataclass(frozen=True)
class Shape:
    """Parameters of one synthetic root.

    ``rounding`` is the number of decimals numeric cells keep; coarse
    rounding creates ties, which send Mann-Whitney down its tie-corrected
    path. ``requests_span_datasets`` sends request r of payload p to
    dataset (p + r) mod D; otherwise payload p reads dataset p * D // P
    only, so each dataset has its own payloads.
    """

    datasets: int
    rows: int
    numeric: int
    categorical: int
    payloads: int
    requests: int
    dependents: int
    statistics: Tuple[str, ...]
    missing_rate: float
    rounding: int
    requests_span_datasets: bool

    @property
    def columns(self) -> int:
        return 1 + self.numeric + self.categorical

    def to_dict(self) -> dict:
        return {**asdict(self), "columns": self.columns}


def dataset_name(index: int) -> str:
    return f"ds{index:02d}"


def numeric_names(shape: Shape) -> List[str]:
    return [f"m{j:02d}" for j in range(shape.numeric)]


def categorical_names(shape: Shape) -> List[str]:
    return [f"c{j:02d}" for j in range(shape.categorical)]


def dataset_columns(seed: int, shape: Shape, index: int, variant: int = 0) -> Dict[str, list]:
    """Column name -> cell values (None is a missing cell).

    The group column holds booleans; numeric columns hold floats already
    rounded, so the rendered CSV text parses back to exactly these values.
    """
    rng = random.Random(f"a4l-perfbench:{seed}:{index}:{variant}")
    rows, miss = shape.rows, shape.missing_rate

    def maybe(value):
        return None if rng.random() < miss else value

    columns: Dict[str, list] = {GROUP: [maybe(rng.random() < 0.5) for _ in range(rows)]}
    groups = columns[GROUP]
    for name in numeric_names(shape):
        effect = rng.uniform(-MAX_EFFECT, MAX_EFFECT)
        mean = rng.uniform(10.0, 100.0)
        sd = rng.uniform(1.0, 20.0)
        cells = []
        for g in groups:
            value = mean + (effect * sd if g else 0.0) + rng.gauss(0.0, sd)
            cells.append(maybe(round(value, shape.rounding)))
        columns[name] = cells
    for name in categorical_names(shape):
        weights = [rng.uniform(0.5, 2.0) for _ in CATEGORICAL_LEVELS]
        columns[name] = [
            maybe(rng.choices(CATEGORICAL_LEVELS, weights)[0]) for _ in range(rows)
        ]
    return columns


def _render_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return value


def render_csv(columns: Dict[str, list]) -> bytes:
    names = list(columns)
    lines = [",".join(names)]
    for row in zip(*(columns[n] for n in names)):
        lines.append(",".join(_render_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def dataset_bytes(seed: int, shape: Shape, index: int, variant: int = 0) -> bytes:
    return render_csv(dataset_columns(seed, shape, index, variant))


def payload_doc(shape: Shape, p: int) -> dict:
    """The JSON payload for registry slot ``p``."""
    analyses = []
    numeric = numeric_names(shape)
    categorical = categorical_names(shape)
    for r in range(shape.requests):
        statistic = shape.statistics[(p + r) % len(shape.statistics)]
        if shape.requests_span_datasets:
            ds = (p + r) % shape.datasets
        else:
            ds = p * shape.datasets // shape.payloads
        if statistic == "get_contingency_table":
            dependent = categorical[: shape.dependents]
        else:
            start = (p + r) % len(numeric)
            count = min(shape.dependents, len(numeric))
            dependent = [numeric[(start + k) % len(numeric)] for k in range(count)]
        analyses.append(
            {
                "statistic": statistic,
                "dataset": dataset_name(ds),
                "independent": GROUP,
                "dependent": dependent,
                "alternative": ALTERNATIVES[(p + r) % len(ALTERNATIVES)],
                "alpha": 0.05,
                "result_file": f"r{r}_{statistic[4:]}",
            }
        )
    return {
        "payload_version": 1,
        "domain": "bench",
        "analyses": analyses,
        "output": {"bucket": f"p{p:02d}", "prefix": f"w{p % 3}"},
    }


def probe_doc(shape: Shape) -> dict:
    """The payload ``a4l run`` is timed on: every statistic, spread over
    the datasets, so each kernel runs on every workload."""
    probe_shape = replace(
        shape,
        statistics=ALL_STATISTICS,
        requests=len(ALL_STATISTICS),
        requests_span_datasets=True,
    )
    doc = payload_doc(probe_shape, 0)
    doc["output"] = {"bucket": "probe", "prefix": ""}
    return doc


def payload_file(p: int) -> str:
    return f"p{p:02d}.json"


def write_root(root: Path, seed: int, shape: Shape) -> Dict[str, str]:
    """Write a fresh root and return dataset name -> sha256 of its bytes."""
    (root / "store").mkdir(parents=True)
    (root / "payloads").mkdir()
    hashes = {}
    for i in range(shape.datasets):
        data = dataset_bytes(seed, shape, i)
        (root / "store" / f"{dataset_name(i)}.csv").write_bytes(data)
        hashes[dataset_name(i)] = hashlib.sha256(data).hexdigest()
    for p in range(shape.payloads):
        (root / "payloads" / payload_file(p)).write_text(
            json.dumps(payload_doc(shape, p), indent=2) + "\n", encoding="utf-8"
        )
    (root / "probe.json").write_text(
        json.dumps(probe_doc(shape), indent=2) + "\n", encoding="utf-8"
    )
    return hashes
