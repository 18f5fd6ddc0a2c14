"""Spans around the package's public functions, recorded from outside.

The package has no instrumentation of its own, so the benchmark wraps
the names callers look up: ``runner.load_csv`` and ``dataset.load_csv``
are both the dataset layer's parser, reached through two modules, and
each gets the same span name. Wrappers are installed only for a traced
iteration and removed after it, so untraced iterations run the original
functions with no added cost. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. The process is single-threaded, so spans nest strictly.
"""

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from a4l_analytics import cli, dataset, orchestrator, runner
from a4l_analytics.stats import _backend, welch


def _rows_and_version(args, kwargs, result):
    return (result.row_count, result.version)


def _hashed_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _staged_bytes(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result.staged.values())


def _written_bytes(args, kwargs, result):
    results_root = args[2]
    return os.path.getsize(os.path.join(results_root, *result.as_path().split("/")))


def _selected_count(args, kwargs, result):
    return len(result[0])


# (owner, attribute, span name, measure). The owner is the namespace the
# caller looks the name up in; a measure turns (args, kwargs, result)
# into the span's amount (rows, bytes, payloads). ``sha256_file`` is
# wrapped only where the orchestrator looks it up, so its figures are the
# store scan's hashing; the hash ``load_csv`` takes of each file it parses
# stays inside the ``dataset.load_csv`` span.
TARGETS = (
    (orchestrator, "run_cycle", "orchestrator.run_cycle", None),
    (orchestrator.CycleLock, "acquire", "orchestrator.lock", None),
    (orchestrator.CycleLock, "release", "orchestrator.lock", None),
    (orchestrator, "scan_store", "orchestrator.scan_store", None),
    (orchestrator, "sha256_file", "dataset.sha256_file", _hashed_bytes),
    (orchestrator, "sync_warehouse", "orchestrator.sync_warehouse", None),
    (orchestrator, "select_affected_payloads", "orchestrator.select_affected_payloads", _selected_count),
    (orchestrator, "parse_payload", "payload.parse_payload", None),
    (orchestrator, "run_payload_file", "orchestrator.run_payload_file", None),
    (orchestrator, "validate_payload", "payload.validate_payload", None),
    (orchestrator, "fetch_to_staging", "dataset.fetch_to_staging", _staged_bytes),
    (orchestrator, "execute_payload", "runner.execute_payload", None),
    (orchestrator, "write_result", "runner.write_result", _written_bytes),
    (dataset.Warehouse, "column_catalog", "dataset.column_catalog", None),
    (dataset, "load_csv", "dataset.load_csv", _rows_and_version),
    (runner, "load_csv", "dataset.load_csv", _rows_and_version),
    (runner, "split_groups", "runner.split_groups", None),
    (runner, "welch_ttest", "stats.welch_ttest", None),
    (runner, "welch_power", "stats.welch_power", None),
    (runner, "mann_whitney_u", "stats.mann_whitney_u", None),
    (runner, "contingency", "stats.contingency", None),
    (runner, "descriptives", "stats.descriptives", None),
    (welch, "student_t_quantile", "stats.student_t_quantile", None),
    (welch, "noncentral_t_cdf", "stats.noncentral_t_cdf", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "parse_payload", "payload.parse_payload", None),
    (cli, "validate_payload", "payload.validate_payload", None),
    (cli, "fetch_to_staging", "dataset.fetch_to_staging", _staged_bytes),
    (cli, "execute_payload", "runner.execute_payload", None),
    (cli, "write_result", "runner.write_result", _written_bytes),
)

# Called tens of times per quantile, so only counted: a span each would
# cost more than the call it measures.
COUNTED = ((_backend.kernels, "student_t_cdf", "stats.student_t_cdf"),)


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "amount")

    def __init__(self, name, op, start, parent):
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.parent = parent
        self.amount = None

    def to_list(self) -> list:
        return [self.name, self.op, self.start, self.end - self.start, self.parent, self.amount]


class Tracer:
    """Collects spans and call counts for one benchmark run.

    ``operation(label)`` marks which benchmark operation (working cycle,
    ``a4l run``, idle cycle) the spans that follow belong to.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self.ops: List[tuple] = []  # (iteration, label)
        self._originals: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, measure) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._op, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.amount = measure(args, kwargs, result)
            return result

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self._op, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in TARGETS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))
        for owner, attr, name in COUNTED:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._count(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def operation(self, iteration: int, label: str):
        self.ops.append((iteration, label))
        self._op = len(self.ops) - 1
        try:
            yield
        finally:
            self._op = None

    def self_times(self) -> List[int]:
        """Self time in ns of every span, in span order."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# Layers whose self time each operation reports; a layer the operation
# never enters is left out rather than reported as a constant zero.
SCOPED_LAYERS = {
    "cycle": ("orchestrator", "dataset", "payload", "runner", "stats"),
    "run": ("cli", "dataset", "payload", "runner", "stats"),
    "idle": ("orchestrator", "dataset", "payload"),
}


def summarize(tracer: Tracer, iteration: int) -> Dict[str, float]:
    """Per-layer figures of one traced iteration.

    Totals cover every operation of the iteration (working cycle,
    ``a4l run`` and idle cycles), as the per-layer table pairs each layer
    with the end-to-end metrics it moves. ``cycle.``, ``run.`` and
    ``idle.`` figures split self time by package layer within one
    operation; ``idle.`` figures are per idle cycle.
    """
    ops = {i for i, (it, _) in enumerate(tracer.ops) if it == iteration}
    labels = {i: tracer.ops[i][1] for i in ops}
    own = tracer.self_times()
    calls: Counter = Counter()
    total: Counter = Counter()
    self_ns: Counter = Counter()
    amount: Counter = Counter()
    versions: List[str] = []
    layer_self: Dict[str, Counter] = defaultdict(Counter)
    for s, s_own in zip(tracer.spans, own):
        if s.op not in ops:
            continue
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_ns[s.name] += s_own
        layer_self[labels[s.op]][s.name.split(".", 1)[0]] += s_own
        if s.name == "dataset.load_csv":
            amount[s.name] += s.amount[0]
            versions.append(s.amount[1])
        elif s.amount is not None:
            amount[s.name] += s.amount
    for (op, name), n in tracer.counts.items():
        if op in ops:
            calls[name] += n

    def sec(ns):
        return ns / 1e9

    out = {
        "dataset.load_csv.calls": calls["dataset.load_csv"],
        "dataset.load_csv.rows": amount["dataset.load_csv"],
        "dataset.load_csv.s": sec(total["dataset.load_csv"]),
        "dataset.load_csv.distinct_ratio": len(set(versions)) / max(1, len(versions)),
        "dataset.column_catalog.calls": calls["dataset.column_catalog"],
        "dataset.column_catalog.self_s": sec(self_ns["dataset.column_catalog"]),
        "runner.split_groups.calls": calls["runner.split_groups"],
        "runner.split_groups.s": sec(total["runner.split_groups"]),
        "runner.execute_payload.self_s": sec(self_ns["runner.execute_payload"]),
    }
    for stat in ("welch_ttest", "welch_power", "mann_whitney_u", "contingency", "descriptives", "student_t_quantile"):
        out[f"stats.{stat}.calls"] = calls[f"stats.{stat}"]
        out[f"stats.{stat}.s"] = sec(total[f"stats.{stat}"])
    out["stats.student_t_cdf.calls"] = calls["stats.student_t_cdf"]
    out["stats.noncentral_t_cdf.calls"] = calls["stats.noncentral_t_cdf"]
    out["stats.noncentral_t_cdf.s"] = sec(total["stats.noncentral_t_cdf"])
    out.update(
        {
            "orchestrator.scan_store.s": sec(total["orchestrator.scan_store"]),
            "dataset.sha256_file.calls": calls["dataset.sha256_file"],
            "dataset.sha256_file.bytes": amount["dataset.sha256_file"],
            "dataset.sha256_file.s": sec(total["dataset.sha256_file"]),
            "orchestrator.select_affected_payloads.s": sec(total["orchestrator.select_affected_payloads"]),
            "payload.parse_payload.calls": calls["payload.parse_payload"],
            "payload.parse_payload.s": sec(total["payload.parse_payload"]),
            "orchestrator.lock.s": sec(total["orchestrator.lock"]),
            "orchestrator.sync_warehouse.s": sec(total["orchestrator.sync_warehouse"]),
            "dataset.fetch_to_staging.s": sec(total["dataset.fetch_to_staging"]),
            "dataset.fetch_to_staging.bytes": amount["dataset.fetch_to_staging"],
            "runner.write_result.calls": calls["runner.write_result"],
            "runner.write_result.bytes": amount["runner.write_result"],
            "runner.write_result.s": sec(total["runner.write_result"]),
            "orchestrator.payloads_selected": amount["orchestrator.select_affected_payloads"],
            "payload.validate_payload.s": sec(total["payload.validate_payload"]),
            "orchestrator.run_payload_file.self_s": sec(self_ns["orchestrator.run_payload_file"]),
        }
    )
    idle_cycles = max(1, sum(1 for i in ops if labels[i] == "idle"))
    for label, layers in SCOPED_LAYERS.items():
        scale = idle_cycles if label == "idle" else 1
        for layer in layers:
            out[f"{label}.{layer}.self_s"] = sec(layer_self[label][layer]) / scale
    return out


def span_dump(tracer: Tracer) -> dict:
    return {
        "ops": [list(op) for op in tracer.ops],
        "spans": [s.to_list() for s in tracer.spans],
        "fields": ["name", "op", "start_ns", "duration_ns", "parent", "amount"],
    }
