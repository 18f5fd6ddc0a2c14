#!/usr/bin/env python3
"""Pipeline benchmark: times the scheduled sync cycle and ``a4l run``.

    python3 perfbench/run.py --workload cold_wide --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop caller: each call into the
package starts only after the previous one returned. An iteration is a
working cycle (``orchestrator.run_cycle``), then ``a4l run`` on a fixed
payload (``cli.main([..., "run", ...])``), then idle cycles in which
nothing changed. Iterations repeat until ``--seconds`` have passed.

With ``--trace 0`` the last line of output reports the end-to-end
metrics, times rescaled to the machine speed at which the fixed task in
``reference.py``, timed between operations, takes its nominal time.
With ``--trace 1`` every other iteration runs with spans around the
package's functions and the last line reports per-layer figures.
After the loop, outside the timed region, the oracle recomputes every
result from the generator's data; any disagreement, missing document,
raised cycle or non-ok payload makes the run fail with exit code 1.
A record of the run, with its environment, goes to ``.perfbench_runs/``.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

import generator  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from generator import ALL_STATISTICS, Shape  # noqa: E402

IDLE_PER_ITERATION = 10
# Every set-up includes a full first sync, which takes most of a second
# or more, so three give a median within the run's time budget.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    shape: Shape
    # "cold": every iteration syncs a fresh copy of the generated root.
    # "update": one root synced during setup; every iteration rewrites
    # one store dataset, so the cycle re-runs only its payloads.
    kind: str
    why: str


# Sizes keep a working iteration well under a second or two, so a
# 30-second run holds enough cycles for a median and a tail.
WORKLOADS = {
    "cold_wide": Workload(
        Shape(
            datasets=4,
            rows=4000,
            numeric=8,
            categorical=2,
            payloads=2,
            requests=5,
            dependents=8,
            statistics=ALL_STATISTICS,
            missing_rate=0.03,
            rounding=1,
            requests_span_datasets=True,
        ),
        "cold",
        "cold sync of wide datasets and payloads over all five statistics: bound by CSV parsing",
    ),
    "power_small": Workload(
        Shape(
            datasets=2,
            rows=300,
            numeric=12,
            categorical=1,
            payloads=16,
            requests=2,
            dependents=12,
            statistics=("get_welch_power",),
            missing_rate=0.03,
            rounding=2,
            requests_span_datasets=True,
        ),
        "cold",
        "cold sync of small datasets where every request is post-hoc power: bound by the t quantile",
    ),
    "daily_update": Workload(
        Shape(
            datasets=16,
            rows=1000,
            numeric=8,
            categorical=2,
            payloads=32,
            requests=5,
            dependents=3,
            statistics=ALL_STATISTICS,
            missing_rate=0.03,
            rounding=1,
            requests_span_datasets=False,
        ),
        "update",
        "synced root where one dataset changes per cycle: hashing, archive, selective re-run, idle",
    ),
}


class Failures:
    """Counts attempted and failed operations, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 50:
                self.reasons.append(reason)

    def add(self, checked: int, problems: List[str]) -> None:
        self.attempted += checked
        self.failed += len(problems)
        self.reasons.extend(problems[: max(0, 50 - len(self.reasons))])


def tail(samples: List[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    k = n - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": 10}


def git_commit() -> str:
    """HEAD's commit from the .git directory, read without starting git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload: Workload) -> dict:
    from a4l_analytics.stats import kernel_backend

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "shape": workload.shape.to_dict(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One run of one workload."""

    def __init__(self, args, workload: Workload, work: Path):
        self.args = args
        self.workload = workload
        self.shape = workload.shape
        self.work = work
        self.failures = Failures()
        self.ledger = oracle.ResultLedger()
        self.docs = [generator.payload_doc(self.shape, p) for p in range(self.shape.payloads)]
        self.probe = generator.probe_doc(self.shape)
        self.expected = oracle.expected_documents(self.docs + [self.probe])
        self.variant = [0] * self.shape.datasets
        # Wall times, and the same times rescaled to nominal speed.
        self.samples: Dict[str, List[float]] = {
            "cycle": [],
            "run": [],
            "idle": [],
            "setup": [],
            "reference": [],
            "traced_cycle": [],
        }
        self.nominal: Dict[str, List[float]] = {
            kind: [] for kind in self.samples if kind != "reference"
        }
        self.dependents: List[int] = []
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer()
        self.layer_rows: List[dict] = []
        self.hashes: Dict[str, str] = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> Path:
        """Build the root the timed loop starts from, several times.

        A set-up is root generation plus the first sync of that root, on
        every workload, so that work the package moves into its first
        cycle shows in ``setup_s``. Cold iterations copy only the inputs
        (store, registry, probe) of the synced root.
        """
        from a4l_analytics import orchestrator

        root = None
        for i in range(SETUP_REPEATS):
            if root is not None:
                shutil.rmtree(root)
            root = self.work / f"setup{i}"
            before = reference.timed()
            start = time.perf_counter()
            self.hashes = generator.write_root(root, self.args.seed, self.shape)
            report = orchestrator.run_cycle(root)
            setup_s = time.perf_counter() - start
            self._record([before, reference.timed()], setup=[setup_s])
            self._check_report(report, set(self.hashes), range(self.shape.payloads))
        if self.workload.kind == "update":
            self.variant_bytes = [
                generator.dataset_bytes(self.args.seed, self.shape, i, 1)
                for i in range(self.shape.datasets)
            ]
            self.base_bytes = [
                (root / "store" / f"{generator.dataset_name(i)}.csv").read_bytes()
                for i in range(self.shape.datasets)
            ]
        return root

    def _record(self, refs: List[float], **walls: List[float]) -> None:
        """Keep wall times, and rescale them by the reference samples
        taken around them: the host's speed drifts within a run, so a
        factor taken over the whole run misstates single operations."""
        self.samples["reference"].extend(refs)
        scale = reference.speed_factor(refs)
        for kind, values in walls.items():
            self.samples[kind].extend(values)
            self.nominal[kind].extend(v * scale for v in values)

    # -- checks -----------------------------------------------------------

    def _check_report(self, report, updated: set, payloads) -> None:
        want = sorted(generator.payload_file(p) for p in payloads)
        got_updated = {u.dataset for u in report.updated}
        self.failures.record(
            got_updated == updated, f"cycle updated {sorted(got_updated)}, expected {sorted(updated)}"
        )
        self.failures.record(
            report.selected_payloads == want,
            f"cycle selected {report.selected_payloads}, expected {want}",
        )
        for outcome in report.run_outcomes:
            self.failures.record(
                outcome.status == "ok", f"{outcome.payload_file}: {outcome.status} {outcome.detail}"
            )

    def _payloads_of(self, index: int) -> List[int]:
        name = generator.dataset_name(index)
        return [
            p for p, doc in enumerate(self.docs) if any(r["dataset"] == name for r in doc["analyses"])
        ]

    # -- the timed operations --------------------------------------------

    def _timed(self, traced: bool, iteration: int, label: str, call):
        """(result, seconds) of one call; a raised exception is a counted
        failure and gives a None result."""
        op = self.tracer.operation(iteration, label) if traced else contextlib.nullcontext()
        with op:
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:
                self.failures.record(False, f"{label} raised {type(exc).__name__}: {exc}")
                result = None
            return result, time.perf_counter() - start

    def iteration(self, template: Path, i: int, traced: bool) -> None:
        from a4l_analytics import cli, orchestrator

        if self.workload.kind == "cold":
            root = self.work / "cold"
            if root.exists():
                shutil.rmtree(root)
            # Hard links: the program only reads store and payload files,
            # and the benchmark's own copying would add write-back noise.
            for inputs in ("store", "payloads"):
                shutil.copytree(template / inputs, root / inputs, copy_function=os.link)
            os.link(template / "probe.json", root / "probe.json")
            changed = set(self.hashes)
            payloads = range(self.shape.payloads)
        else:
            root = template
            index = i % self.shape.datasets
            self.variant[index] ^= 1
            data = (self.variant_bytes if self.variant[index] else self.base_bytes)[index]
            (root / "store" / f"{generator.dataset_name(index)}.csv").write_bytes(data)
            changed = {generator.dataset_name(index)}
            payloads = self._payloads_of(index)

        def cycle():
            return orchestrator.run_cycle(root)

        sink = io.StringIO()

        def run():
            with contextlib.redirect_stdout(sink):
                return cli.main(["--root", str(root), "run", str(root / "probe.json")])

        if traced:
            self.tracer.install()
        ref: List[float] = []
        try:
            ref.append(reference.timed())
            report, cycle_s = self._timed(traced, i, "cycle", cycle)
            ref.append(reference.timed())
            code, run_s = self._timed(traced, i, "run", run)
            ref.append(reference.timed())
            idle = [self._timed(traced, i, "idle", cycle) for _ in range(IDLE_PER_ITERATION)]
            ref.append(reference.timed())
        finally:
            if traced:
                self.tracer.uninstall()

        if report is not None:
            self._check_report(report, changed, payloads)
        if code is not None:
            self.failures.record(code == 0, f"a4l run exited {code}: {sink.getvalue()[-300:]}")
        for idle_report, _ in idle:
            if idle_report is not None:
                self._check_report(idle_report, set(), [])
        self.failures.add(len(self.expected), self.ledger.observe(root / "results", self.expected))

        if traced:
            from tracing import summarize

            self._record(ref, traced_cycle=[cycle_s])
            self.layer_rows.append(summarize(self.tracer, i))
            return
        self._record(ref, cycle=[cycle_s], run=[run_s], idle=[s for _, s in idle])
        self.dependents.append(
            sum(len(r["dependent"]) for p in payloads for r in self.docs[p]["analyses"])
        )

    def measure(self, template: Path) -> Path:
        """Iterate until the time is up; returns the root last worked on.

        A traced run alternates untraced and traced iterations and runs
        at least one of each.
        """
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while True:
            self.iteration(template, i, traced=bool(self.args.trace) and i % 2 == 1)
            i += 1
            if time.perf_counter() >= deadline and (not self.args.trace or i >= 2):
                break
        return self.work / "cold" if self.workload.kind == "cold" else template

    # -- after the timed region ------------------------------------------

    def verify(self, root: Path) -> None:
        """Recompute every result of the final tree from generator data."""
        columns, sha_of = {}, {}
        for i in range(self.shape.datasets):
            name = generator.dataset_name(i)
            variant = self.variant[i]
            columns[name] = generator.dataset_columns(self.args.seed, self.shape, i, variant)
            data = (root / "store" / f"{name}.csv").read_bytes()
            self.failures.record(
                data == generator.render_csv(columns[name]),
                f"{name}: store bytes differ from the generator's",
            )
            sha_of[name] = hashlib.sha256(data).hexdigest()
        checked, problems = oracle.check_tree(root / "results", self.expected, columns, sha_of)
        self.failures.add(checked, problems)


def times(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Medians, and the cycle tail, of wall or nominal-speed samples."""
    return {
        "cycle_s": median(samples["cycle"]),
        "cycle_tail_s": tail(samples["cycle"])["value"],
        "idle_cycle_s": median(samples["idle"]),
        "run_s": median(samples["run"]),
        "setup_s": median(samples["setup"]),
    }


def end_to_end(bench: Bench, peak_rss_mb: float) -> Dict[str, dict]:
    """Times at the reference task's nominal speed."""
    metrics = {name: {"value": t, "unit": "s"} for name, t in times(bench.nominal).items()}
    dependents = median(bench.dependents) / metrics["cycle_s"]["value"]
    metrics["dependents_per_s"] = {"value": dependents, "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    order = ("cycle_s", "cycle_tail_s", "idle_cycle_s", "run_s", "dependents_per_s", "setup_s", "peak_rss_mb")
    return {name: metrics[name] for name in order}


PER_LAYER_UNITS = {
    "calls": "count",
    "rows": "count",
    "bytes": "bytes",
    "s": "s",
    "self_s": "s",
    "distinct_ratio": "ratio",
    "payloads_selected": "count",
}


def per_layer(bench: Bench, kernel_us: Dict[str, float]) -> Dict[str, dict]:
    metrics = {}
    for name in bench.layer_rows[0]:
        unit = PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = {"value": median([row[name] for row in bench.layer_rows]), "unit": unit}
    # Wall time, like the span figures it is the sum of; the overhead
    # compares nominal-speed times, as the iterations ran at different speeds.
    metrics["trace.cycle_s"] = {"value": median(bench.samples["traced_cycle"]), "unit": "s"}
    ratio = median(bench.nominal["traced_cycle"]) / median(bench.nominal["cycle"])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (ratio - 1.0), "unit": "%"}
    for case, us in kernel_us.items():
        metrics[f"stats.kernel.{case}_us"] = {"value": us, "unit": "us"}
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(metrics: Dict[str, dict], notes: Dict[str, str]) -> None:
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "a4l_analytics" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    records = CHECKOUT / ".perfbench_runs"
    work.mkdir(parents=True)
    records.mkdir(exist_ok=True)
    # The package stages runs through tempfile; keep those files in the checkout.
    (work / "tmp").mkdir()
    tempfile.tempdir = str(work / "tmp")
    try:
        bench = Bench(args, workload, work)
        env = environment(args, workload)
        template = bench.setup()
        final_root = bench.measure(template)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        kernel_us, compiled_us = {}, None
        if args.trace:
            import kernels
            from a4l_analytics.stats import _backend

            kernel_us = kernels.time_kernels(_backend.kernels)
            compiled = kernels.compiled_module()
            if compiled is not None and compiled is not _backend.kernels:
                compiled_us = kernels.time_kernels(compiled)

        bench.verify(final_root)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    e2e = end_to_end(bench, peak_rss_mb)
    wall = times(bench.samples)
    t = tail(bench.nominal["cycle"])
    counts = {
        "cycle_tail_s": f"p{t['percentile']:.0f} of {t['samples']} cycles, {t['beyond']} beyond",
        "cycle_s": f"median of {len(bench.samples['cycle'])} cycles",
        "idle_cycle_s": f"median of {len(bench.samples['idle'])} idle cycles",
        "run_s": f"median of {len(bench.samples['run'])} runs",
        "setup_s": f"median of {len(bench.samples['setup'])} set-ups",
    }
    notes = {name: f"wall {wall[name]:.6g} s, {count}" for name, count in counts.items()}
    failed_ratio = bench.failures.failed / max(1, bench.failures.attempted)
    correct = bench.failures.failed == 0
    metrics = per_layer(bench, kernel_us) if args.trace else e2e

    print(f"workload {args.workload}  seed {args.seed}  backend {env['kernel_backend']}  "
          f"python {env['python']}  nproc {env['nproc']}  commit {env['git_commit'][:12]}")
    print(f"times at nominal speed: each operation's wall time x nominal / reference task "
          f"timed around it (run median {median(bench.samples['reference']) * 1e3:.3f} ms, "
          f"nominal {reference.NOMINAL_S * 1e3:.3f} ms)")
    print_table(e2e, notes)
    print(f"  {'failed_ratio':<16}  {failed_ratio:>14.6g} ratio  "
          f"{bench.failures.failed} of {bench.failures.attempted} operations")
    for reason in bench.failures.reasons[:20]:
        print(f"  FAILED: {reason}")
    if args.trace:
        print("per layer (median per traced iteration):")
        print_table(metrics, {})
        if compiled_us:
            print("compiled kernels:")
            print_table({k: {"value": v, "unit": "us"} for k, v in compiled_us.items()}, {})

    record = {
        "environment": env,
        "dataset_sha256": bench.hashes,
        "end_to_end": e2e,
        "wall_s": wall,
        "cycle_tail": t,
        "samples": bench.samples,
        "nominal_samples": bench.nominal,
        "failed_ratio": failed_ratio,
        "attempted": bench.failures.attempted,
        "failed": bench.failures.failed,
        "failures": bench.failures.reasons,
        "per_layer": metrics if args.trace else None,
        "compiled_kernels_us": compiled_us,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        from tracing import span_dump

        with gzip.open(records / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(span_dump(bench.tracer), fh)

    print(json.dumps({
        "correct": correct,
        "attempted": bench.failures.attempted,
        "failed": bench.failures.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
