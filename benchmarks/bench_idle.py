#!/usr/bin/env python3
"""Benchmark: the idle sync cycle as the payload registry grows.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_idle.py [--payloads 32 256 ...] [--cycles N]

For each payload count P (32, 256, 1,024 and 4,096 by default) the
script writes a root with ``perfbench/generator.py`` (16 datasets of 200
rows, in the column shape of perfbench's ``daily_update`` workload, and
P payload files, each reading one dataset), syncs it and runs one more
cycle, so that the registry record holds a stat witness for every input
file. It then times idle cycles, ``run_cycle`` called in this process,
and prints the median and the quartiles in milliseconds, with the size
of ``warehouse/reconcile.json``. An idle cycle reads no store or payload
file, so its cost is the stat of each input, the load of the record and
of the manifest, and the line appended to the day's idle log.

Each payload holds one request: an idle cycle parses no payload, so the
request count changes only how long the first sync takes.
"""

import argparse
import importlib.util
import statistics
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from a4l_analytics.orchestrator import run_cycle

_spec = importlib.util.spec_from_file_location(
    "perfbench_generator", Path(__file__).resolve().parent.parent / "perfbench" / "generator.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

# perfbench's daily_update columns, with D and R fixed and P varied
SHAPE = generator.Shape(
    datasets=16,
    rows=200,
    numeric=8,
    categorical=2,
    payloads=32,
    requests=1,
    dependents=3,
    statistics=generator.ALL_STATISTICS,
    missing_rate=0.03,
    rounding=1,
    requests_span_datasets=False,
)


def settled_root(root: Path, payloads: int) -> None:
    """Write and sync a root of ``payloads`` payload files, then run
    cycles until one is idle and writes no record."""
    generator.write_root(root, 1, replace(SHAPE, payloads=payloads))
    report = run_cycle(root)
    assert report.all_ok() and len(report.selected_payloads) == payloads, "cold sync failed"
    record = root / "warehouse" / "reconcile.json"
    while True:
        before = record.stat().st_mtime_ns
        report = run_cycle(root)
        assert not report.updated and not report.run_outcomes, "cycle after sync not idle"
        if record.stat().st_mtime_ns == before:
            return


def idle_cycles(root: Path, cycles: int) -> list:
    """Wall seconds of each of ``cycles`` idle cycles."""
    times = []
    for _ in range(cycles):
        start = time.perf_counter()
        report = run_cycle(root)
        times.append(time.perf_counter() - start)
        assert not report.updated and not report.run_outcomes, "cycle not idle"
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--payloads", type=int, nargs="+", default=[32, 256, 1024, 4096])
    parser.add_argument("--cycles", type=int, default=50, help="idle cycles timed per P")
    args = parser.parse_args()
    print(f"{'P':>6}  {'record KB':>9}  {'median ms':>9}  {'quartiles ms':>15}")
    for payloads in args.payloads:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            settled_root(root, payloads)
            idle_cycles(root, 3)  # warm the caches
            times = idle_cycles(root, args.cycles)
            size = (root / "warehouse" / "reconcile.json").stat().st_size
        q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(
            f"{payloads:>6}  {size / 1024:>9.0f}  {median * 1e3:>9.3f}  "
            f"{q1 * 1e3:>7.3f}-{q3 * 1e3:<7.3f}"
        )


if __name__ == "__main__":
    main()
