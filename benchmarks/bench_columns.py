#!/usr/bin/env python3
"""Benchmark: load, decode and store of one dataset version's column file.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_columns.py

The dataset is one version of the shape of perfbench's ``cold_wide``
workload (4,000 rows; a boolean group column, 8 numeric and 2
categorical columns), generated by ``perfbench/generator.py`` at seed 1
and parsed once. Each case reports the best of five repeats:

- ``load``: ``_load_columns`` of the file: the outer object decoded and
  each column's blob checked against its crc32, no cell decoded;
- ``decode <column>``: the first read of one stored column's cells, for
  the group column and one numeric column;
- ``store parsed``: ``_store_columns`` of the parsed dataset, which
  encodes every column's cells;
- ``store loaded``: ``_store_columns`` of the loaded dataset, which
  writes each column back as the blob it was read as.

Both store cases include the file's atomic write to a temporary
directory.
"""

import importlib.util
import tempfile
import timeit
from pathlib import Path

from a4l_analytics.dataset import Column, _load_columns, _store_columns, load_csv

_spec = importlib.util.spec_from_file_location(
    "perfbench_generator", Path(__file__).resolve().parent.parent / "perfbench" / "generator.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

# perfbench's cold_wide shape; only the columns and rows matter here
SHAPE = generator.Shape(
    datasets=1,
    rows=4000,
    numeric=8,
    categorical=2,
    payloads=1,
    requests=1,
    dependents=1,
    statistics=generator.ALL_STATISTICS,
    missing_rate=0.03,
    rounding=1,
    requests_span_datasets=True,
)


def time_call(fn, repeats=5, number=50):
    best = min(timeit.repeat(fn, repeat=repeats, number=number))
    return best / number


def main():
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "ds00.csv"
        csv_path.write_bytes(generator.dataset_bytes(1, SHAPE, 0))
        parsed = load_csv(csv_path)
        target = Path(tmp) / "columns" / f"{parsed.version}.marshal"
        _store_columns(target, parsed, {})

        def load():
            return _load_columns(target, "ds00", parsed.version)

        def decode(col):
            # a fresh stored column each call, so each read decodes
            return lambda: Column.stored(col.name, col.kind, col.blob, rows).cells

        loaded, rows = load(), parsed.row_count
        cases = [
            ("load", load),
            *(
                (f"decode {name}", decode(loaded.column(name)))
                for name in (generator.GROUP, generator.numeric_names(SHAPE)[0])
            ),
            ("store parsed", lambda: _store_columns(target, parsed, {})),
            ("store loaded", lambda: _store_columns(target, loaded, {})),
        ]
        print(
            f"column file: {target.stat().st_size:,} bytes, "
            f"{rows} rows, {len(parsed.columns)} columns"
        )
        width = max(len(name) for name, _ in cases)
        print(f"{'case':<{width}}  {'ms/call':>9}")
        for name, call in cases:
            print(f"{name:<{width}}  {time_call(call) * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
