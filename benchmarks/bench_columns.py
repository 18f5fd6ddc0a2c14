#!/usr/bin/env python3
"""Benchmark: load, decode and store of one dataset version's column file,
and the text of the documents a run writes from it.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_columns.py

The dataset is one version of the shape of perfbench's ``cold_wide``
workload (4,000 rows; a boolean group column, 8 numeric and 2
categorical columns), generated by ``perfbench/generator.py`` at seed 1
and parsed once. The ``a4l run`` probe of that shape (every statistic
over the group column) is executed on it once, so its column file holds
the probe's result entries, their texts and the group column's labels,
as after a cycle. Each case reports the best of five repeats:

- ``load``: ``_load_columns`` of the file: the outer object decoded and
  the entries blob checked against its crc32 and decoded; no column's
  blob is checksummed or decoded;
- ``decode <column>``: the first read of one stored column's cells, its
  crc32 check included, for the group column and one numeric column;
- ``store parsed``: ``_store_columns`` of the parsed dataset, which
  encodes every column's cells;
- ``store loaded``: ``_store_columns`` of the loaded dataset, which
  writes each column back as the blob it was read as;
- ``documents, stored texts``: the text of each probe document as
  ``write_result`` makes it, one shell encoded per document and each
  entry's stored text spliced in;
- ``documents, json.dumps``: the same texts from
  ``json.dumps(..., indent=2)`` of each document, every entry encoded.

Both store cases include the file's atomic write to a temporary
directory; the document cases write no file.
"""

import importlib.util
import json
import tempfile
import timeit
from pathlib import Path

from a4l_analytics.dataset import (
    ENTRIES,
    Column,
    DatasetCache,
    StagedRun,
    _load_columns,
    _store_columns,
    load_csv,
)
from a4l_analytics.payload import parse_payload
from a4l_analytics.runner import document_text, execute_payload

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
    dependents=8,
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
        name = generator.dataset_name(0)
        csv_path = Path(tmp) / f"{name}.csv"
        csv_path.write_bytes(generator.dataset_bytes(1, SHAPE, 0))
        parsed = load_csv(csv_path)
        target = Path(tmp) / "columns" / f"{parsed.version}.marshal"

        payload = parse_payload(json.dumps(generator.probe_doc(SHAPE)))
        staged = StagedRun("bench", {name: csv_path}, {name: parsed.version})
        with DatasetCache() as cache:
            documents = execute_payload(payload, staged, cache)

        def load():
            return _load_columns(target, name, parsed.version, None)

        def decode(col):
            # a fresh stored column each call, so each read checks and decodes
            return lambda: Column.stored(col.name, col.kind, col.crc, col.blob, rows, None).cells

        loaded, rows = load(), parsed.row_count
        entries = len(loaded.views[ENTRIES])
        cases = [
            ("load", load),
            *(
                (f"decode {column}", decode(loaded.column(column)))
                for column in (generator.GROUP, generator.numeric_names(SHAPE)[0])
            ),
            ("store parsed", lambda: _store_columns(target, parsed, {}, {})),
            ("store loaded", lambda: _store_columns(target, loaded, {}, {})),
            ("documents, stored texts", lambda: [document_text(d) for d in documents]),
            (
                "documents, json.dumps",
                lambda: [json.dumps(d.to_dict(), indent=2) + "\n" for d in documents],
            ),
        ]
        print(
            f"column file: {target.stat().st_size:,} bytes, "
            f"{rows} rows, {len(parsed.columns)} columns, {entries} entries, "
            f"{len(documents)} documents"
        )
        width = max(len(case) for case, _ in cases)
        print(f"{'case':<{width}}  {'ms/call':>9}")
        for case, call in cases:
            print(f"{case:<{width}}  {time_call(call) * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
