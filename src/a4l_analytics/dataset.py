"""Typed columnar datasets, the local warehouse, and run staging.

Datasets are RFC 4180 CSV files with a header row. Column kinds are
inferred deterministically (numeric, then boolean, then categorical) and
the empty string is a missing cell. Dataset identity is the SHA-256 of
the file bytes, so change detection never relies on timestamps.
"""

import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import DatasetError, ManifestError, UnknownDatasetError

KIND_NUMERIC = "numeric"
KIND_BOOLEAN = "boolean"
KIND_CATEGORICAL = "categorical"

_BOOL_TOKENS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
    "yes": True,
    "no": False,
}


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    cells: tuple

    def present(self) -> list:
        return [c for c in self.cells if c is not None]

    def rendered(self) -> List[Optional[str]]:
        """Cells as strings (booleans become 'true'/'false')."""
        out: List[Optional[str]] = []
        for c in self.cells:
            if c is None:
                out.append(None)
            elif self.kind == KIND_BOOLEAN:
                out.append("true" if c else "false")
            else:
                out.append(str(c))
        return out


@dataclass(frozen=True)
class TabularDataset:
    name: str
    version: str
    columns: tuple
    row_count: int

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise UnknownDatasetError(f"dataset {self.name!r} has no column {name!r}")

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def kinds(self) -> Dict[str, str]:
        return {c.name: c.kind for c in self.columns}


def sha256_file(path: Union[str, Path]) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _infer_kind(values: Iterable[str]) -> str:
    values = [v for v in values if v != ""]
    if values and all(_is_finite_number(v) for v in values):
        return KIND_NUMERIC
    if values and all(v.lower() in _BOOL_TOKENS for v in values):
        return KIND_BOOLEAN
    return KIND_CATEGORICAL


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _convert(raw: str, kind: str):
    if raw == "":
        return None
    if kind == KIND_NUMERIC:
        return float(raw)
    if kind == KIND_BOOLEAN:
        return _BOOL_TOKENS[raw.lower()]
    return raw


def _read_rows(path: Path, data: bytes) -> Tuple[List[str], List[List[str]]]:
    """The header and the rows of CSV bytes, with every structural check."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        if header == [] or all(h == "" for h in header):
            raise DatasetError(f"{path}: empty header row")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DatasetError(f"{path}: duplicate header names {dupes}")
        if any(h == "" for h in header):
            raise DatasetError(f"{path}: empty column name in header")

        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: ragged row at line {reader.line_num}, "
                    f"expected {len(header)} fields, got {len(row)}"
                )
            rows.append(row)
    return header, rows


def load_csv(path: Union[str, Path], name: Optional[str] = None) -> TabularDataset:
    """Load a CSV file into a typed columnar dataset.

    Deterministic: the same bytes always produce the same dataset,
    including inferred column kinds. The file is read once; its version
    is the SHA-256 of exactly the bytes that were parsed.
    """
    path = Path(path)
    dataset_name = name if name is not None else path.stem
    data = path.read_bytes()

    try:
        header, rows = _read_rows(path, data)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: unreadable CSV: {exc}") from exc

    columns = []
    for i, col_name in enumerate(header):
        raw = [row[i] for row in rows]
        kind = _infer_kind(raw)
        cells = tuple(_convert(v, kind) for v in raw)
        columns.append(Column(name=col_name, kind=kind, cells=cells))

    return TabularDataset(
        name=dataset_name,
        version=hashlib.sha256(data).hexdigest(),
        columns=tuple(columns),
        row_count=len(rows),
    )


class DatasetCache:
    """Datasets parsed during one invocation, keyed by (name, sha256).

    One cache serves one cycle or one command, so validation and
    execution share a parse; it is never shared between invocations.
    The key's sha256 is the manifest's, which decides reuse only: a
    dataset's version is always the hash of the bytes it was parsed from.
    """

    def __init__(self) -> None:
        self._datasets: Dict[Tuple[str, Optional[str]], TabularDataset] = {}

    def get(
        self, name: str, sha256: Optional[str], path: Union[str, Path]
    ) -> TabularDataset:
        key = (name, sha256)
        ds = self._datasets.get(key)
        if ds is None:
            ds = self._datasets[key] = load_csv(path, name=name)
        return ds

    def retain(self, names: Iterable[str]) -> None:
        """Drop every cached dataset whose name is not in ``names``."""
        keep = set(names)
        for key in [k for k in self._datasets if k[0] not in keep]:
            del self._datasets[key]


class _ColumnCatalog(Mapping):
    """Manifest names mapped to column kinds, parsed on first lookup."""

    def __init__(self, warehouse: "Warehouse", cache: DatasetCache):
        self._warehouse = warehouse
        self._manifest = warehouse.manifest()
        self._cache = cache

    def __getitem__(self, name: str) -> Dict[str, str]:
        entry = self._manifest[name]
        path = self._warehouse.dataset_path(name)
        return self._cache.get(name, entry.get("sha256"), path).kinds()

    def __contains__(self, name) -> bool:
        return name in self._manifest

    def __iter__(self) -> Iterator[str]:
        return iter(self._manifest)

    def __len__(self) -> int:
        return len(self._manifest)


class Warehouse:
    """The local content-addressed dataset store.

    Layout under the pipeline root:
        warehouse/<name>.csv      current version of each dataset
        warehouse/manifest.json   {"<name>": {"sha256", "bytes", "updated"}}
        archive/<name>/<ts>.csv   superseded versions
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.dir = self.root / "warehouse"
        self.archive_dir = self.root / "archive"
        self.manifest_path = self.dir / "manifest.json"

    def manifest(self) -> Dict[str, dict]:
        if not self.manifest_path.exists():
            return {}
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise ManifestError(f"{self.manifest_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ManifestError(f"{self.manifest_path}: manifest must be an object")
        return data

    def write_manifest(self, entries: Dict[str, dict]) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(entries, indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=".manifest-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self.manifest_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def dataset_path(self, name: str) -> Path:
        return self.dir / f"{name}.csv"

    def load(self, name: str) -> TabularDataset:
        if name not in self.manifest():
            raise UnknownDatasetError(f"dataset {name!r} not in warehouse manifest")
        return load_csv(self.dataset_path(name), name=name)

    def column_catalog(
        self, cache: Optional[DatasetCache] = None
    ) -> Mapping[str, Dict[str, str]]:
        """Column-kind catalog for every dataset the manifest lists.

        The manifest is read now; a dataset is parsed (through ``cache``)
        only when its kinds are looked up, so a lookup can raise
        DatasetError or OSError for a broken or missing file.
        """
        return _ColumnCatalog(self, DatasetCache() if cache is None else cache)


@dataclass
class StagedRun:
    """Run-private staging directory mapping dataset names to copies.

    ``versions`` holds the manifest sha256 of each staged name. The
    directory lives for the duration of the run; use as a context
    manager (or call close) to remove it afterward.
    """

    run_id: str
    root: Path
    staged: Dict[str, Path] = field(default_factory=dict)
    versions: Dict[str, Optional[str]] = field(default_factory=dict)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "StagedRun":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def fetch_to_staging(names: Iterable[str], warehouse: Warehouse) -> StagedRun:
    """Copy the requested datasets into a fresh run-private staging area.

    Every name must already be in the warehouse manifest; after payload
    validation an unknown name here is an internal error.
    """
    manifest = warehouse.manifest()
    run_id = uuid.uuid4().hex
    staging_root = Path(tempfile.mkdtemp(prefix=f"a4l-run-{run_id[:8]}-"))
    run = StagedRun(run_id=run_id, root=staging_root)
    try:
        for name in names:
            if name not in manifest:
                raise UnknownDatasetError(
                    f"dataset {name!r} not in warehouse manifest (internal error: "
                    "payload should have been validated)"
                )
            dest = staging_root / f"{name}.csv"
            shutil.copy2(warehouse.dataset_path(name), dest)
            run.staged[name] = dest
            run.versions[name] = manifest[name].get("sha256")
    except BaseException:
        run.close()
        raise
    return run
