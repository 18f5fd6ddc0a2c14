"""Typed columnar datasets and the local warehouse.

Datasets are RFC 4180 CSV files with a header row. A file with no
quote, CR or NUL is split on newlines and commas directly, and any other
goes through ``csv.reader``; both give the same rows. Column kinds are
inferred deterministically (numeric, then boolean, then categorical) and
the empty string is a missing cell. Dataset identity is the SHA-256 of
the file bytes, so a version is never told by a timestamp; a file's stat
decides only whether its bytes must be read and hashed again (see
``orchestrator.scan_store``).

Each version is parsed once per warehouse: its typed columns are kept in
``columns/<sha256>.marshal`` beside the CSV and loaded from there after.
The same file keeps the version's result entries, each with its JSON
text, and the two labels of each column grouped by (see
``DatasetCache``), so each is computed, and each entry encoded, once per
version and package source. The file is one ``marshal`` object,
``(tag, row_count, ((name, kind, crc32, blob), ...), entries_tag,
entries_crc32, entries_blob)``, where each ``blob`` is the ``marshal``
bytes of one column's cells and ``entries_blob`` those of the entries
and labels. A load decodes the outer object and the entries blob, once
it matches its crc32, but decodes no cell and checksums no column: a
column checks its blob's crc32 and decodes it when its cells are first
read (late materialization), so a run served from stored entries decodes
no column, and neither does ``validate``. A blob that fails its check
is replaced by a parse of the version's CSV.
``marshal`` is no safer than ``pickle`` on hostile bytes; the warehouse
is written only by the pipeline and trusted as its manifest is.
"""

import csv
import functools
import hashlib
import io
import json
import marshal
import math
import os
import re
import sys
import uuid
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import DatasetError, ManifestError, UnknownDatasetError

KIND_NUMERIC = "numeric"
KIND_BOOLEAN = "boolean"
KIND_CATEGORICAL = "categorical"
_KINDS = (KIND_NUMERIC, KIND_BOOLEAN, KIND_CATEGORICAL)

# A manifest sha256 also names the dataset's archive file.
_SHA256_RE = re.compile(r"[0-9a-f]{64}")

_BOOL_TOKENS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
    "yes": True,
    "no": False,
}


# The text of each boolean cell, as Column.rendered gives it.
_BOOLEAN_TEXT = {True: "true", False: "false", None: None}


class Column:
    """One typed column of a dataset: its name, its kind and one cell per
    row (None for a missing cell).

    A column built from its cells holds them, and ``blob`` and ``crc``
    are None. A column read from a column file (``stored``) holds
    ``blob``, the ``marshal`` bytes its cells were kept as, and ``crc``,
    the crc32 stored beside it. It decodes ``cells`` on their first
    read, once the blob matches its crc32 and holds a tuple of one cell
    per row; otherwise the cells come from ``parse()``, a parse of the
    version's CSV, and the column drops its blob, so it is written from
    its cells. It is written back as the same blob and crc32, so a
    column never read is never decoded nor checksummed. Equality and
    ``repr`` see the cells, so they decode them.
    """

    def __init__(self, name: str, kind: str, cells: tuple) -> None:
        self.name = name
        self.kind = kind
        # set in the instance, so the cached_property below never runs
        self.cells = cells
        self.blob: Optional[bytes] = None
        self.crc: Optional[int] = None

    @classmethod
    def stored(
        cls,
        name: str,
        kind: str,
        crc: int,
        blob: bytes,
        row_count: int,
        parse: Optional[Callable[[], "TabularDataset"]],
    ) -> "Column":
        """The column whose cells are the ``row_count`` cells that
        ``blob`` holds, checked against ``crc`` and decoded on first
        read. ``parse`` gives the version's dataset when the check
        fails; with None, a failed check raises DatasetError."""
        col = cls.__new__(cls)
        col.name, col.kind, col.crc, col.blob = name, kind, crc, blob
        col._row_count, col._parse = row_count, parse
        return col

    @functools.cached_property
    def cells(self) -> tuple:
        n = self._row_count
        if zlib.crc32(self.blob) == self.crc:
            cells = marshal.loads(self.blob)
            if type(cells) is tuple and len(cells) == n:
                return cells
        if self._parse is None:
            raise DatasetError(
                f"column {self.name!r}: stored cells are not {n} cells matching their crc32"
            )
        cells = self._parse().column(self.name).cells
        self.blob = self.crc = None
        return cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.name, self.kind, self.cells) == (other.name, other.kind, other.cells)

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self.cells))

    def __repr__(self) -> str:
        return f"Column(name={self.name!r}, kind={self.kind!r}, cells={self.cells!r})"

    def rendered(self) -> List[Optional[str]]:
        """Cells as strings (booleans become 'true'/'false')."""
        if self.kind == KIND_CATEGORICAL:
            # categorical cells are already str or None
            return list(self.cells)
        if self.kind == KIND_BOOLEAN:
            return list(map(_BOOLEAN_TEXT.__getitem__, self.cells))
        return [None if c is None else str(c) for c in self.cells]


@dataclass(frozen=True)
class TabularDataset:
    """A parsed dataset.

    A dataset loaded from its column file holds columns whose cells are
    decoded on first read (see ``Column``); its name, version, row count
    and column kinds never decode a cell.

    ``views`` holds what statistics derive from the columns (the runner
    keeps its group indexes, group labels, splits and result entries
    there), so each is built once while the dataset is cached. The
    result entries and group labels come from the column file and go
    back to it; the cache clears ``views``
    when the dataset leaves it. It takes no part in equality.
    """

    name: str
    version: str
    columns: tuple
    row_count: int
    views: dict = field(default_factory=dict, compare=False, repr=False)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise UnknownDatasetError(f"dataset {self.name!r} has no column {name!r}")

    def kinds(self) -> Dict[str, str]:
        return {c.name: c.kind for c in self.columns}


def atomic_write(target: Path, data: bytes) -> None:
    """Replace ``target`` with ``data`` in one step.

    The bytes go to a temp file beside the target, which then replaces
    it, so a reader sees the old file or the new one, never a part. On
    any failure the temp file is removed and the target is untouched.
    The file is created with mode 0666 less the umask, as ``open`` would.
    """
    tmp = target.with_name(f".{target.stem}-{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: Union[str, Path]) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _typed_column(name: str, raw: Sequence[str]) -> Column:
    """One column with its kind inferred and each cell converted once.

    A column is numeric when every present cell parses as a finite
    float, else boolean when every present cell is a boolean token,
    else categorical. The empty string is a missing cell (None) in every
    kind, and a column with no present cell is categorical.
    """
    if not any(raw):
        return Column(name=name, kind=KIND_CATEGORICAL, cells=(None,) * len(raw))
    try:
        cells = [float(v) if v else None for v in raw]
    except ValueError:
        pass
    else:
        # filter(None, ...) drops the missing cells, and zeros, which are finite
        if all(map(math.isfinite, filter(None, cells))):
            return Column(name=name, kind=KIND_NUMERIC, cells=tuple(cells))
    try:
        cells = [_BOOL_TOKENS[v.lower()] if v else None for v in raw]
    except KeyError:
        pass
    else:
        return Column(name=name, kind=KIND_BOOLEAN, cells=tuple(cells))
    return Column(name=name, kind=KIND_CATEGORICAL, cells=tuple([v or None for v in raw]))


def _checked_header(path: Path, header: Optional[List[str]]) -> List[str]:
    """``header``, the first row's fields, once it names every column
    once; DatasetError otherwise. None is a file with no row at all."""
    if header is None:
        raise DatasetError(f"{path}: empty file, expected a header row")
    if header == [] or all(h == "" for h in header):
        raise DatasetError(f"{path}: empty header row")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DatasetError(f"{path}: duplicate header names {dupes}")
    if "" in header:
        raise DatasetError(f"{path}: empty column name in header")
    return header


def _ragged(path: Path, line_num: int, expected: int, got: int) -> DatasetError:
    return DatasetError(
        f"{path}: ragged row at line {line_num}, expected {expected} fields, got {got}"
    )


def _fields(line: str) -> List[str]:
    """The fields of one quote-free line; a blank line has none."""
    return line.split(",") if line else []


def _raw_columns(path: Path, text: str) -> Tuple[List[str], int, List[Sequence[str]]]:
    """The header, the row count and each column's raw cells of CSV text.

    A text with no quote, CR or NUL, and no line longer than
    ``csv.field_size_limit()``, is split on newlines and then on commas:
    there, RFC 4180 and ``csv.reader`` read each line as its
    comma-separated fields, a blank line as a row of none, and a final
    newline as the end of the last row. Any other text goes through
    ``csv.reader``, which alone reads quoted fields, CR line ends and NUL
    (an error before Python 3.11). Both give the same rows, checks and
    messages.
    """
    lines = None
    if '"' not in text and "\r" not in text and "\0" not in text:
        lines = text.split("\n")
        if lines[-1] == "":  # a final newline ends the last row
            lines.pop()
        if lines and max(map(len, lines)) > csv.field_size_limit():
            lines = None
    if lines is None:
        with io.StringIO(text, newline="") as fh:
            reader = csv.reader(fh)
            header = _checked_header(path, next(reader, None))
            n = len(header)
            rows = []
            for row in reader:
                if len(row) != n:
                    raise _ragged(path, reader.line_num, n, len(row))
                rows.append(row)
        # zip yields no column for a header-only file
        return header, len(rows), list(zip(*rows)) if rows else [()] * n

    header = _checked_header(path, _fields(lines[0]) if lines else None)
    n = len(header)
    body = lines[1:]
    # A row is whole when it holds n - 1 commas; a blank line is a row
    # of no field, which takes a look of its own when n is 1.
    if "" in body or set(map(str.count, body, repeat(","))) - {n - 1}:
        for line_num, line in enumerate(body, 2):
            got = len(_fields(line))
            if got != n:
                raise _ragged(path, line_num, n, got)
    flat = ",".join(body).split(",") if body else []
    return header, len(body), [flat[i::n] for i in range(n)]


def load_csv(path: Union[str, Path], name: Optional[str] = None) -> TabularDataset:
    """Load a CSV file into a typed columnar dataset.

    Deterministic: the same bytes always produce the same dataset,
    including inferred column kinds. The file is read once; its version
    is the SHA-256 of exactly the bytes that were parsed. The bytes are
    decoded in one piece, so a UnicodeDecodeError names the byte
    position in the file. Quote-free text is split straight into
    columns, and any other goes through ``csv.reader`` (see
    ``_raw_columns``). Each column's cells are converted once, by the
    first kind rule (numeric, boolean, categorical) that holds for every
    present cell.
    """
    path = Path(path)
    dataset_name = name if name is not None else path.stem
    data = path.read_bytes()

    try:
        header, row_count, raw_columns = _raw_columns(path, data.decode("utf-8"))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: unreadable CSV: {exc}") from exc

    # Each raw column is let go once typed, so the raw strings of a
    # numeric column are freed as it converts.
    columns = []
    for i, col_name in enumerate(header):
        raw, raw_columns[i] = raw_columns[i], None
        columns.append(_typed_column(col_name, raw))

    return TabularDataset(
        name=dataset_name,
        version=hashlib.sha256(data).hexdigest(),
        columns=tuple(columns),
        row_count=row_count,
    )


# The directory beside a dataset's CSV that holds its column files, and
# the tag that makes a column file readable only by the same typing rules
# and interpreter version that wrote it. Bump _COLUMNS_FORMAT whenever
# load_csv's output for the same bytes changes (a kind rule, a cell
# conversion, the column layout) or the file's layout changes: the files
# are keyed by the bytes' hash alone, so an old file would otherwise keep
# serving the old typing. Result entries and labels need no bump: they
# carry the source fingerprint of the code that computed them. Which of
# load_csv's two parses reads a text changes nothing here: both give the
# same columns for the same bytes. Format 3 kept each column's cells as a
# marshal blob of their own with its crc32, so a load decodes no cell.
# Format 4 checks a column's crc32 when its blob is first decoded, not at
# load, and keeps the entries, each with its JSON text, and the labels in
# one blob with its own crc32, checked at load before it is decoded.
COLUMNS_DIR = "columns"
_COLUMNS_FORMAT = 4
_COLUMNS_TAG = ("a4l-columns", _COLUMNS_FORMAT, marshal.version, sys.version_info[:2])

# The keys of ``TabularDataset.views`` that hold the dataset's result
# entries, each key's (entry, text) pair (see ``runner._execute_request``),
# and the (level1, level2) labels of each independent column grouped by,
# or None where it cannot be split (see ``runner._group_index``); no
# column name or (independent, dependent) pair equals either.
ENTRIES = object()
LABELS = object()

_PACKAGE_DIR = Path(__file__).parent


@functools.cache
def source_fingerprint() -> Optional[str]:
    """The sha256 of the package's own source: every ``.py`` file below
    the package directory, by relative path and bytes, in path order.

    Computed once per process, on first use. None when the source cannot
    be read (or holds no ``.py`` file), in which case no result entry is
    ever loaded or stored.
    """
    h = hashlib.sha256()
    try:
        sources = sorted(
            (path.relative_to(_PACKAGE_DIR).as_posix(), path) for path in _PACKAGE_DIR.rglob("*.py")
        )
        for rel, path in sources:
            name, data = rel.encode("utf-8", "surrogateescape"), path.read_bytes()
            h.update(b"%d %d " % (len(name), len(data)) + name + data)
    except OSError:
        return None
    return h.hexdigest() if sources else None


def columns_path(path: Union[str, Path], sha256: str) -> Path:
    """The column file of the version ``sha256`` of the CSV at ``path``."""
    return Path(path).with_name(COLUMNS_DIR) / f"{sha256}.marshal"


def _entry_key(key) -> bool:
    """Whether ``key`` has the types of a result entry's memo key,
    (statistic, independent, dependent, alternative, alpha)."""
    return (
        type(key) is tuple
        and len(key) == 5
        and all(type(part) is str for part in key[:4])
        and type(key[4]) is float
    )


def _typed_pair(value, kinds: tuple) -> bool:
    """Whether ``value`` is a pair whose parts have the types ``kinds``."""
    return (
        type(value) is tuple
        and len(value) == 2
        and type(value[0]) is kinds[0]
        and type(value[1]) is kinds[1]
    )


def _tuple_length(blob: bytes) -> Optional[int]:
    """The length of the tuple ``blob`` holds, read from its ``marshal``
    header (a type code, with or without the reference flag 0x80, then
    the length), or None when ``blob`` does not start as a tuple. The
    column file's tag names the marshal version, so the header is one
    this interpreter writes."""
    code = blob[0] & 0x7F if blob else None
    if code == 0x29:  # small tuple: a one-byte length
        return blob[1] if len(blob) > 1 else None
    if code == 0x28:  # tuple: a four-byte little-endian length
        return int.from_bytes(blob[1:5], "little") if len(blob) > 4 else None
    return None


def _stored_views(crc, blob) -> Optional[Tuple[dict, dict]]:
    """The result entries and labels that ``blob`` holds, or None when
    it fails its crc32 or they are not well formed: each entry key maps
    to an (entry dict, text) pair, and each independent column name to
    its two labels or None."""
    try:
        if zlib.crc32(blob) != crc:
            return None
        entries, labels = marshal.loads(blob)
    except (EOFError, ValueError, TypeError):
        return None
    if (
        type(entries) is dict
        and entries
        and all(_entry_key(k) and _typed_pair(v, (dict, str)) for k, v in entries.items())
        and type(labels) is dict
        and all(
            type(k) is str and (v is None or _typed_pair(v, (str, str)))
            for k, v in labels.items()
        )
    ):
        return entries, labels
    return None


def _load_columns(
    target: Path, name: str, sha256: str, parse: Optional[Callable[[], TabularDataset]]
) -> Optional[TabularDataset]:
    """The dataset kept in the column file ``target``, or None when the
    file is missing, unreadable or not one this interpreter wrote.

    Only the file's outer object is decoded: each column keeps its blob,
    checked here only to be bytes whose ``marshal`` header holds one
    cell per row, and checks its crc32 and decodes it when its cells are
    first read (``Column.stored``), falling back to ``parse`` when that
    check fails. The result entries and labels go into ``views`` only
    when the package source that computed them is this one's, their
    blob matches its crc32 and they are well formed; otherwise the
    columns are kept and they are dropped.
    """
    try:
        tag, row_count, stored, entries_tag, entries_crc, entries_blob = marshal.loads(
            target.read_bytes()
        )
        if tag != _COLUMNS_TAG or type(row_count) is not int:
            return None
        columns = []
        for col_name, kind, crc, blob in stored:
            if kind not in _KINDS or type(blob) is not bytes or _tuple_length(blob) != row_count:
                return None
            columns.append(Column.stored(col_name, kind, crc, blob, row_count, parse))
    except (OSError, EOFError, ValueError, TypeError):
        return None
    ds = TabularDataset(name=name, version=sha256, columns=tuple(columns), row_count=row_count)
    if entries_tag is not None and entries_tag == source_fingerprint():
        views = _stored_views(entries_crc, entries_blob)
        if views is not None:
            ds.views[ENTRIES], ds.views[LABELS] = views
    return ds


def _store_columns(target: Path, ds: TabularDataset, entries: dict, labels: dict) -> None:
    """Write ``ds``'s columns, the result ``entries`` and the ``labels``
    to ``target``; a warehouse that cannot be written still runs,
    without the file.

    A column read from a column file is written as the blob and crc32 it
    was read with, so its cells are neither encoded again nor, if never
    read, decoded or checksummed. Labels are written only with entries.
    """
    columns = []
    for c in ds.columns:
        if c.blob is None:
            blob = marshal.dumps(c.cells)
            columns.append((c.name, c.kind, zlib.crc32(blob), blob))
        else:
            columns.append((c.name, c.kind, c.crc, c.blob))
    entries_tag = source_fingerprint() if entries else None
    if entries_tag is None:
        entries, labels = {}, {}
    entries_blob = marshal.dumps((entries, labels))
    data = marshal.dumps(
        (
            _COLUMNS_TAG,
            ds.row_count,
            tuple(columns),
            entries_tag,
            zlib.crc32(entries_blob),
            entries_blob,
        )
    )
    try:
        target.parent.mkdir(exist_ok=True)
        atomic_write(target, data)
    except OSError:
        pass


def _stored_count(views: dict) -> int:
    """The number of result entries and labels in ``views``; both only
    grow while a dataset is cached, so an unchanged count is unchanged
    contents."""
    return len(views.get(ENTRIES, ())) + len(views.get(LABELS, ()))


class DatasetCache:
    """Datasets loaded during one invocation, keyed by (name, sha256).

    One cache serves one cycle or one command, so validation and
    execution share a load; it is never shared between invocations.
    The key's sha256 is the manifest's. A dataset is loaded from its
    column file when there is one, with the result entries and labels
    that file holds, and is otherwise parsed. A load decodes no cell and
    checksums no column: each column checks and decodes its own blob
    when its cells are first read, so a command decodes only the columns
    its statistics read. When a blob fails its check, the version's CSV
    is parsed, once per cache, and that column's cells come from the
    parse; the parse must hash to the key, or DatasetError is raised.

    A version's file is written at most once per cache, when the version
    leaves it (``release``) or the cache is closed (``close``, or the end
    of a ``with`` block), and only when the version was parsed, a column
    was replaced by a parse, or its result entries or labels grew; a
    column loaded from the file goes back as the blob it was read as. A
    parsed version is written only when the bytes parsed hash to the
    key, so a dataset's version is always the hash of the bytes its
    columns came from. A cache that is never closed writes nothing.
    """

    def __init__(self) -> None:
        # name -> sha256 -> dataset, so a release finds a name's versions
        # without a walk of the cache
        self._datasets: Dict[str, Dict[str, TabularDataset]] = {}
        # the column file of each version this cache may write, and the
        # number of entries and labels it was loaded with (None after a
        # parse)
        self._files: Dict[Tuple[str, str], Tuple[Path, Optional[int]]] = {}
        # the parse of each loaded version a blob of which failed its check
        self._parses: Dict[Tuple[str, str], TabularDataset] = {}

    def __enter__(self) -> "DatasetCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def get(self, name: str, sha256: str, path: Union[str, Path]) -> TabularDataset:
        versions = self._datasets.setdefault(name, {})
        ds = versions.get(sha256)
        if ds is None:
            key = (name, sha256)
            target = columns_path(path, sha256)
            parse = functools.partial(self._parse, name, sha256, path)
            ds = _load_columns(target, name, sha256, parse)
            if ds is not None:
                self._files[key] = (target, _stored_count(ds.views))
            else:
                ds = load_csv(path, name=name)
                if ds.version == sha256:
                    self._files[key] = (target, None)
            versions[sha256] = ds
        return ds

    def _parse(self, name: str, sha256: str, path: Union[str, Path]) -> TabularDataset:
        """The parse of the loaded version ``sha256`` of ``name``, for a
        column whose blob failed its check; made once while the version
        is cached, and its column file is then due."""
        key = (name, sha256)
        ds = self._parses.get(key)
        if ds is None:
            ds = load_csv(path, name=name)
            if ds.version != sha256:
                raise DatasetError(
                    f"{path}: a stored column of version {sha256} failed its check, "
                    f"and the file now holds version {ds.version}"
                )
            if key in self._files:  # the version is still cached
                self._parses[key] = ds
                self._files[key] = (self._files[key][0], None)
        return ds

    def release(self, names: Iterable[str]) -> None:
        """Drop every cached version of each dataset in ``names``, writing
        its column file first when it is due. A name with no cached
        version is skipped."""
        for name in names:
            for sha256, ds in self._datasets.pop(name, {}).items():
                target, loaded = self._files.pop((name, sha256), (None, 0))
                self._parses.pop((name, sha256), None)
                views = ds.views
                count = _stored_count(views)
                entries, labels = views.get(ENTRIES, {}), views.get(LABELS, {})
                # The views leave with the dataset, before the write: the
                # splits hold every numeric cell a second time, and marshal
                # keeps a table of each object it meets that is held more
                # than once.
                views.clear()
                if target is not None and count != loaded:
                    _store_columns(target, ds, entries, labels)

    def close(self) -> None:
        """Drop every cached dataset, writing each column file that is due."""
        self.release(list(self._datasets))


class _ColumnCatalog(Mapping):
    """Manifest names mapped to column kinds, loaded on first lookup."""

    def __init__(self, warehouse: "Warehouse", cache: DatasetCache, manifest: Dict[str, dict]):
        self._warehouse = warehouse
        self._manifest = manifest
        self._cache = cache

    def __getitem__(self, name: str) -> Dict[str, str]:
        entry = self._manifest[name]
        path = self._warehouse.dataset_path(name)
        return self._cache.get(name, entry["sha256"], path).kinds()

    def __contains__(self, name) -> bool:
        return name in self._manifest

    def __iter__(self) -> Iterator[str]:
        return iter(self._manifest)

    def __len__(self) -> int:
        return len(self._manifest)


class Warehouse:
    """The local content-addressed dataset store.

    Layout under the pipeline root:
        warehouse/<name>.csv          current version of each dataset
        warehouse/manifest.json       {"<name>": {"sha256", "bytes", "updated"}}
        warehouse/columns/<sha256>.marshal
                                      typed columns and result entries of
                                      each version parsed
        warehouse/reconcile.json      the sha256 and stat witness of each
                                      payload and store file, and what each
                                      payload references
                                      (orchestrator.RegistryRecord)
        archive/<name>/<sha256>.csv   superseded versions, named by their hash
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.dir = self.root / "warehouse"
        self.columns_dir = self.dir / COLUMNS_DIR
        self.archive_dir = self.root / "archive"
        self.manifest_path = self.dir / "manifest.json"
        self.reconcile_path = self.dir / "reconcile.json"

    def manifest(self) -> Dict[str, dict]:
        """The manifest's entries by dataset name, each checked to hold a
        ``sha256`` of 64 hex digits and an int ``bytes``; ManifestError
        otherwise."""
        if not self.manifest_path.exists():
            return {}
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            raise ManifestError(f"{self.manifest_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ManifestError(f"{self.manifest_path}: manifest must be an object")
        for name, entry in data.items():
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("sha256"), str)
                and _SHA256_RE.fullmatch(entry["sha256"])
                and type(entry.get("bytes")) is int
            ):
                raise ManifestError(
                    f"{self.manifest_path}: entry {name!r} must be an object "
                    "with a sha256 of 64 hex digits and an integer bytes"
                )
        return data

    def write_manifest(self, entries: Dict[str, dict]) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
        atomic_write(self.manifest_path, text.encode("utf-8"))

    def dataset_path(self, name: str) -> Path:
        return self.dir / f"{name}.csv"

    def column_catalog(
        self, cache: DatasetCache, manifest: Dict[str, dict]
    ) -> Mapping[str, Dict[str, str]]:
        """Column-kind catalog for every dataset of ``manifest``, the
        entries of ``manifest()``.

        A dataset is loaded (through ``cache``) only when its kinds are
        looked up, so a lookup can raise DatasetError or OSError for a
        broken or missing file.
        """
        return _ColumnCatalog(self, cache, manifest)


@dataclass
class StagedRun:
    """The warehouse files one run reads.

    ``staged`` maps each dataset name to its file in ``warehouse/`` and
    ``versions`` to its manifest sha256. Sync replaces warehouse files
    atomically, so a run reads them in place.
    """

    run_id: str
    staged: Dict[str, Path] = field(default_factory=dict)
    versions: Dict[str, str] = field(default_factory=dict)


def fetch_to_staging(
    names: Iterable[str], warehouse: Warehouse, manifest: Dict[str, dict]
) -> StagedRun:
    """Resolve the requested dataset names against ``manifest``, the
    entries of ``warehouse.manifest()``.

    Every name must already be in the manifest; after payload validation
    an unknown name here is an internal error.
    """
    run = StagedRun(run_id=uuid.uuid4().hex)
    for name in names:
        if name not in manifest:
            raise UnknownDatasetError(
                f"dataset {name!r} not in warehouse manifest (internal error: "
                "payload should have been validated)"
            )
        run.staged[name] = warehouse.dataset_path(name)
        run.versions[name] = manifest[name]["sha256"]
    return run
