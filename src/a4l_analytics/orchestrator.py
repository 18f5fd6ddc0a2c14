"""The scheduled cycle: scan, sync, select, run.

One cycle scans the published data store, pulls changed datasets into
the warehouse (archiving whatever they replace), figures out which
payloads reference the updated datasets, and runs exactly those. The
cycle is idempotent: re-running against an unchanged store selects
nothing. A lock file makes cycles mutually exclusive; dataset hashes
(not timestamps) decide what counts as new data, and payload hashes
decide which payload files must be parsed again. A file's stat decides
only whether its bytes must be read and hashed again: the registry
record keeps each input's hash beside the stat it had when hashed.

A working cycle (one that updated or selected something) writes its
report to ``runs/<scanned_at>.json``. An idle cycle appends its report
as one line to ``runs/idle-<UTC date>.jsonl``, so it creates no file
after the first idle cycle of a day.
"""

import fcntl
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Tuple, Union

from .dataset import (
    DatasetCache,
    Warehouse,
    atomic_write,
    fetch_to_staging,
    sha256_file,
)
from .errors import A4LError, LockHeldError, PayloadError
from .payload import AnalysisPayload, parse_payload, validate_payload
from .runner import execute_payload, utc_now_rfc3339, write_result


@dataclass
class UpdateRecord:
    """One dataset that changed during sync."""

    dataset: str
    new_sha256: str
    old_sha256: Optional[str] = None
    archived_to: Optional[str] = None


@dataclass
class RunOutcome:
    """Result of running one selected payload during a cycle."""

    payload_file: str
    status: str  # ok | partial | validation_failed | parse_failed | error
    result_keys: List[str] = field(default_factory=list)
    detail: Optional[str] = None


@dataclass
class SyncReport:
    """One cycle's report; ``dataclasses.asdict`` gives its JSON form,
    with the keys in field order."""

    scanned_at: str
    updated: List[UpdateRecord] = field(default_factory=list)
    selected_payloads: List[str] = field(default_factory=list)
    run_outcomes: List[RunOutcome] = field(default_factory=list)

    def all_ok(self) -> bool:
        return all(o.status == "ok" for o in self.run_outcomes)


class CycleLock:
    """Single-instance lock: an exclusive ``flock`` on the lock file.

    The kernel drops the lock when its holder exits, however it exits, so
    a crashed cycle leaves nothing to reclaim, and no pid in the file is
    read or trusted. Each CycleLock opens the file afresh, so two locks
    exclude each other within one process too. The file itself is never
    removed: unlinking it would let a later starter lock a new file while
    an earlier one still holds the old.

    Acquiring touches the file and keeps its new ``st_mtime_ns`` as
    ``stamp``: a reading of the filesystem's own clock, taken before the
    holder looks at any input (see ``_trusted``).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None
        self.stamp: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> bool:
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.utime(fd)
            self.stamp = os.fstat(fd).st_mtime_ns
        except BlockingIOError:
            os.close(fd)
            return False
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            self.stamp = None

    def __enter__(self) -> "CycleLock":
        if not self.acquire():
            raise LockHeldError(f"another cycle holds {self.path}")
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _listing(directory: Path, suffix: str) -> List[os.DirEntry]:
    """The entries of ``directory`` that ``directory.glob("*" + suffix)``
    selects (hidden ones and directories too, names matched with case),
    sorted by name; none when the directory cannot be listed, as with
    ``glob``."""
    try:
        with os.scandir(directory) as entries:
            found = [e for e in entries if e.name.endswith(suffix)]
    except OSError:
        return []
    found.sort(key=lambda e: e.name)
    return found


def _witness(st: os.stat_result) -> List[int]:
    """The stat fields that change whenever a file's bytes are replaced."""
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _trusted(witness: List[int], stamp: Optional[int]) -> bool:
    """Whether ``witness``, taken after the lock was stamped ``stamp``,
    may later stand for its file's bytes.

    Any change made after the stat sets the file's mtime and ctime at or
    after the stamp, so a witness whose times both precede it differs
    from the stat of every later version. A file whose mtime or ctime
    already reads the stamp's tick or later could be rewritten within
    that tick, with the same size, and keep its stat: its witness is
    not kept, so the file is hashed again on the next cycle (git's
    racy-clean rule). Without a stamp nothing is trusted.
    """
    return stamp is not None and witness[3] < stamp and witness[4] < stamp


def scan_store(
    store_dir: Union[str, Path], record: "RegistryRecord", stamp: Optional[int]
) -> Dict[str, str]:
    """The sha256 of every CSV in the published data store, by dataset
    name: the file name without its ``.csv`` suffix. A file named just
    ``.csv`` names no dataset and is skipped.

    Each file is stat'ed before it is read. A file whose stat equals the
    witness of its entry in ``record.store`` is not read again; every
    other file is hashed, and ``record.store`` becomes what the scan
    found, with the witness of each file hashed under the lock stamped
    ``stamp`` kept only when ``_trusted``.
    """
    store = Path(store_dir)
    if not store.is_dir():
        raise A4LError(f"published store directory {store} does not exist")
    found: Dict[str, dict] = {}
    result = {}
    for item in _listing(store, ".csv"):
        name = item.name[: -len(".csv")]
        if not name:
            continue
        try:
            witness = _witness(item.stat())
            entry = record.store.get(name)
            if entry is None or entry["stat"] != witness:
                stat = witness if _trusted(witness, stamp) else None
                entry = {"sha256": sha256_file(item.path), "stat": stat}
        except OSError as exc:
            raise A4LError(f"unreadable store file {item.path}: {exc}") from exc
        found[name] = entry
        result[name] = entry["sha256"]
    record.store = found
    return result


def sync_warehouse(
    scan: Dict[str, str],
    warehouse: Warehouse,
    lock: CycleLock,
    manifest: Dict[str, dict],
) -> List[UpdateRecord]:
    """Pull changed store files into the warehouse, archiving old bytes.

    ``manifest`` holds the entries of ``warehouse.manifest()``; they are
    brought up to date in place, so afterwards they are the manifest the
    cycle runs against.

    For every dataset whose store hash differs from the manifest (or is
    absent from it), and whose bytes still exist and differ when read for
    the copy, the existing warehouse file is hard-linked as
    archive/<name>/<old sha256>.csv, then the new bytes replace it in one
    step, so a reader of warehouse/<name>.csv always sees a whole
    version. The manifest is rewritten atomically at the end, and then
    the column files of versions it no longer names are removed. An archive
    file that already exists is kept: after a cycle that failed before
    its manifest write, the warehouse file may already hold the new
    bytes, and they must not be archived as the old version.
    """
    if not lock.held:
        raise A4LError("sync_warehouse requires the cycle lock to be held")

    store_dir = warehouse.root / "store"
    updates: List[UpdateRecord] = []

    for name in sorted(scan):
        entry = manifest.get(name)
        if entry is not None and entry["sha256"] == scan[name]:
            continue
        # the store file may have been rewritten since the scan, so the
        # hash recorded is that of the bytes copied; one removed since the
        # scan is skipped, and the next scan no longer lists it
        try:
            data = (store_dir / f"{name}.csv").read_bytes()
        except FileNotFoundError:
            continue
        new_sha = hashlib.sha256(data).hexdigest()
        if entry is not None and entry["sha256"] == new_sha:
            continue

        record = UpdateRecord(dataset=name, new_sha256=new_sha)
        target = warehouse.dataset_path(name)
        if entry is not None and target.exists():
            record.old_sha256 = entry["sha256"]
            archive_path = warehouse.archive_dir / name / f"{record.old_sha256}.csv"
            if not archive_path.exists():
                archive_path.parent.mkdir(parents=True, exist_ok=True)
                os.link(target, archive_path)
            record.archived_to = str(archive_path.relative_to(warehouse.root))

        warehouse.dir.mkdir(parents=True, exist_ok=True)
        atomic_write(target, data)
        manifest[name] = {
            "sha256": new_sha,
            "bytes": len(data),
            "updated": utc_now_rfc3339(),
        }
        updates.append(record)

    if updates:
        warehouse.write_manifest(manifest)
        # column files of versions the manifest no longer names (atomic
        # writes' temp files do not match the pattern)
        current = {entry["sha256"] for entry in manifest.values()}
        for path in warehouse.columns_dir.glob("*.marshal"):
            if path.stem not in current:
                path.unlink(missing_ok=True)
    return updates


# The format number of the registry record. Bump it whenever
# parse_payload accepts or rejects different bytes,
# AnalysisPayload.datasets() changes or the entries' fields change: a
# record of another format is ignored and written again, as a column
# file of another _COLUMNS_FORMAT is.
_RECORD_FORMAT = 2
_RECORD_TAG = ["a4l-reconcile", _RECORD_FORMAT]


def _is_witness(stat) -> bool:
    return stat is None or (
        type(stat) is list and len(stat) == 5 and all(type(v) is int for v in stat)
    )


def _read_record(path: Path) -> Optional[Dict[str, Dict[str, dict]]]:
    """The registry record's ``payloads`` and ``store`` sections at
    ``path``, or None when the file is missing, unreadable, of another
    tag or format, or malformed in either section."""
    try:
        data = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or data.get("tag") != _RECORD_TAG:
        return None
    sections = {key: data.get(key) for key in ("payloads", "store")}
    if not all(isinstance(entries, dict) for entries in sections.values()):
        return None
    for key, entries in sections.items():
        for entry in entries.values():
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("sha256"), str)
                and _is_witness(entry.get("stat", 0))
            ):
                return None
            if key == "payloads":
                names = entry.get("datasets", 0)
                if names is not None and not (
                    isinstance(names, list) and all(isinstance(n, str) for n in names)
                ):
                    return None
    return sections


class RegistryRecord:
    """The hash of each input file's bytes, beside the stat the file had
    when they were hashed: ``warehouse/reconcile.json``.

    ``payloads`` maps a payload file name to the sha256 of its bytes, its
    stat witness (``_witness``, or None when it could not be trusted) and
    either the sorted names of the datasets the payload references or
    None, when the bytes do not parse. ``store`` maps a dataset name to
    the sha256 and the stat witness of its store file. A walk of the
    registry (``payload_index``) and a scan of the store (``scan_store``)
    each replace their section with what they found. The record is
    written only by the pipeline and trusted as ``manifest.json`` is.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._stored = _read_record(self.path)
        stored = self._stored or {"payloads": {}, "store": {}}
        self.payloads: Dict[str, dict] = stored["payloads"]
        self.store: Dict[str, dict] = stored["store"]

    def save(self) -> None:
        """Write the sections when they differ from the file's; a
        warehouse that cannot be written still runs, uncached."""
        sections = {"payloads": self.payloads, "store": self.store}
        if sections == self._stored:
            return
        # compact, so that json's C encoder writes it: a working cycle
        # writes the record whenever a store file changed
        record = {"tag": _RECORD_TAG, **sections}
        text = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, text.encode("utf-8"))
        except OSError:
            return
        self._stored = sections


def _parsed_entry(
    sha256: str, stat: Optional[List[int]], data: bytes
) -> Tuple[dict, Optional[AnalysisPayload]]:
    """The record entry of payload bytes, and the payload when they parse."""
    try:
        payload = parse_payload(data)
    except PayloadError:
        return {"sha256": sha256, "stat": stat, "datasets": None}, None
    return {"sha256": sha256, "stat": stat, "datasets": sorted(payload.datasets())}, payload


def payload_index(
    registry_dir: Union[str, Path],
    record: RegistryRecord,
    updated: AbstractSet[str] = frozenset(),
    stamp: Optional[int] = None,
) -> Tuple[Dict[str, List[str]], Dict[str, AnalysisPayload], List[str]]:
    """Walk the registry: the sorted names of the datasets each payload
    file references, by file name; the parsed payloads of the files that
    reference a dataset of ``updated``; and the names of the unreadable
    or unparseable files. Every result is in file-name order.

    Each file is stat'ed before it is read. It is read and hashed when
    ``record`` holds no entry for it whose witness equals that stat, and
    it is parsed only when no entry holds its hash, or when its entry
    names an updated dataset; that parse then decides whether it runs,
    so a stale record never runs bytes that do not parse.
    ``record.payloads`` becomes what the walk found, with the witness of
    each file read under the lock stamped ``stamp`` kept only when
    ``_trusted``; an unreadable file has no entry.
    """
    references: Dict[str, List[str]] = {}
    selected: Dict[str, AnalysisPayload] = {}
    broken: List[str] = []
    found: Dict[str, dict] = {}
    registry = Path(registry_dir)
    for item in _listing(registry, ".json") if registry.is_dir() else ():
        name = item.name
        entry, payload = record.payloads.get(name), None
        selects = (
            entry is not None
            and entry["datasets"] is not None
            and not updated.isdisjoint(entry["datasets"])
        )
        try:
            witness = _witness(item.stat())
            fresh = entry is None or entry["stat"] != witness or selects
            data = Path(item.path).read_bytes() if fresh else None
        except OSError:
            broken.append(name)
            continue
        if data is not None:
            sha256 = hashlib.sha256(data).hexdigest()
            stat = witness if _trusted(witness, stamp) else None
            if entry is None or entry["sha256"] != sha256 or selects:
                entry, payload = _parsed_entry(sha256, stat, data)
            else:
                entry = dict(entry, stat=stat)
        found[name] = entry
        if entry["datasets"] is None:
            broken.append(name)
            continue
        references[name] = entry["datasets"]
        if not updated.isdisjoint(entry["datasets"]):
            selected[name] = payload
    record.payloads = found
    return references, selected, broken


def select_affected_payloads(
    updates: List[UpdateRecord],
    registry_dir: Union[str, Path],
    record: RegistryRecord,
    stamp: Optional[int],
) -> Tuple[Dict[str, AnalysisPayload], List[str]]:
    """Parsed payloads referencing at least one updated dataset, by file
    name, and the names of the unreadable or unparseable payload files.

    Deterministic (lexicographic by file name); unparseable payloads are
    reported back, never fatal. Only new, changed and selected files are
    read and parsed (see ``payload_index``).
    """
    _, selected, broken = payload_index(
        registry_dir, record, {u.dataset for u in updates}, stamp
    )
    return selected, broken


def run_payload_file(
    name: str,
    payload: AnalysisPayload,
    warehouse: Warehouse,
    cache: DatasetCache,
    manifest: Dict[str, dict],
) -> RunOutcome:
    """Validate, resolve, execute and store one parsed payload.

    The one payload path of both ``sync`` and ``a4l run``; ``name`` is
    the payload's file name. ``manifest`` holds the entries of
    ``warehouse.manifest()``; validation and execution both use them, so
    they see the same versions. ``cache`` shares loaded datasets with the
    other payloads of a cycle. A referenced dataset that cannot be read
    or parsed fails this payload only, with status ``error``.
    """
    try:
        catalog = warehouse.column_catalog(cache, manifest)
        report = validate_payload(payload, catalog=catalog)
    except (A4LError, OSError) as exc:
        return RunOutcome(payload_file=name, status="error", detail=str(exc))
    if not report.ok:
        return RunOutcome(
            payload_file=name, status="validation_failed", detail=report.render()
        )

    results_root = warehouse.root / "results"
    keys: List[str] = []
    any_errors = False
    try:
        staged = fetch_to_staging(sorted(payload.datasets()), warehouse, manifest)
        for doc in execute_payload(payload, staged, cache):
            key = write_result(doc, payload.output, results_root)
            keys.append(key.as_path())
            any_errors = any_errors or doc.has_errors()
    except (A4LError, OSError) as exc:
        return RunOutcome(
            payload_file=name, status="error", result_keys=keys, detail=str(exc)
        )
    return RunOutcome(
        payload_file=name, status="partial" if any_errors else "ok", result_keys=keys
    )


def internal_error(exc: Exception) -> str:
    """The detail reported for an exception no pipeline step expects;
    its traceback goes to stderr."""
    # imported on this path only: traceback and the modules it loads hold
    # about 0.25 MB that a run without such an exception never needs
    import traceback

    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _append_line(path: Path, line: bytes) -> None:
    """Append ``line``, which ends in a newline, to the file at ``path``
    in one ``write``, creating the file, and its directory only when it
    is missing.

    A crash can leave the file's last line torn. When the file does not
    end in a newline, one goes first, in the same ``write``, so the torn
    line stays a line of its own, which a reader skips because it does
    not parse, and ``line`` is whole. Only the cycle lock's holder
    appends, so no other write interleaves. A short write raises, as a
    failed ``atomic_write`` does. The file is created with mode 0666 less
    the umask, as ``open`` would.
    """
    flags = os.O_RDWR | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        written = os.write(fd, line)
        if written != len(line):
            raise OSError(f"{path}: wrote {written} of {len(line)} bytes")
    finally:
        os.close(fd)


def run_cycle(root: Union[str, Path]) -> SyncReport:
    """One full orchestration cycle over the pipeline root.

    Raises LockHeldError (without side effects) when another cycle is
    active. Per-payload failures, an unexpected exception included, are
    recorded in the report and never abort the remaining payloads. The
    manifest is read once, and the registry record is written only when
    one of its entries changed: an input file was added, changed or
    removed, or a witness became trusted.

    A working cycle, one that updated a dataset or selected a payload,
    writes its report to ``runs/<scanned_at>.json``. An idle cycle
    appends its report, ``run_outcomes`` included, as one compact JSON
    line to ``runs/idle-<UTC date of scanned_at>.jsonl``: one line per
    idle cycle, and at most one new file a day. A report that cannot be
    written raises, after the results are written.
    """
    root = Path(root)
    with CycleLock(root / ".a4l.lock") as lock:
        report = SyncReport(scanned_at=utc_now_rfc3339())
        warehouse = Warehouse(root)
        record = RegistryRecord(warehouse.reconcile_path)
        scan = scan_store(root / "store", record, lock.stamp)
        manifest = warehouse.manifest()
        updates = sync_warehouse(scan, warehouse, lock, manifest)
        report.updated = updates

        selected, broken = select_affected_payloads(
            updates, root / "payloads", record, lock.stamp
        )
        record.save()
        report.selected_payloads = list(selected)
        for name in broken:
            report.run_outcomes.append(
                RunOutcome(payload_file=name, status="parse_failed", detail="unparseable payload")
            )

        # Each dataset is loaded once per cycle and dropped, its column
        # file written when due, as soon as no remaining selected payload
        # references it. Only the finished payload's own datasets are
        # counted down, so the bookkeeping is linear in the references.
        pending = Counter(d for payload in selected.values() for d in payload.datasets())
        with DatasetCache() as cache:
            for name, payload in selected.items():
                try:
                    outcome = run_payload_file(name, payload, warehouse, cache, manifest)
                except Exception as exc:  # a defect fails its own payload only
                    outcome = RunOutcome(
                        payload_file=name, status="error", detail=internal_error(exc)
                    )
                report.run_outcomes.append(outcome)
                names = payload.datasets()
                pending.subtract(names)
                cache.release(d for d in names if pending[d] == 0)

        runs_dir = root / "runs"
        if report.updated or report.selected_payloads:
            runs_dir.mkdir(parents=True, exist_ok=True)
            text = json.dumps(asdict(report), indent=2) + "\n"
            atomic_write(runs_dir / f"{report.scanned_at}.json", text.encode("utf-8"))
        else:
            line = json.dumps(asdict(report), separators=(",", ":")) + "\n"
            _append_line(runs_dir / f"idle-{report.scanned_at[:10]}.jsonl", line.encode("utf-8"))
        return report


def watch(root: Union[str, Path], interval_seconds: float, cycles: Optional[int] = None):
    """Run cycles forever (or ``cycles`` times), sleeping in between.

    Yields each SyncReport so callers can print progress.
    """
    done = 0
    while True:
        yield run_cycle(root)
        done += 1
        if cycles is not None and done >= cycles:
            return
        time.sleep(interval_seconds)
