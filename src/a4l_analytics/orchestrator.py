"""The scheduled cycle: scan, sync, select, run.

One cycle scans the published data store, pulls changed datasets into
the warehouse (archiving whatever they replace), figures out which
payloads reference the updated datasets, and runs exactly those. The
cycle is idempotent: re-running against an unchanged store selects
nothing. A lock file makes cycles mutually exclusive; dataset hashes
(not timestamps) decide what counts as new data, and payload hashes
decide which payload files must be parsed again.
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
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> bool:
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CycleLock":
        if not self.acquire():
            raise LockHeldError(f"another cycle holds {self.path}")
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def scan_store(store_dir: Union[str, Path]) -> Dict[str, str]:
    """Hash every CSV in the published data store."""
    store = Path(store_dir)
    if not store.is_dir():
        raise A4LError(f"published store directory {store} does not exist")
    result = {}
    for path in sorted(store.glob("*.csv")):
        try:
            result[path.stem] = sha256_file(path)
        except OSError as exc:
            raise A4LError(f"unreadable store file {path}: {exc}") from exc
    return result


def sync_warehouse(
    scan: Dict[str, str],
    warehouse: Warehouse,
    lock: CycleLock,
    manifest: Optional[Dict[str, dict]] = None,
) -> List[UpdateRecord]:
    """Pull changed store files into the warehouse, archiving old bytes.

    ``manifest`` holds the entries of ``warehouse.manifest()``, which are
    read now when not given; they are brought up to date in place, so
    afterwards they are the manifest the cycle runs against.

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

    if manifest is None:
        manifest = warehouse.manifest()
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
# parse_payload accepts or rejects different bytes, or
# AnalysisPayload.datasets() changes: a record of another format is
# ignored and written again, as a column file of another
# _COLUMNS_FORMAT is.
_RECORD_FORMAT = 1
_RECORD_TAG = ["a4l-reconcile", _RECORD_FORMAT]


def _read_record(path: Path) -> Optional[Dict[str, dict]]:
    """The registry record's entries at ``path``, or None when the file
    is missing, unreadable, of another tag or format, or malformed."""
    try:
        data = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or data.get("tag") != _RECORD_TAG:
        return None
    entries = data.get("payloads")
    if not isinstance(entries, dict):
        return None
    for entry in entries.values():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("sha256"), str)
            and "datasets" in entry
        ):
            return None
        names = entry["datasets"]
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            return None
    return entries


class RegistryRecord:
    """What each payload file of the registry references, by the hash of
    its bytes: ``warehouse/reconcile.json``.

    ``entries`` maps a payload file name to the sha256 of its bytes and
    either the sorted names of the datasets the payload references or
    None, when the bytes do not parse. A walk of the registry
    (``payload_index``) replaces them with what it found. The record is
    written only by the pipeline and trusted as ``manifest.json`` is.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._stored = _read_record(self.path)
        self.entries: Dict[str, dict] = self._stored or {}

    def save(self) -> None:
        """Write the entries when they differ from the file's; a
        warehouse that cannot be written still runs, uncached."""
        if self.entries == self._stored:
            return
        record = {"tag": _RECORD_TAG, "payloads": self.entries}
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, text.encode("utf-8"))
        except OSError:
            return
        self._stored = self.entries


def _parsed_entry(sha256: str, data: bytes) -> Tuple[dict, Optional[AnalysisPayload]]:
    """The record entry of payload bytes, and the payload when they parse."""
    try:
        payload = parse_payload(data)
    except PayloadError:
        return {"sha256": sha256, "datasets": None}, None
    return {"sha256": sha256, "datasets": sorted(payload.datasets())}, payload


def payload_index(
    registry_dir: Union[str, Path],
    record: Optional[RegistryRecord] = None,
    updated: AbstractSet[str] = frozenset(),
) -> Tuple[Dict[str, List[str]], Dict[str, AnalysisPayload], List[str]]:
    """Walk the registry: the sorted names of the datasets each payload
    file references, by file name; the parsed payloads of the files that
    reference a dataset of ``updated``; and the names of the unreadable
    or unparseable files. Every result is in file-name order.

    Every file is read and hashed. It is parsed only when ``record``
    holds no entry for its hash, or when its entry names an updated
    dataset; that parse then decides whether it runs, so a stale record
    never runs bytes that do not parse. ``record.entries`` becomes what
    the walk found; an unreadable file has no entry.
    """
    references: Dict[str, List[str]] = {}
    selected: Dict[str, AnalysisPayload] = {}
    broken: List[str] = []
    known = record.entries if record is not None else {}
    found: Dict[str, dict] = {}
    registry = Path(registry_dir)
    for path in sorted(registry.glob("*.json")) if registry.is_dir() else ():
        try:
            data = path.read_bytes()
        except OSError:
            broken.append(path.name)
            continue
        sha256 = hashlib.sha256(data).hexdigest()
        entry, payload = known.get(path.name), None
        if (
            entry is None
            or entry["sha256"] != sha256
            or (entry["datasets"] is not None and not updated.isdisjoint(entry["datasets"]))
        ):
            entry, payload = _parsed_entry(sha256, data)
        found[path.name] = entry
        if entry["datasets"] is None:
            broken.append(path.name)
            continue
        references[path.name] = entry["datasets"]
        if not updated.isdisjoint(entry["datasets"]):
            selected[path.name] = payload
    if record is not None:
        record.entries = found
    return references, selected, broken


def select_affected_payloads(
    updates: List[UpdateRecord],
    registry_dir: Union[str, Path],
    record: Optional[RegistryRecord] = None,
) -> Tuple[Dict[str, AnalysisPayload], List[str]]:
    """Parsed payloads referencing at least one updated dataset, by file
    name, and the names of the unreadable or unparseable payload files.

    Deterministic (lexicographic by file name); unparseable payloads are
    reported back, never fatal. With ``record``, only new, changed and
    selected files are parsed (see ``payload_index``).
    """
    _, selected, broken = payload_index(
        registry_dir, record, {u.dataset for u in updates}
    )
    return selected, broken


def run_payload_file(
    name: str,
    payload: AnalysisPayload,
    warehouse: Warehouse,
    cache: DatasetCache,
    manifest: Optional[Dict[str, dict]] = None,
) -> RunOutcome:
    """Validate, resolve, execute and store one parsed payload.

    The one payload path of both ``sync`` and ``a4l run``; ``name`` is
    the payload's file name. ``manifest`` holds the entries of
    ``warehouse.manifest()``, which are read now when not given;
    validation and execution both use them, so they see the same
    versions. ``cache`` shares loaded datasets with the other payloads of
    a cycle. A referenced dataset that cannot be read or parsed fails
    this payload only, with status ``error``.
    """
    try:
        if manifest is None:
            manifest = warehouse.manifest()
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


def run_cycle(root: Union[str, Path]) -> SyncReport:
    """One full orchestration cycle over the pipeline root.

    Raises LockHeldError (without side effects) when another cycle is
    active. Per-payload failures, an unexpected exception included, are
    recorded in the report and never abort the remaining payloads. The
    manifest is read once, and the registry record is written only when
    a payload file was added, changed or removed.
    """
    root = Path(root)
    with CycleLock(root / ".a4l.lock") as lock:
        report = SyncReport(scanned_at=utc_now_rfc3339())
        warehouse = Warehouse(root)
        scan = scan_store(root / "store")
        manifest = warehouse.manifest()
        updates = sync_warehouse(scan, warehouse, lock, manifest)
        report.updated = updates

        record = RegistryRecord(warehouse.reconcile_path)
        selected, broken = select_affected_payloads(updates, root / "payloads", record)
        record.save()
        report.selected_payloads = list(selected)
        for name in broken:
            report.run_outcomes.append(
                RunOutcome(payload_file=name, status="parse_failed", detail="unparseable payload")
            )

        # Each dataset is parsed once per cycle and dropped as soon as no
        # remaining selected payload references it.
        cache = DatasetCache()
        pending = Counter(d for payload in selected.values() for d in payload.datasets())
        for name, payload in selected.items():
            try:
                outcome = run_payload_file(name, payload, warehouse, cache, manifest)
            except Exception as exc:  # a defect fails its own payload only
                outcome = RunOutcome(payload_file=name, status="error", detail=internal_error(exc))
            report.run_outcomes.append(outcome)
            pending.subtract(payload.datasets())
            cache.retain(d for d, count in pending.items() if count > 0)

        runs_dir = root / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(asdict(report), indent=2) + "\n"
        atomic_write(runs_dir / f"{report.scanned_at}.json", text.encode("utf-8"))
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
