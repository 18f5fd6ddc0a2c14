"""The scheduled cycle: scan, sync, select, run.

One cycle scans the published data store, pulls changed datasets into
the warehouse (archiving whatever they replace), figures out which
payloads reference the updated datasets, and runs exactly those. The
cycle is idempotent: re-running against an unchanged store selects
nothing. A lock file makes cycles mutually exclusive; dataset hashes
(not timestamps) decide what counts as new data.
"""

import fcntl
import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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
    scan: Dict[str, str], warehouse: Warehouse, lock: CycleLock
) -> List[UpdateRecord]:
    """Pull changed store files into the warehouse, archiving old bytes.

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


def payload_index(
    registry_dir: Union[str, Path],
) -> Tuple[Dict[str, AnalysisPayload], List[str]]:
    """Parse every payload file of the registry, by file name; also
    returns the names of unreadable or unparseable payload files."""
    index: Dict[str, AnalysisPayload] = {}
    broken: List[str] = []
    registry = Path(registry_dir)
    if not registry.is_dir():
        return index, broken
    for path in sorted(registry.glob("*.json")):
        try:
            index[path.name] = parse_payload(path.read_bytes())
        except (PayloadError, OSError):
            broken.append(path.name)
    return index, broken


def select_affected_payloads(
    updates: List[UpdateRecord], registry_dir: Union[str, Path]
) -> Tuple[Dict[str, AnalysisPayload], List[str]]:
    """Parsed payloads referencing at least one updated dataset, by file
    name.

    Deterministic (lexicographic by file name); unparseable payloads are
    reported back, never fatal.
    """
    updated_names = {u.dataset for u in updates}
    index, broken = payload_index(registry_dir)
    selected = {
        name: payload
        for name, payload in index.items()
        if not updated_names.isdisjoint(payload.datasets())
    }
    return selected, broken


def run_payload_file(
    name: str, payload: AnalysisPayload, warehouse: Warehouse, cache: DatasetCache
) -> RunOutcome:
    """Validate, resolve, execute and store one parsed payload.

    The one payload path of both ``sync`` and ``a4l run``; ``name`` is
    the payload's file name. The manifest is read once, so validation
    and execution see the same versions. ``cache`` shares loaded
    datasets with the other payloads of a cycle. A referenced dataset
    that cannot be read or parsed fails this payload only, with status
    ``error``.
    """
    try:
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


def run_cycle(root: Union[str, Path]) -> SyncReport:
    """One full orchestration cycle over the pipeline root.

    Raises LockHeldError (without side effects) when another cycle is
    active. Per-payload failures are recorded in the report and never
    abort the remaining payloads.
    """
    root = Path(root)
    with CycleLock(root / ".a4l.lock") as lock:
        report = SyncReport(scanned_at=utc_now_rfc3339())
        warehouse = Warehouse(root)
        scan = scan_store(root / "store")
        updates = sync_warehouse(scan, warehouse, lock)
        report.updated = updates

        selected, broken = select_affected_payloads(updates, root / "payloads")
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
            report.run_outcomes.append(run_payload_file(name, payload, warehouse, cache))
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
