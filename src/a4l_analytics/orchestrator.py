"""The scheduled cycle: scan, sync, select, run.

One cycle scans the published data store, pulls changed datasets into
the warehouse (archiving whatever they replace), figures out which
payloads reference the updated datasets, and runs exactly those. The
cycle is idempotent: re-running against an unchanged store selects
nothing. A lock file makes cycles mutually exclusive; dataset hashes
(not timestamps) decide what counts as new data.
"""

import fcntl
import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .dataset import DatasetCache, Warehouse, sha256_file
from .errors import A4LError, LockHeldError, PayloadError
from .payload import AnalysisPayload, parse_payload, validate_payload
from .runner import execute_payload, utc_now_rfc3339, write_result
from .dataset import fetch_to_staging


@dataclass
class UpdateRecord:
    """One dataset that changed during sync."""

    dataset: str
    new_sha256: str
    old_sha256: Optional[str] = None
    archived_to: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "new_sha256": self.new_sha256,
            "old_sha256": self.old_sha256,
            "archived_to": self.archived_to,
        }


@dataclass
class RunOutcome:
    """Result of running one selected payload during a cycle."""

    payload_file: str
    status: str  # ok | partial | validation_failed | parse_failed | error
    result_keys: List[str] = field(default_factory=list)
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "payload_file": self.payload_file,
            "status": self.status,
            "result_keys": self.result_keys,
            "detail": self.detail,
        }


@dataclass
class SyncReport:
    scanned_at: str
    updated: List[UpdateRecord] = field(default_factory=list)
    selected_payloads: List[str] = field(default_factory=list)
    run_outcomes: List[RunOutcome] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scanned_at": self.scanned_at,
            "updated": [u.to_dict() for u in self.updated],
            "selected_payloads": self.selected_payloads,
            "run_outcomes": [o.to_dict() for o in self.run_outcomes],
        }

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
    absent from it), the existing warehouse file moves to
    archive/<name>/<timestamp>.csv before the new bytes are copied in.
    The manifest is rewritten atomically at the end.
    """
    if not lock.held:
        raise A4LError("sync_warehouse requires the cycle lock to be held")

    manifest = warehouse.manifest()
    store_dir = warehouse.root / "store"
    updates: List[UpdateRecord] = []

    for name in sorted(scan):
        new_sha = scan[name]
        entry = manifest.get(name)
        if entry is not None and entry.get("sha256") == new_sha:
            continue

        record = UpdateRecord(dataset=name, new_sha256=new_sha)
        target = warehouse.dataset_path(name)
        if entry is not None and target.exists():
            record.old_sha256 = entry.get("sha256")
            archive_dir = warehouse.archive_dir / name
            archive_dir.mkdir(parents=True, exist_ok=True)
            archive_path = archive_dir / f"{utc_now_rfc3339()}.csv"
            shutil.move(str(target), str(archive_path))
            record.archived_to = str(archive_path.relative_to(warehouse.root))

        warehouse.dir.mkdir(parents=True, exist_ok=True)
        source = store_dir / f"{name}.csv"
        shutil.copy2(source, target)
        manifest[name] = {
            "sha256": new_sha,
            "bytes": target.stat().st_size,
            "updated": utc_now_rfc3339(),
        }
        updates.append(record)

    if updates:
        warehouse.write_manifest(manifest)
    return updates


def payload_index(
    registry_dir: Union[str, Path],
) -> Tuple[Dict[str, List[str]], List[str]]:
    """Map payload file name -> referenced datasets; also returns the
    names of unparseable payload files."""
    index: Dict[str, List[str]] = {}
    broken: List[str] = []
    registry = Path(registry_dir)
    if not registry.is_dir():
        return index, broken
    for path in sorted(registry.glob("*.json")):
        try:
            payload = parse_payload(path.read_bytes())
        except (PayloadError, OSError):
            broken.append(path.name)
            continue
        index[path.name] = sorted(payload.datasets())
    return index, broken


def select_affected_payloads(
    updates: List[UpdateRecord],
    registry_dir: Union[str, Path],
    references: Optional[Dict[str, FrozenSet[str]]] = None,
) -> Tuple[List[Path], List[str]]:
    """Payload files referencing at least one updated dataset.

    Deterministic (lexicographic by file name); unparseable payloads are
    reported back, never fatal. When ``references`` is given, it receives
    the datasets each selected payload references, keyed by file name.
    """
    updated_names = {u.dataset for u in updates}
    index, broken = payload_index(registry_dir)
    selected: List[Path] = []
    for name, datasets in index.items():
        if updated_names.intersection(datasets):
            selected.append(Path(registry_dir, name))
            if references is not None:
                references[name] = frozenset(datasets)
    return selected, broken


def run_payload_file(
    payload_path: Union[str, Path], warehouse: Warehouse, cache: DatasetCache
) -> RunOutcome:
    """Validate, stage, execute and store one payload file.

    ``cache`` shares parsed datasets with the other payloads of a cycle.
    A referenced dataset that cannot be read or parsed fails this
    payload only, with status ``error``.
    """
    payload_path = Path(payload_path)
    try:
        payload = parse_payload(payload_path.read_bytes())
    except PayloadError as exc:
        return RunOutcome(
            payload_file=payload_path.name, status="parse_failed", detail=str(exc)
        )

    try:
        report = validate_payload(payload, catalog=warehouse.column_catalog(cache))
    except (A4LError, OSError) as exc:
        return RunOutcome(payload_file=payload_path.name, status="error", detail=str(exc))
    if not report.ok:
        return RunOutcome(
            payload_file=payload_path.name,
            status="validation_failed",
            detail=report.render(),
        )

    results_root = warehouse.root / "results"
    keys: List[str] = []
    any_errors = False
    try:
        with fetch_to_staging(sorted(payload.datasets()), warehouse) as staged:
            for doc in execute_payload(payload, staged, cache):
                key = write_result(doc, payload.output, results_root)
                keys.append(key.as_path())
                any_errors = any_errors or doc.has_errors()
    except (A4LError, OSError) as exc:
        return RunOutcome(
            payload_file=payload_path.name,
            status="error",
            result_keys=keys,
            detail=str(exc),
        )
    return RunOutcome(
        payload_file=payload_path.name,
        status="partial" if any_errors else "ok",
        result_keys=keys,
    )


def run_cycle(root: Union[str, Path]) -> SyncReport:
    """One full orchestration cycle over the pipeline root.

    Raises LockHeldError (without side effects) when another cycle is
    active. Per-payload failures are recorded in the report and never
    abort the remaining payloads.
    """
    root = Path(root)
    lock = CycleLock(root / ".a4l.lock")
    if not lock.acquire():
        raise LockHeldError(f"another cycle holds {lock.path}")
    try:
        report = SyncReport(scanned_at=utc_now_rfc3339())
        warehouse = Warehouse(root)
        scan = scan_store(root / "store")
        updates = sync_warehouse(scan, warehouse, lock)
        report.updated = updates

        references: Dict[str, FrozenSet[str]] = {}
        selected, broken = select_affected_payloads(
            updates, root / "payloads", references
        )
        report.selected_payloads = [p.name for p in selected]
        for name in broken:
            report.run_outcomes.append(
                RunOutcome(payload_file=name, status="parse_failed", detail="unparseable payload")
            )

        # Each dataset is parsed once per cycle and dropped as soon as no
        # remaining selected payload references it.
        cache = DatasetCache()
        pending = Counter(name for p in selected for name in references[p.name])
        for path in selected:
            report.run_outcomes.append(run_payload_file(path, warehouse, cache))
            pending.subtract(references[path.name])
            cache.retain(name for name, count in pending.items() if count > 0)

        runs_dir = root / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        report_path = runs_dir / f"{report.scanned_at}.json"
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return report
    finally:
        lock.release()


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
