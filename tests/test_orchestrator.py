"""Scan, sync, selection and the full cycle."""

import hashlib
import json
import os
import subprocess
import sys

import weakref

import pytest

from a4l_analytics import orchestrator
from a4l_analytics.dataset import Warehouse, sha256_file
from a4l_analytics.errors import LockHeldError
from a4l_analytics.orchestrator import (
    CycleLock,
    run_cycle,
    scan_store,
    select_affected_payloads,
    sync_warehouse,
    watch,
)
from conftest import add_domain, build_root, xyz_csv


class TestScanStore:
    def test_empty_store(self, tmp_path):
        (tmp_path / "store").mkdir()
        assert scan_store(tmp_path / "store") == {}

    def test_hash_matches_independent_tool(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "d.csv").write_bytes(b"a\n1\n")
        expected = hashlib.sha256(b"a\n1\n").hexdigest()
        assert scan_store(store) == {"d": expected}

    def test_mtime_ignored(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        path = store / "d.csv"
        path.write_bytes(b"a\n1\n")
        first = scan_store(store)
        os.utime(path, (1, 1))
        assert scan_store(store) == first


class TestSyncWarehouse:
    def _locked(self, root):
        lock = CycleLock(root / ".a4l.lock")
        assert lock.acquire()
        return lock

    def test_requires_lock(self, domain_root):
        lock = CycleLock(domain_root / ".a4l.lock")  # never acquired
        with pytest.raises(Exception, match="lock"):
            sync_warehouse({}, Warehouse(domain_root), lock)

    def test_noop_leaves_manifest_untouched(self, domain_root):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            sync_warehouse(scan_store(domain_root / "store"), wh, lock)
            before = wh.manifest_path.read_bytes()
            updates = sync_warehouse(scan_store(domain_root / "store"), wh, lock)
            assert updates == []
            assert wh.manifest_path.read_bytes() == before
        finally:
            lock.release()

    def test_new_dataset_has_no_archive(self, domain_root):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            updates = sync_warehouse(scan_store(domain_root / "store"), wh, lock)
        finally:
            lock.release()
        assert len(updates) == 3
        assert all(u.old_sha256 is None and u.archived_to is None for u in updates)

    def test_changed_dataset_archived_with_old_bytes(self, domain_root):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            sync_warehouse(scan_store(domain_root / "store"), wh, lock)
            old_bytes = wh.dataset_path("jw_fall23_usage").read_bytes()
            old_sha = wh.manifest()["jw_fall23_usage"]["sha256"]

            store_file = domain_root / "store" / "jw_fall23_usage.csv"
            store_file.write_text(
                store_file.read_text(encoding="utf-8") + "true,91.00,<25\n",
                encoding="utf-8",
            )
            updates = sync_warehouse(scan_store(domain_root / "store"), wh, lock)
        finally:
            lock.release()
        assert len(updates) == 1
        record = updates[0]
        assert record.dataset == "jw_fall23_usage"
        assert record.old_sha256 == old_sha
        archived = domain_root / record.archived_to
        assert archived.read_bytes() == old_bytes
        assert sha256_file(archived) == old_sha


class TestSelection:
    def test_exact_selection(self, synced_root):
        updates = [
            type("U", (), {"dataset": "sami_fall24_usage"})(),
        ]
        selected, broken = select_affected_payloads(updates, synced_root / "payloads")
        assert [p.name for p in selected] == ["sami_fall24.json"]
        assert broken == []

    def test_shared_dataset_selects_both(self, synced_root):
        extra = {
            "payload_version": 1,
            "domain": "meta",
            "analyses": [
                {
                    "statistic": "get_descriptives",
                    "dataset": "sami_fall24_usage",
                    "independent": "used_sami",
                    "dependent": ["sob_score"],
                    "result_file": "meta_descriptives",
                }
            ],
            "output": {"bucket": "meta", "prefix": ""},
        }
        (synced_root / "payloads" / "meta.json").write_text(
            json.dumps(extra), encoding="utf-8"
        )
        updates = [type("U", (), {"dataset": "sami_fall24_usage"})()]
        selected, _ = select_affected_payloads(updates, synced_root / "payloads")
        assert [p.name for p in selected] == ["meta.json", "sami_fall24.json"]

    def test_no_updates_selects_nothing(self, synced_root):
        selected, _ = select_affected_payloads([], synced_root / "payloads")
        assert selected == []

    def test_unparseable_payload_reported_not_fatal(self, synced_root):
        (synced_root / "payloads" / "broken.json").write_text(
            "{nope", encoding="utf-8"
        )
        updates = [type("U", (), {"dataset": "sami_fall24_usage"})()]
        selected, broken = select_affected_payloads(updates, synced_root / "payloads")
        assert broken == ["broken.json"]
        assert [p.name for p in selected] == ["sami_fall24.json"]


class TestCycleLock:
    def test_dead_pid_written_over_a_held_lock_does_not_free_it(self, tmp_path):
        # the lock is the flock, not the file's contents
        path = tmp_path / ".a4l.lock"
        first = CycleLock(path)
        assert first.acquire()
        try:
            path.write_text(
                json.dumps({"pid": 2**22 + 12345, "started": "x"}), encoding="utf-8"
            )
            second = CycleLock(path)
            assert not second.acquire()
            assert not second.held
        finally:
            first.release()

    def test_lock_of_a_killed_holder_is_free(self, tmp_path):
        path = tmp_path / ".a4l.lock"
        holder_code = (
            "import sys\n"
            "from a4l_analytics.orchestrator import CycleLock\n"
            "lock = CycleLock(sys.argv[1])\n"
            "print('held' if lock.acquire() else 'busy', flush=True)\n"
            "sys.stdin.read()\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", holder_code, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                assert not CycleLock(path).acquire()
            finally:
                holder.kill()
        lock = CycleLock(path)
        assert lock.acquire()
        lock.release()
        assert path.exists()


class TestRunCycle:
    def test_first_cycle_runs_everything(self, domain_root):
        report = run_cycle(domain_root)
        assert len(report.updated) == 3
        assert sorted(report.selected_payloads) == [
            "jw_fall23.json",
            "sami_fall24.json",
            "vera_summer23.json",
        ]
        assert report.all_ok()
        assert (domain_root / "results" / "jw" / "jw_fall23_ttest.json").is_file()

    def test_idempotent(self, domain_root):
        run_cycle(domain_root)
        second = run_cycle(domain_root)
        assert second.updated == []
        assert second.selected_payloads == []
        assert second.run_outcomes == []

    def test_only_affected_payloads_rerun(self, synced_root):
        store_file = synced_root / "store" / "sami_fall24_usage.csv"
        store_file.write_text(
            store_file.read_text(encoding="utf-8") + "true,4.1,3.3,4.4,3.6,<25,male\n",
            encoding="utf-8",
        )
        report = run_cycle(synced_root)
        assert [u.dataset for u in report.updated] == ["sami_fall24_usage"]
        assert report.selected_payloads == ["sami_fall24.json"]
        assert report.updated[0].archived_to is not None
        refreshed = json.loads(
            (synced_root / "results" / "sami" / "sami_fall24_ttest_power.json")
            .read_text(encoding="utf-8")
        )
        assert refreshed["dataset"]["sha256"] == report.updated[0].new_sha256

    def test_report_persisted(self, domain_root):
        report = run_cycle(domain_root)
        runs = list((domain_root / "runs").glob("*.json"))
        assert len(runs) == 1
        stored = json.loads(runs[0].read_text(encoding="utf-8"))
        assert stored["scanned_at"] == report.scanned_at
        assert len(stored["updated"]) == 3

    def test_lock_contention_no_side_effects(self, domain_root):
        lock = CycleLock(domain_root / ".a4l.lock")
        assert lock.acquire()
        try:
            with pytest.raises(LockHeldError):
                run_cycle(domain_root)
        finally:
            lock.release()
        assert not (domain_root / "warehouse").exists()

    def test_stale_lock_reclaimed(self, domain_root):
        # a lock from a dead pid must not block the cycle forever
        (domain_root / ".a4l.lock").write_text(
            json.dumps({"pid": 2**22 + 12345, "started": "x"}), encoding="utf-8"
        )
        report = run_cycle(domain_root)
        assert len(report.updated) == 3

    def test_partial_failure_isolated(self, domain_root):
        # one payload references a column the dataset lost; the other
        # payloads still run and the cycle completes
        bad = {
            "payload_version": 1,
            "domain": "bad",
            "analyses": [
                {
                    "statistic": "get_welch_ttest",
                    "dataset": "jw_fall23_usage",
                    "independent": "used_jw",
                    "dependent": ["vanished_column"],
                    "result_file": "bad_ttest",
                }
            ],
            "output": {"bucket": "bad", "prefix": ""},
        }
        (domain_root / "payloads" / "bad.json").write_text(
            json.dumps(bad), encoding="utf-8"
        )
        report = run_cycle(domain_root)
        by_file = {o.payload_file: o for o in report.run_outcomes}
        assert by_file["bad.json"].status == "validation_failed"
        assert "vanished_column" in by_file["bad.json"].detail
        assert by_file["jw_fall23.json"].status == "ok"
        assert not report.all_ok()

    def test_crash_between_sync_and_run_is_safe(self, domain_root):
        # simulate a crash after sync by syncing without running
        wh = Warehouse(domain_root)
        lock = CycleLock(domain_root / ".a4l.lock")
        assert lock.acquire()
        try:
            sync_warehouse(scan_store(domain_root / "store"), wh, lock)
        finally:
            lock.release()
        # next cycle: manifest valid, nothing spuriously selected
        report = run_cycle(domain_root)
        assert report.updated == []
        assert report.selected_payloads == []

    def test_xyz_domain_via_payload_only(self, synced_root):
        add_domain(synced_root, "xyz")
        report = run_cycle(synced_root)
        assert [u.dataset for u in report.updated] == ["xyz_spring25_usage"]
        assert report.selected_payloads == ["xyz_spring25.json"]
        assert (synced_root / "results" / "xyz" / "xyz_spring25_ttest.json").is_file()


def _meta_payload(datasets):
    """A payload with one descriptives request on each named dataset."""
    independents = {
        "jw_fall23_usage": ("used_jw", "course_final_score"),
        "sami_fall24_usage": ("used_sami", "sob_score"),
        "vera_summer23_usage": ("used_vera", "nfc_score"),
    }
    analyses = []
    for i, name in enumerate(datasets):
        independent, dependent = independents[name]
        analyses.append(
            {
                "statistic": "get_descriptives",
                "dataset": name,
                "independent": independent,
                "dependent": [dependent],
                "result_file": f"meta_{i}",
            }
        )
    return {
        "payload_version": 1,
        "domain": "meta",
        "analyses": analyses,
        "output": {"bucket": "meta", "prefix": ""},
    }


def _ragged_vera(root):
    store = root / "store" / "vera_summer23_usage.csv"
    store.write_text(
        store.read_text(encoding="utf-8") + "true,3.1\n", encoding="utf-8"
    )


class TestParseOnce:
    def test_cycle_parses_each_referenced_dataset_once(self, domain_root, parses):
        # meta.json shares two datasets with other payloads; xyz is synced
        # but referenced by no payload
        (domain_root / "payloads" / "meta.json").write_text(
            json.dumps(_meta_payload(["sami_fall24_usage", "jw_fall23_usage"])),
            encoding="utf-8",
        )
        (domain_root / "store" / "xyz_spring25_usage.csv").write_text(
            xyz_csv(), encoding="utf-8"
        )
        report = run_cycle(domain_root)
        assert report.all_ok()
        assert len(report.selected_payloads) == 4
        assert sorted(parses) == [
            "jw_fall23_usage",
            "sami_fall24_usage",
            "vera_summer23_usage",
        ]

    def test_each_cycle_parses_afresh(self, tmp_path, parses):
        # identical bytes in two roots: a cache that outlived its cycle
        # would serve the second cycle without parsing
        for name in ("a", "b"):
            run_cycle(build_root(tmp_path / name))
        assert sorted(parses) == sorted(
            ["jw_fall23_usage", "sami_fall24_usage", "vera_summer23_usage"] * 2
        )

    def test_only_changed_dataset_parsed(self, synced_root, parses):
        store = synced_root / "store" / "vera_summer23_usage.csv"
        store.write_text(
            store.read_text(encoding="utf-8") + "true,3.10,3.20,3.30,3.40,female\n",
            encoding="utf-8",
        )
        report = run_cycle(synced_root)
        assert report.selected_payloads == ["vera_summer23.json"]
        assert parses == ["vera_summer23_usage"]

    def test_documents_carry_hash_of_analysed_bytes(self, domain_root):
        report = run_cycle(domain_root)
        warehouse = Warehouse(domain_root)
        for outcome in report.run_outcomes:
            for key in outcome.result_keys:
                doc = json.loads(
                    (domain_root / "results" / key).read_text(encoding="utf-8")
                )
                name = doc["dataset"]["name"]
                data = warehouse.dataset_path(name).read_bytes()
                assert doc["dataset"]["sha256"] == hashlib.sha256(data).hexdigest()

    def test_dataset_freed_after_its_last_payload(self, domain_root, monkeypatch):
        (domain_root / "payloads" / "meta.json").write_text(
            json.dumps(_meta_payload(["jw_fall23_usage", "sami_fall24_usage"])),
            encoding="utf-8",
        )
        alive = {}
        seen = []
        original_get = orchestrator.DatasetCache.get
        original_run = orchestrator.run_payload_file

        def tracking_get(self, name, sha256, path):
            ds = original_get(self, name, sha256, path)
            alive[name] = weakref.ref(ds)
            return ds

        def recording_run(path, warehouse, cache):
            live = sorted(n for n, ref in alive.items() if ref() is not None)
            seen.append((path.name, live))
            return original_run(path, warehouse, cache)

        monkeypatch.setattr(orchestrator.DatasetCache, "get", tracking_get)
        monkeypatch.setattr(orchestrator, "run_payload_file", recording_run)
        run_cycle(domain_root)
        assert seen == [
            ("jw_fall23.json", []),
            ("meta.json", ["jw_fall23_usage"]),
            ("sami_fall24.json", ["sami_fall24_usage"]),
            ("vera_summer23.json", []),
        ]


class TestBrokenDataset:
    def test_ragged_csv_fails_only_its_payloads(self, domain_root):
        _ragged_vera(domain_root)
        report = run_cycle(domain_root)
        by_file = {o.payload_file: o for o in report.run_outcomes}
        assert by_file["vera_summer23.json"].status == "error"
        assert "ragged row" in by_file["vera_summer23.json"].detail
        assert by_file["jw_fall23.json"].status == "ok"
        assert by_file["sami_fall24.json"].status == "ok"
        assert (domain_root / "results" / "sami" / "sami_fall24_ttest.json").is_file()
        (stored,) = (domain_root / "runs").glob("*.json")
        statuses = {
            o["payload_file"]: o["status"]
            for o in json.loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert statuses["vera_summer23.json"] == "error"


class TestWatch:
    def test_watch_yields_reports(self, domain_root):
        reports = list(watch(domain_root, interval_seconds=0.01, cycles=2))
        assert len(reports) == 2
        assert len(reports[0].updated) == 3
        assert reports[1].updated == []
