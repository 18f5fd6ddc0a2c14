"""Scan, sync, selection and the full cycle."""

import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
import zlib
from pathlib import Path

import pytest

from a4l_analytics import orchestrator
from a4l_analytics.cli import main as a4l
from a4l_analytics.dataset import Warehouse, sha256_file
from a4l_analytics.errors import A4LError, LockHeldError
from a4l_analytics.orchestrator import (
    CycleLock,
    run_cycle,
    scan_store,
    select_affected_payloads,
    sync_warehouse,
    watch,
)
from conftest import (
    add_domain,
    build_root,
    hostile_payloads,
    huge_vera_cell,
    huge_vera_group,
    xyz_csv,
)
from schema_check import strict_loads


class TestScanStore:
    def test_empty_store(self, tmp_path, empty_record):
        (tmp_path / "store").mkdir()
        assert scan_store(tmp_path / "store", empty_record, None) == {}

    def test_hash_matches_independent_tool(self, tmp_path, empty_record):
        store = tmp_path / "store"
        store.mkdir()
        (store / "d.csv").write_bytes(b"a\n1\n")
        expected = hashlib.sha256(b"a\n1\n").hexdigest()
        assert scan_store(store, empty_record, None) == {"d": expected}

    def test_mtime_ignored(self, tmp_path, empty_record):
        store = tmp_path / "store"
        store.mkdir()
        path = store / "d.csv"
        path.write_bytes(b"a\n1\n")
        first = scan_store(store, empty_record, None)
        os.utime(path, (1, 1))
        assert scan_store(store, empty_record, None) == first

    # names Path.glob("*.csv") and Path.glob("*.json") tell apart: case,
    # hidden files, a bare suffix, near misses
    NAMES = [
        "a.csv", "B.csv", "c.CSV", "d.Csv", ".hidden.csv", ".csv", "..csv",
        "e.csv.bak", "f.csvx", "g csv", "h.json", "I.JSON", ".j.json", "k.json~",
    ]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_listing_selects_what_glob_selects(self, tmp_path, suffix):
        for name in self.NAMES:
            (tmp_path / name).write_bytes(b"a\n1\n")
        (tmp_path / f"dir{suffix}").mkdir()
        (tmp_path / "sub").mkdir()
        listed = [e.name for e in orchestrator._listing(tmp_path, suffix)]
        assert listed == sorted(p.name for p in tmp_path.glob(f"*{suffix}"))
        assert f"dir{suffix}" in listed

    def test_dataset_names_are_path_stems(self, tmp_path, empty_record):
        store = tmp_path / "store"
        store.mkdir()
        for name in self.NAMES:
            (store / name).write_bytes(b"a\n1\n")
        # a file named just ".csv" names no dataset
        stems = sorted(p.stem for p in store.glob("*.csv") if p.name != ".csv")
        assert list(scan_store(store, empty_record, None)) == stems == [".", ".hidden", "B", "a"]

    def test_directory_named_csv_is_an_unreadable_store_file(self, tmp_path, empty_record):
        store = tmp_path / "store"
        store.mkdir()
        (store / "d.csv").write_bytes(b"a\n1\n")
        (store / "x.csv").mkdir()
        record = orchestrator.RegistryRecord(tmp_path / "reconcile.json")
        for args in ((empty_record, None), (record, time.time_ns())):
            with pytest.raises(A4LError, match="unreadable store file .*x.csv"):
                scan_store(store, *args)


class TestSyncWarehouse:
    def _locked(self, root):
        lock = CycleLock(root / ".a4l.lock")
        assert lock.acquire()
        return lock

    def _sync(self, wh, lock, record):
        """Sync ``wh`` from a scan of its store over ``record``, with no
        lock stamp, against the manifest on disk."""
        return sync_warehouse(scan_store(wh.root / "store", record, None), wh, lock, wh.manifest())

    def test_requires_lock(self, domain_root):
        lock = CycleLock(domain_root / ".a4l.lock")  # never acquired
        with pytest.raises(Exception, match="lock"):
            sync_warehouse({}, Warehouse(domain_root), lock, {})

    def test_noop_leaves_manifest_untouched(self, domain_root, empty_record):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            self._sync(wh, lock, empty_record)
            before = wh.manifest_path.read_bytes()
            updates = self._sync(wh, lock, empty_record)
            assert updates == []
            assert wh.manifest_path.read_bytes() == before
        finally:
            lock.release()

    def test_new_dataset_has_no_archive(self, domain_root, empty_record):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            updates = self._sync(wh, lock, empty_record)
        finally:
            lock.release()
        assert len(updates) == 3
        assert all(u.old_sha256 is None and u.archived_to is None for u in updates)

    def test_changed_dataset_archived_with_old_bytes(self, domain_root, empty_record):
        wh = Warehouse(domain_root)
        lock = self._locked(domain_root)
        try:
            self._sync(wh, lock, empty_record)
            old_bytes = wh.dataset_path("jw_fall23_usage").read_bytes()
            old_sha = wh.manifest()["jw_fall23_usage"]["sha256"]

            store_file = domain_root / "store" / "jw_fall23_usage.csv"
            store_file.write_text(
                store_file.read_text(encoding="utf-8") + "true,91.00,<25\n",
                encoding="utf-8",
            )
            updates = self._sync(wh, lock, empty_record)
        finally:
            lock.release()
        assert len(updates) == 1
        record = updates[0]
        assert record.dataset == "jw_fall23_usage"
        assert record.old_sha256 == old_sha
        archived = domain_root / record.archived_to
        assert archived.read_bytes() == old_bytes
        assert sha256_file(archived) == old_sha

    def test_old_file_stays_whole_until_the_new_one_replaces_it(
        self, domain_root, monkeypatch, empty_record
    ):
        wh = Warehouse(domain_root)
        target = wh.dataset_path("jw_fall23_usage")
        archive_dir = wh.archive_dir / "jw_fall23_usage"
        seen = []
        real_replace = os.replace

        def checking_replace(src, dst):
            if Path(dst) == target:
                seen.append(
                    (
                        target.read_bytes(),
                        [p.read_bytes() for p in archive_dir.glob("*.csv")],
                        Path(src).parent,
                        Path(src).read_bytes(),
                    )
                )
            real_replace(src, dst)

        lock = self._locked(domain_root)
        try:
            self._sync(wh, lock, empty_record)
            old_bytes = target.read_bytes()
            store_file = domain_root / "store" / "jw_fall23_usage.csv"
            store_file.write_bytes(store_file.read_bytes() + b"true,91.00,<25\n")
            monkeypatch.setattr(os, "replace", checking_replace)
            (record,) = self._sync(wh, lock, empty_record)
        finally:
            lock.release()
        new_bytes = store_file.read_bytes()
        assert seen == [(old_bytes, [old_bytes], wh.dir, new_bytes)]
        assert target.read_bytes() == new_bytes
        assert (domain_root / record.archived_to).read_bytes() == old_bytes
        assert sorted(p.name for p in wh.dir.iterdir()) == [
            "jw_fall23_usage.csv",
            "manifest.json",
            "sami_fall24_usage.csv",
            "vera_summer23_usage.csv",
        ]


    def test_failed_manifest_write_does_not_archive_the_new_bytes(
        self, synced_root, monkeypatch
    ):
        wh = Warehouse(synced_root)
        name = "jw_fall23_usage"
        old_bytes = wh.dataset_path(name).read_bytes()
        old_sha = wh.manifest()[name]["sha256"]
        store_file = synced_root / "store" / f"{name}.csv"
        store_file.write_bytes(old_bytes + b"true,91.00,<25\n")

        real_write_manifest = Warehouse.write_manifest
        calls = []

        def fails_once(self, entries):
            calls.append(entries)
            if len(calls) == 1:
                raise OSError("injected manifest write failure")
            real_write_manifest(self, entries)

        monkeypatch.setattr(Warehouse, "write_manifest", fails_once)
        with pytest.raises(OSError, match="injected"):
            run_cycle(synced_root)
        # the warehouse file already holds the new bytes; the manifest
        # still names the old ones
        assert wh.dataset_path(name).read_bytes() == store_file.read_bytes()
        assert wh.manifest()[name]["sha256"] == old_sha

        report = run_cycle(synced_root)
        (record,) = report.updated
        archive = wh.archive_dir / name
        assert [p.name for p in archive.iterdir()] == [f"{old_sha}.csv"]
        assert (archive / f"{old_sha}.csv").read_bytes() == old_bytes
        assert record.old_sha256 == old_sha
        assert record.archived_to == f"archive/{name}/{old_sha}.csv"
        assert wh.manifest()[name]["sha256"] == sha256_file(store_file)

    def test_records_the_hash_of_the_bytes_copied(self, synced_root, empty_record):
        wh = Warehouse(synced_root)
        name = "jw_fall23_usage"
        store_file = synced_root / "store" / f"{name}.csv"
        first = store_file.read_bytes()
        store_file.write_bytes(first + b"true,91.00,<25\n")
        stale_scan = scan_store(synced_root / "store", empty_record, None)
        store_file.write_bytes(first + b"false,12.00,<25\n")
        lock = self._locked(synced_root)
        try:
            (record,) = sync_warehouse(stale_scan, wh, lock, wh.manifest())
        finally:
            lock.release()
        copied = sha256_file(wh.dataset_path(name))
        assert copied == sha256_file(store_file) != stale_scan[name]
        assert record.new_sha256 == copied
        assert wh.manifest()[name]["sha256"] == copied

    def test_store_file_restored_since_the_scan_is_not_an_update(self, synced_root, empty_record):
        wh = Warehouse(synced_root)
        name = "jw_fall23_usage"
        store_file = synced_root / "store" / f"{name}.csv"
        first = store_file.read_bytes()
        before = wh.manifest_path.read_bytes()
        store_file.write_bytes(first + b"true,91.00,<25\n")
        stale_scan = scan_store(synced_root / "store", empty_record, None)
        store_file.write_bytes(first)
        lock = self._locked(synced_root)
        try:
            assert sync_warehouse(stale_scan, wh, lock, wh.manifest()) == []
        finally:
            lock.release()
        assert wh.manifest_path.read_bytes() == before
        assert not (wh.archive_dir / name).exists()

    def test_archive_keeps_one_file_per_version(self, synced_root):
        wh = Warehouse(synced_root)
        name = "jw_fall23_usage"
        store_file = synced_root / "store" / f"{name}.csv"
        first = store_file.read_bytes()
        second = first + b"true,91.00,<25\n"
        for data in (second, first, second):
            store_file.write_bytes(data)
            (record,) = run_cycle(synced_root).updated
            assert (synced_root / record.archived_to).read_bytes() != data
        archive = wh.archive_dir / name
        assert sorted(p.name for p in archive.iterdir()) == sorted(
            f"{hashlib.sha256(data).hexdigest()}.csv" for data in (first, second)
        )
        for data in (first, second):
            digest = hashlib.sha256(data).hexdigest()
            assert (archive / f"{digest}.csv").read_bytes() == data


class TestColumnFiles:
    """warehouse/columns/ holds one file per version the manifest names."""

    @staticmethod
    def _named(root):
        return sorted(
            f"{entry['sha256']}.marshal" for entry in Warehouse(root).manifest().values()
        )

    def test_first_cycle_writes_one_file_per_version(self, synced_root):
        columns = synced_root / "warehouse" / "columns"
        assert sorted(os.listdir(columns)) == self._named(synced_root)

    def test_update_removes_files_of_replaced_versions(self, synced_root):
        columns = synced_root / "warehouse" / "columns"
        store = synced_root / "store" / "vera_summer23_usage.csv"
        old = columns / f"{sha256_file(store)}.marshal"
        stray_temp = columns / ".deadbeef-0123.tmp"
        stray_temp.write_bytes(b"")
        store.write_text(
            store.read_text(encoding="utf-8") + "true,3.10,3.20,3.30,3.40,female\n",
            encoding="utf-8",
        )
        assert run_cycle(synced_root).selected_payloads == ["vera_summer23.json"]
        assert not old.exists()
        assert stray_temp.exists()
        stray_temp.unlink()
        assert sorted(os.listdir(columns)) == self._named(synced_root)

    def test_idle_cycle_does_not_list_the_directory(self, synced_root, monkeypatch):
        columns = synced_root / "warehouse" / "columns"
        listed = []
        for name in ("glob", "iterdir", "rglob"):
            original = getattr(Path, name)

            def recording(self, *args, _original=original):
                listed.append(Path(self))
                return _original(self, *args)

            monkeypatch.setattr(Path, name, recording)
        scandir = os.scandir

        def recording_scandir(path="."):
            listed.append(Path(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", recording_scandir)
        assert run_cycle(synced_root).updated == []
        assert listed  # the recorders see the store scan
        assert columns not in listed


class TestManifestReads:
    def _counted(self, monkeypatch):
        reads = []
        original = Warehouse.manifest

        def counting(self):
            reads.append(self.root)
            return original(self)

        monkeypatch.setattr(Warehouse, "manifest", counting)
        return reads

    def test_read_once_per_cycle(self, domain_root, monkeypatch):
        reads = self._counted(monkeypatch)
        report = run_cycle(domain_root)
        assert len(report.selected_payloads) == 3
        assert len(reads) == 1

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_read_once_per_command(self, synced_root, monkeypatch, command):
        reads = self._counted(monkeypatch)
        payload = synced_root / "payloads" / "sami_fall24.json"
        assert a4l(["--root", str(synced_root), command, str(payload)]) == 0
        assert reads == [synced_root]


class TestSelection:
    def test_exact_selection(self, synced_root, empty_record):
        updates = [
            type("U", (), {"dataset": "sami_fall24_usage"})(),
        ]
        selected, broken = select_affected_payloads(
            updates, synced_root / "payloads", empty_record, None
        )
        assert list(selected) == ["sami_fall24.json"]
        assert selected["sami_fall24.json"].datasets() == {"sami_fall24_usage"}
        assert broken == []

    def test_shared_dataset_selects_both(self, synced_root, empty_record):
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
        selected, _ = select_affected_payloads(
            updates, synced_root / "payloads", empty_record, None
        )
        assert list(selected) == ["meta.json", "sami_fall24.json"]

    def test_no_updates_selects_nothing(self, synced_root, empty_record):
        selected, _ = select_affected_payloads([], synced_root / "payloads", empty_record, None)
        assert selected == {}

    def test_unparseable_payload_reported_not_fatal(self, synced_root, empty_record):
        (synced_root / "payloads" / "broken.json").write_text(
            "{nope", encoding="utf-8"
        )
        updates = [type("U", (), {"dataset": "sami_fall24_usage"})()]
        selected, broken = select_affected_payloads(
            updates, synced_root / "payloads", empty_record, None
        )
        assert broken == ["broken.json"]
        assert list(selected) == ["sami_fall24.json"]


def _read_record(root):
    return json.loads((root / "warehouse" / "reconcile.json").read_text(encoding="utf-8"))


def _touch_store(root, name="sami_fall24_usage"):
    """Append a copy of a data row to a store file, so the next cycle
    updates that dataset."""
    path = root / "store" / f"{name}.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")


class TestRegistryRecord:
    """warehouse/reconcile.json: payload files are parsed once per hash."""

    PAYLOADS = ["jw_fall23.json", "sami_fall24.json", "vera_summer23.json"]
    DATASETS = ["jw_fall23_usage", "sami_fall24_usage", "vera_summer23_usage"]

    def test_first_cycle_records_every_payload_file(self, domain_root):
        run_cycle(domain_root)
        record = _read_record(domain_root)
        # the crc32 in the tag covers every byte after the tag's comma
        data = (domain_root / "warehouse" / "reconcile.json").read_bytes()
        assert data.startswith(b'{"tag":["a4l-reconcile",3,')
        assert record["tag"] == ["a4l-reconcile", 3, zlib.crc32(data.split(b"],", 1)[1])]
        assert sorted(record["payloads"]) == self.PAYLOADS
        for name, entry in record["payloads"].items():
            data = (domain_root / "payloads" / name).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert record["payloads"]["sami_fall24.json"]["datasets"] == ["sami_fall24_usage"]
        assert sorted(record["store"]) == sorted(self.DATASETS)
        for name, entry in record["store"].items():
            assert entry["sha256"] == sha256_file(domain_root / "store" / f"{name}.csv")

    def test_settled_record_holds_every_witness(self, settled_root):
        record = _read_record(settled_root)
        for section, directory in (("payloads", "payloads"), ("store", "store")):
            for name, entry in record[section].items():
                path = settled_root / directory / (name if section == "payloads" else f"{name}.csv")
                st = path.stat()
                assert entry["stat"] == [
                    st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
                ]

    def test_idle_cycle_parses_nothing(self, synced_root, payload_parses):
        report = run_cycle(synced_root)
        assert report.selected_payloads == [] and report.run_outcomes == []
        assert payload_parses == []

    def test_selected_payload_is_parsed_alone(self, synced_root, payload_parses):
        _touch_store(synced_root)
        report = run_cycle(synced_root)
        assert report.selected_payloads == ["sami_fall24.json"]
        assert payload_parses == [(synced_root / "payloads" / "sami_fall24.json").read_bytes()]

    def test_broken_payload_reported_on_every_idle_cycle(self, synced_root, payload_parses):
        (synced_root / "payloads" / "broken.json").write_text("{nope", encoding="utf-8")
        first = run_cycle(synced_root)
        assert payload_parses == [b"{nope"]
        assert _read_record(synced_root)["payloads"]["broken.json"]["datasets"] is None
        for _ in range(2):
            report = run_cycle(synced_root)
            assert report.run_outcomes == first.run_outcomes
            assert [(o.payload_file, o.status, o.detail) for o in report.run_outcomes] == [
                ("broken.json", "parse_failed", "unparseable payload")
            ]
        assert payload_parses == [b"{nope"]

    def test_unreadable_payload_reported_and_not_recorded(self, synced_root, payload_parses):
        (synced_root / "payloads" / "dir.json").mkdir()
        for _ in range(2):
            report = run_cycle(synced_root)
            assert [(o.payload_file, o.status) for o in report.run_outcomes] == [
                ("dir.json", "parse_failed")
            ]
        assert sorted(_read_record(synced_root)["payloads"]) == self.PAYLOADS
        assert payload_parses == []

    def test_edited_payload_parsed_once_then_recorded(self, synced_root, payload_parses):
        path = synced_root / "payloads" / "sami_fall24.json"
        edited = json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=4).encode()
        path.write_bytes(edited)
        run_cycle(synced_root)
        assert payload_parses == [edited]
        entry = _read_record(synced_root)["payloads"]["sami_fall24.json"]
        assert entry["sha256"] == hashlib.sha256(edited).hexdigest()
        run_cycle(synced_root)
        assert payload_parses == [edited]

    def test_deleted_payload_leaves_the_record(self, synced_root, payload_parses):
        (synced_root / "payloads" / "jw_fall23.json").unlink()
        run_cycle(synced_root)
        assert sorted(_read_record(synced_root)["payloads"]) == [
            "sami_fall24.json",
            "vera_summer23.json",
        ]
        assert payload_parses == []

    # whole-file replacements, or changes to the tag, to a whole section
    # (a list value) or to one entry of a section (a dict value)
    UNUSABLE = {
        "corrupt": "{broken",
        "too_deep": "[" * 100_000,
        "not_an_object": "[]",
        "foreign_tag": {"tag": ["other-record", 2]},
        "other_format": {"tag": ["a4l-reconcile", 1]},
        "no_datasets": {"payloads": {"sami_fall24.json": {"sha256": "0" * 64, "stat": None}}},
        "bad_dataset_name": {
            "payloads": {"sami_fall24.json": {"sha256": "0" * 64, "stat": None, "datasets": [7]}}
        },
        "payload_without_stat": {
            "payloads": {"sami_fall24.json": {"sha256": "0" * 64, "datasets": []}}
        },
        "no_store": {"store": None},
        "store_not_an_object": {"store": []},
        "store_entry_not_an_object": {"store": {"jw_fall23_usage": "0" * 64}},
        "store_without_sha256": {"store": {"jw_fall23_usage": {"stat": None}}},
        "store_without_stat": {"store": {"jw_fall23_usage": {"sha256": "0" * 64}}},
        "store_short_stat": {"store": {"jw_fall23_usage": {"sha256": "0" * 64, "stat": [1, 2, 3, 4]}}},
        "store_float_stat": {
            "store": {"jw_fall23_usage": {"sha256": "0" * 64, "stat": [1, 2, 3, 4, 5.0]}}
        },
        "store_bool_stat": {
            "store": {"jw_fall23_usage": {"sha256": "0" * 64, "stat": [1, 2, 3, 4, True]}}
        },
    }

    @pytest.mark.parametrize("unusable", sorted(UNUSABLE))
    def test_unusable_record_is_ignored_and_rewritten(
        self, settled_root, payload_parses, input_reads, unusable
    ):
        expected = _read_record(settled_root)
        edit = self.UNUSABLE[unusable]
        if isinstance(edit, str):
            text = edit
        else:
            # the other entries keep their hashes and witnesses, so only
            # ignoring the whole record makes the cycle read them again
            record = _read_record(settled_root)
            for key, value in edit.items():
                if key == "tag" or not isinstance(value, dict):
                    record[key] = value
                else:
                    record[key].update(value)
            text = json.dumps(record)
        (settled_root / "warehouse" / "reconcile.json").write_text(text, encoding="utf-8")
        self._assert_ignored_and_rewritten(settled_root, expected, payload_parses, input_reads)

    def test_format_1_record_is_ignored(self, settled_root, payload_parses, input_reads):
        # the record as the format before stat witnesses wrote it
        expected = _read_record(settled_root)
        old = {
            "tag": ["a4l-reconcile", 1],
            "payloads": {
                name: {"sha256": entry["sha256"], "datasets": entry["datasets"]}
                for name, entry in expected["payloads"].items()
            },
        }
        path = settled_root / "warehouse" / "reconcile.json"
        path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        input_reads.clear()
        assert run_cycle(settled_root).updated == []
        hashed = [name for kind, name in input_reads if kind == "hash"]
        assert sorted(hashed) == [f"store/{name}.csv" for name in self.DATASETS]
        assert len(payload_parses) == len(self.PAYLOADS)
        assert _read_record(settled_root) == expected

    def _assert_ignored_and_rewritten(self, root, expected, payload_parses, input_reads):
        """The cycle hashes every input and writes ``expected`` back; the
        next cycle reads nothing."""
        input_reads.clear()
        report = run_cycle(root)
        assert report.updated == []
        assert report.selected_payloads == [] and report.run_outcomes == []
        assert len(payload_parses) == len(self.PAYLOADS)
        assert sorted(input_reads) == sorted(
            [("hash", f"store/{name}.csv") for name in self.DATASETS]
            + [("read", f"payloads/{name}") for name in self.PAYLOADS]
        )
        assert _read_record(root) == expected
        input_reads.clear()
        run_cycle(root)
        assert len(payload_parses) == len(self.PAYLOADS)
        assert input_reads == []

    def test_format_2_record_is_ignored(self, settled_root, payload_parses, input_reads):
        # the record as the format before the crc32 wrote it: the same
        # sections, with the tag sorted last and every entry checked on load
        expected = _read_record(settled_root)
        old = {"tag": ["a4l-reconcile", 2], "payloads": expected["payloads"], "store": expected["store"]}
        path = settled_root / "warehouse" / "reconcile.json"
        path.write_text(json.dumps(old, separators=(",", ":"), sort_keys=True) + "\n", encoding="utf-8")
        self._assert_ignored_and_rewritten(settled_root, expected, payload_parses, input_reads)

    def test_flipped_hash_digit_is_ignored(self, settled_root, payload_parses, input_reads):
        # still valid JSON, and still a sha256 of 64 hex digits
        expected = _read_record(settled_root)
        path = settled_root / "warehouse" / "reconcile.json"
        data = path.read_bytes()
        digest = expected["store"]["sami_fall24_usage"]["sha256"].encode()
        flipped = digest[:-1] + (b"0" if digest[-1:] != b"0" else b"1")
        assert data.count(digest) == 1
        path.write_bytes(data.replace(digest, flipped))
        self._assert_ignored_and_rewritten(settled_root, expected, payload_parses, input_reads)

    def test_unwritable_record_leaves_the_cycle_working(
        self, domain_root, monkeypatch, payload_parses
    ):
        write = orchestrator.atomic_write

        def failing(path, data):
            if Path(path).name == "reconcile.json":
                raise OSError("read-only")
            write(path, data)

        monkeypatch.setattr(orchestrator, "atomic_write", failing)
        report = run_cycle(domain_root)
        assert report.selected_payloads == self.PAYLOADS and report.all_ok()
        assert not (domain_root / "warehouse" / "reconcile.json").exists()
        # uncached: every file is parsed again, and nothing is selected
        assert run_cycle(domain_root).run_outcomes == []
        assert len(payload_parses) == 2 * len(self.PAYLOADS)

    def test_selected_payload_that_does_not_parse_fails(self, synced_root, payload_parses):
        # a record that says the bytes parse never runs them: the
        # selected file's own parse decides
        bad = b'{"payload_version": 1, "domain": "sami"}'
        (synced_root / "payloads" / "sami_fall24.json").write_bytes(bad)
        record = orchestrator.RegistryRecord(synced_root / "warehouse" / "reconcile.json")
        stale = dict(record.payloads["sami_fall24.json"], sha256=hashlib.sha256(bad).hexdigest())
        record.payloads = {**record.payloads, "sami_fall24.json": stale}
        record.save()
        _touch_store(synced_root)
        report = run_cycle(synced_root)
        assert report.selected_payloads == []
        assert [(o.payload_file, o.status) for o in report.run_outcomes] == [
            ("sami_fall24.json", "parse_failed")
        ]
        assert payload_parses == [bad]
        assert _read_record(synced_root)["payloads"]["sami_fall24.json"]["datasets"] is None

    def test_idle_cycle_writes_only_its_report(self, settled_root, monkeypatch):
        # settled: the synced root's first cycle may hash files written in
        # its own stamp's clock tick, and the next cycle then keeps their
        # witnesses, writing the record once
        record = settled_root / "warehouse" / "reconcile.json"
        before = record.stat()
        written = []
        write = orchestrator.atomic_write

        def recording(path, data):
            written.append(Path(path).parent.name)
            write(path, data)

        monkeypatch.setattr(orchestrator, "atomic_write", recording)
        report = run_cycle(settled_root)
        # the report is a line appended to the day's idle log
        assert written == []
        assert _idle_reports(_idle_log(settled_root, report))[-1]["scanned_at"] == report.scanned_at
        after = record.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def _witness(path):
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _wait_past(path):
    """Return once the filesystem clock reads later than ``path``'s mtime
    and ctime, so that any later lock stamp does too."""
    probe = path.parent.parent.parent / "clock.probe"
    st = path.stat()
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > max(st.st_mtime_ns, st.st_ctime_ns):
            return
        time.sleep(0.001)


def _same_size_edit(data):
    """``data`` with its first digit after the header changed."""
    start = data.index(b"\n")
    i = next(i for i in range(start, len(data)) if data[i : i + 1].isdigit())
    digit = b"1" if data[i : i + 1] != b"1" else b"2"
    return data[:i] + digit + data[i + 1 :]


class TestStatWitness:
    """A file is read and hashed again only when its stat changed."""

    SAMI = "sami_fall24_usage"

    def test_idle_cycle_reads_no_input(self, settled_root, input_reads, payload_parses):
        report = run_cycle(settled_root)
        assert report.updated == [] and report.run_outcomes == []
        assert input_reads == [] and payload_parses == []

    def test_same_size_rewrite_with_restored_mtime_is_seen(self, settled_root, input_reads):
        path = settled_root / "store" / f"{self.SAMI}.csv"
        before = path.stat()
        data = path.read_bytes()
        edited = _same_size_edit(data)
        with open(path, "r+b") as fh:  # in place: same inode
            fh.write(edited)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino,
            before.st_size,
            before.st_mtime_ns,
        )
        assert after.st_ctime_ns != before.st_ctime_ns
        input_reads.clear()
        report = run_cycle(settled_root)
        assert [u.dataset for u in report.updated] == [self.SAMI]
        assert report.updated[0].new_sha256 == hashlib.sha256(edited).hexdigest()
        assert [r for r in input_reads if r[0] == "hash"] == [("hash", f"store/{self.SAMI}.csv")]

    def test_replaced_file_is_seen(self, settled_root, input_reads):
        path = settled_root / "store" / f"{self.SAMI}.csv"
        before = path.stat()
        edited = _same_size_edit(path.read_bytes())
        tmp = path.with_name("replacement.tmp")
        tmp.write_bytes(edited)
        os.utime(tmp, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(tmp, path)
        assert path.stat().st_ino != before.st_ino
        input_reads.clear()
        report = run_cycle(settled_root)
        assert [u.dataset for u in report.updated] == [self.SAMI]
        assert [r for r in input_reads if r[0] == "hash"] == [("hash", f"store/{self.SAMI}.csv")]

    def test_file_changed_just_after_its_read_is_seen_next_cycle(
        self, settled_root, monkeypatch
    ):
        # the record keeps the stat taken before the read, so a change
        # right after the read leaves a witness that no longer matches
        path = settled_root / "store" / f"{self.SAMI}.csv"
        path.write_bytes(path.read_bytes() + b"\n")
        _wait_past(path)
        witness = _witness(path)
        first = hashlib.sha256(path.read_bytes()).hexdigest()
        edited = _same_size_edit(path.read_bytes())
        sha256_file = orchestrator.sha256_file

        def hash_then_change(p):
            digest = sha256_file(p)
            if Path(p) == path:
                path.write_bytes(edited)
            return digest

        monkeypatch.setattr(orchestrator, "sha256_file", hash_then_change)
        assert [u.dataset for u in run_cycle(settled_root).updated] == [self.SAMI]
        monkeypatch.undo()
        assert _read_record(settled_root)["store"][self.SAMI] == {"sha256": first, "stat": witness}
        assert _witness(path) != witness
        # the copy read the edited bytes already, so the next cycle hashes
        # the file again and finds the manifest up to date
        assert run_cycle(settled_root).updated == []
        record = _read_record(settled_root)
        assert record["store"][self.SAMI]["sha256"] == hashlib.sha256(edited).hexdigest()

    def test_file_at_or_after_the_stamp_is_hashed_until_older(self, settled_root, input_reads):
        path = settled_root / "store" / f"{self.SAMI}.csv"
        before = path.stat()
        future = time.time_ns() + 3600 * 10**9
        os.utime(path, ns=(future, future))
        input_reads.clear()
        for _ in range(3):
            assert run_cycle(settled_root).updated == []
            assert _read_record(settled_root)["store"][self.SAMI]["stat"] is None
        assert input_reads == [("hash", f"store/{self.SAMI}.csv")] * 3
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        _wait_past(path)
        input_reads.clear()
        for _ in range(2):
            assert run_cycle(settled_root).updated == []
        assert input_reads == [("hash", f"store/{self.SAMI}.csv")]
        assert _read_record(settled_root)["store"][self.SAMI]["stat"] == _witness(path)

    def test_payload_at_or_after_the_stamp_is_read_until_older(
        self, settled_root, input_reads, payload_parses
    ):
        path = settled_root / "payloads" / "sami_fall24.json"
        future = time.time_ns() + 3600 * 10**9
        os.utime(path, ns=(future, future))
        input_reads.clear()
        for _ in range(2):
            assert run_cycle(settled_root).run_outcomes == []
        assert input_reads == [("read", "payloads/sami_fall24.json")] * 2
        assert payload_parses == []

    def test_touched_file_is_hashed_once_then_trusted(self, settled_root, input_reads):
        path = settled_root / "store" / f"{self.SAMI}.csv"
        os.utime(path)
        _wait_past(path)
        input_reads.clear()
        for _ in range(2):
            assert run_cycle(settled_root).updated == []
        assert input_reads == [("hash", f"store/{self.SAMI}.csv")]

    def test_store_file_vanished_before_its_stat_is_unreadable(self, settled_root, monkeypatch):
        listing = orchestrator._listing

        def listing_then_remove(directory, suffix):
            found = listing(directory, suffix)
            if suffix == ".csv":
                (settled_root / "store" / f"{self.SAMI}.csv").unlink()
            return found

        monkeypatch.setattr(orchestrator, "_listing", listing_then_remove)
        with pytest.raises(A4LError, match=f"unreadable store file .*{self.SAMI}.csv"):
            run_cycle(settled_root)

    def test_payload_vanished_before_its_stat_is_reported(self, settled_root, monkeypatch):
        listing = orchestrator._listing

        def listing_then_remove(directory, suffix):
            found = listing(directory, suffix)
            if suffix == ".json":
                (settled_root / "payloads" / "sami_fall24.json").unlink()
            return found

        monkeypatch.setattr(orchestrator, "_listing", listing_then_remove)
        report = run_cycle(settled_root)
        assert [(o.payload_file, o.status) for o in report.run_outcomes] == [
            ("sami_fall24.json", "parse_failed")
        ]
        assert "sami_fall24.json" not in _read_record(settled_root)["payloads"]

    @pytest.mark.parametrize(
        "mtime, ctime, stamp, trusted",
        [
            (99, 99, 100, True),
            (99, 100, 100, False),  # ctime at the stamp
            (100, 99, 100, False),  # mtime at the stamp
            (99, 101, 100, False),
            (101, 99, 100, False),
            (99, 99, None, False),  # no lock stamp
        ],
    )
    def test_trust_rule(self, mtime, ctime, stamp, trusted):
        assert orchestrator._trusted([1, 2, 3, mtime, ctime], stamp) is trusted

    def test_lock_stamp_reads_the_filesystem_clock(self, tmp_path):
        lock = CycleLock(tmp_path / ".a4l.lock")
        assert lock.acquire()
        try:
            assert lock.stamp == (tmp_path / ".a4l.lock").stat().st_mtime_ns
            probe = tmp_path / "later"
            probe.write_bytes(b"")
            assert probe.stat().st_mtime_ns >= lock.stamp
        finally:
            lock.release()
        assert lock.stamp is None


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


def _idle_log(root, report):
    return root / "runs" / f"idle-{report.scanned_at[:10]}.jsonl"


def _idle_reports(log):
    """The reports of an idle log, skipping each line that does not
    parse, as a torn one does not."""
    reports = []
    for line in log.read_text(encoding="utf-8").splitlines():
        try:
            reports.append(strict_loads(line))
        except ValueError:
            continue
    return reports


def _clock(monkeypatch, *stamps):
    """Make the cycles that follow read ``stamps`` as their scan times."""
    times = iter(stamps)
    monkeypatch.setattr(orchestrator, "utc_now_rfc3339", lambda: next(times))


def _made(ops, root):
    """Each directory call of ``ops`` (the ``fs_ops`` fixture's list), as
    (path below ``root``, outcome)."""
    return [
        (path.relative_to(root).as_posix(), outcome) for op, path, outcome in ops if op == "mkdir"
    ]


class TestIdleLog:
    """An idle cycle appends its report to runs/idle-<UTC date>.jsonl."""

    DAY = "2026-10-20"

    def test_idle_cycles_of_one_day_share_one_file(self, synced_root, monkeypatch):
        runs = synced_root / "runs"
        stamps = [f"{self.DAY}T0{i}:00:00.000000+00:00" for i in range(3)]
        _clock(monkeypatch, *stamps)
        run_cycle(synced_root)
        listing = sorted(os.listdir(runs))
        log = runs / f"idle-{self.DAY}.jsonl"
        inode = log.stat().st_ino
        run_cycle(synced_root)
        run_cycle(synced_root)
        assert sorted(os.listdir(runs)) == listing
        assert [name.endswith(".jsonl") for name in listing] == [False, True]
        assert log.stat().st_ino == inode
        lines = log.read_text(encoding="utf-8").splitlines()
        assert [strict_loads(line)["scanned_at"] for line in lines] == stamps

    def test_idle_line_is_the_compact_report(self, synced_root):
        report = run_cycle(synced_root)
        (line,) = _idle_log(synced_root, report).read_text(encoding="utf-8").splitlines()
        assert list(strict_loads(line)) == ["scanned_at", "updated", "selected_payloads", "run_outcomes"]
        assert line == json.dumps(
            {"scanned_at": report.scanned_at, "updated": [], "selected_payloads": [], "run_outcomes": []},
            separators=(",", ":"),
        )

    def test_idle_line_logs_a_broken_payload(self, synced_root):
        (synced_root / "payloads" / "bad.json").write_text("{", encoding="utf-8")
        report = run_cycle(synced_root)
        assert report.updated == [] and report.selected_payloads == []
        (logged,) = _idle_reports(_idle_log(synced_root, report))
        assert logged["run_outcomes"] == [
            {
                "payload_file": "bad.json",
                "status": "parse_failed",
                "result_keys": [],
                "detail": "unparseable payload",
            }
        ]

    def test_torn_last_line_is_ended_before_the_next(self, synced_root, monkeypatch):
        _clock(monkeypatch, f"{self.DAY}T01:00:00+00:00", f"{self.DAY}T02:00:00+00:00")
        run_cycle(synced_root)
        log = synced_root / "runs" / f"idle-{self.DAY}.jsonl"
        first = log.read_bytes()
        torn = first[: len(first) // 2]
        with open(log, "ab") as fh:
            fh.write(torn)
        run_cycle(synced_root)
        lines = log.read_bytes().split(b"\n")
        assert lines[:2] == [first[:-1], torn] and lines[3] == b""
        assert [r["scanned_at"] for r in _idle_reports(log)] == [
            f"{self.DAY}T01:00:00+00:00",
            f"{self.DAY}T02:00:00+00:00",
        ]

    def test_new_utc_date_starts_a_new_file(self, synced_root, monkeypatch):
        _clock(monkeypatch, "2026-10-20T23:59:59.999999+00:00", "2026-10-21T00:00:00.000001+00:00")
        run_cycle(synced_root)
        run_cycle(synced_root)
        logs = sorted((synced_root / "runs").glob("*.jsonl"))
        assert [p.name for p in logs] == ["idle-2026-10-20.jsonl", "idle-2026-10-21.jsonl"]
        assert [len(_idle_reports(p)) for p in logs] == [1, 1]

    def test_working_cycle_writes_its_own_report(self, synced_root):
        log = _idle_log(synced_root, run_cycle(synced_root))
        idle = log.read_bytes()
        before = set(os.listdir(synced_root / "runs"))
        _touch_store(synced_root)
        report = run_cycle(synced_root)
        assert set(os.listdir(synced_root / "runs")) - before == {f"{report.scanned_at}.json"}
        stored = strict_loads(
            (synced_root / "runs" / f"{report.scanned_at}.json").read_text(encoding="utf-8")
        )
        assert stored["selected_payloads"] == ["sami_fall24.json"]
        assert log.read_bytes() == idle

    def test_runs_directory_is_made_only_when_missing(self, settled_root, fs_ops):
        fs_ops.clear()
        run_cycle(settled_root)
        assert _made(fs_ops, settled_root) == []
        for path in (settled_root / "runs").iterdir():
            path.unlink()
        (settled_root / "runs").rmdir()
        fs_ops.clear()
        report = run_cycle(settled_root)
        assert _made(fs_ops, settled_root) == [("runs", "ok")]
        assert len(_idle_reports(_idle_log(settled_root, report))) == 1

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_idle_log_follows_the_umask(self, synced_root, umask, mode):
        previous = os.umask(umask)
        try:
            report = run_cycle(synced_root)
        finally:
            os.umask(previous)
        assert _idle_log(synced_root, report).stat().st_mode & 0o777 == mode

    def test_failed_append_fails_the_sync(self, synced_root, monkeypatch):
        _clock(monkeypatch, f"{self.DAY}T01:00:00+00:00", f"{self.DAY}T02:00:00+00:00")
        # a directory where the day's log belongs cannot be opened for writing
        (synced_root / "runs" / f"idle-{self.DAY}.jsonl").mkdir()
        with pytest.raises(OSError):
            run_cycle(synced_root)
        assert a4l(["--root", str(synced_root), "sync"]) == 1


class TestDirectories:
    """A file write makes its directory only when the directory is
    missing, so no directory call fails on one that exists."""

    def test_cold_sync_makes_each_directory_once(self, domain_root, fs_ops):
        add_domain(domain_root, "xyz")
        fs_ops.clear()
        assert run_cycle(domain_root).all_ok()
        made = _made(fs_ops, domain_root)
        # a parent made on demand first fails its child's call with ENOENT
        assert {outcome for _, outcome in made} <= {"ok", "ENOENT"}
        created = [path for path, outcome in made if outcome == "ok"]
        assert sorted(created) == [
            "results",
            "results/jw",
            "results/sami",
            "results/vera",
            "results/xyz",
            "runs",
            "warehouse",
            "warehouse/columns",
        ]

    def test_update_makes_only_a_new_archive_directory(self, settled_root, fs_ops):
        _touch_store(settled_root)
        fs_ops.clear()
        assert [u.dataset for u in run_cycle(settled_root).updated] == ["sami_fall24_usage"]
        made = _made(fs_ops, settled_root)
        assert [path for path, outcome in made if outcome == "ok"] == [
            "archive",
            "archive/sami_fall24_usage",
        ]
        assert {path for path, _ in made} == {"archive", "archive/sami_fall24_usage"}
        _touch_store(settled_root, "vera_summer23_usage")
        fs_ops.clear()
        assert [u.dataset for u in run_cycle(settled_root).updated] == ["vera_summer23_usage"]
        assert _made(fs_ops, settled_root) == [("archive/vera_summer23_usage", "ok")]
        # a second update links into the existing directory
        _touch_store(settled_root)
        fs_ops.clear()
        assert [u.dataset for u in run_cycle(settled_root).updated] == ["sami_fall24_usage"]
        assert _made(fs_ops, settled_root) == []
        assert len(list((settled_root / "archive" / "sami_fall24_usage").iterdir())) == 2


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
        refreshed = strict_loads(
            (synced_root / "results" / "sami" / "sami_fall24_ttest_power.json")
            .read_text(encoding="utf-8")
        )
        assert refreshed["dataset"]["sha256"] == report.updated[0].new_sha256

    def test_report_persisted(self, domain_root):
        report = run_cycle(domain_root)
        runs = list((domain_root / "runs").glob("*.json"))
        assert len(runs) == 1
        stored = strict_loads(runs[0].read_text(encoding="utf-8"))
        assert stored["scanned_at"] == report.scanned_at
        assert len(stored["updated"]) == 3

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_follow_the_umask(self, domain_root, umask, mode):
        previous = os.umask(umask)
        try:
            report = run_cycle(domain_root)
        finally:
            os.umask(previous)
        written = {
            "result": domain_root / "results" / report.run_outcomes[0].result_keys[0],
            "manifest": domain_root / "warehouse" / "manifest.json",
            "report": next((domain_root / "runs").glob("*.json")),
            "warehouse csv": next((domain_root / "warehouse").glob("*.csv")),
        }
        modes = {kind: path.stat().st_mode & 0o777 for kind, path in written.items()}
        assert modes == dict.fromkeys(written, mode)

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

    def test_unexpected_exception_fails_only_its_payload(self, domain_root, monkeypatch):
        execute = orchestrator.execute_payload

        def failing(payload, staged, cache=None):
            if payload.domain == "sami":
                raise KeyError("boom")
            return execute(payload, staged, cache)

        monkeypatch.setattr(orchestrator, "execute_payload", failing)
        report = run_cycle(domain_root)
        assert report.selected_payloads == [
            "jw_fall23.json",
            "sami_fall24.json",
            "vera_summer23.json",
        ]
        outcomes = [(o.payload_file, o.status, o.detail) for o in report.run_outcomes]
        assert outcomes == [
            ("jw_fall23.json", "ok", None),
            ("sami_fall24.json", "error", "KeyError: 'boom'"),
            ("vera_summer23.json", "ok", None),
        ]
        (stored,) = (domain_root / "runs").glob("*.json")
        stored = strict_loads(stored.read_text(encoding="utf-8"))
        assert stored["run_outcomes"][1]["detail"] == "KeyError: 'boom'"

    def test_crash_between_sync_and_run_is_safe(self, domain_root, empty_record):
        # simulate a crash after sync by syncing without running
        wh = Warehouse(domain_root)
        lock = CycleLock(domain_root / ".a4l.lock")
        assert lock.acquire()
        try:
            scan = scan_store(domain_root / "store", empty_record, None)
            sync_warehouse(scan, wh, lock, wh.manifest())
        finally:
            lock.release()
        # next cycle: manifest valid, nothing spuriously selected
        report = run_cycle(domain_root)
        assert report.updated == []
        assert report.selected_payloads == []

    def test_store_file_removed_after_the_scan_is_skipped(self, synced_root, monkeypatch):
        store = synced_root / "store"
        for name in ("jw_fall23_usage", "sami_fall24_usage"):
            path = store / f"{name}.csv"
            text = path.read_text(encoding="utf-8")
            path.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
        manifest = Warehouse(synced_root).manifest()
        scan = orchestrator.scan_store

        def scan_then_remove(store_dir, record=None, stamp=None):
            result = scan(store_dir, record, stamp)
            (store / "sami_fall24_usage.csv").unlink()
            return result

        monkeypatch.setattr(orchestrator, "scan_store", scan_then_remove)
        report = run_cycle(synced_root)
        assert [u.dataset for u in report.updated] == ["jw_fall23_usage"]
        assert report.selected_payloads == ["jw_fall23.json"]
        assert report.all_ok()
        after = Warehouse(synced_root).manifest()
        assert after["sami_fall24_usage"] == manifest["sami_fall24_usage"]
        assert after["jw_fall23_usage"] != manifest["jw_fall23_usage"]
        assert not (synced_root / "warehouse" / "archive" / "sami_fall24_usage").exists()
        runs = sorted((synced_root / "runs").glob("*.json"))
        assert len(runs) == 2
        last = strict_loads(runs[-1].read_text(encoding="utf-8"))
        assert last["scanned_at"] == report.scanned_at
        # the next scan no longer lists the file, so the next cycle is idle
        monkeypatch.undo()
        assert run_cycle(synced_root).updated == []

    def test_failed_report_write_leaves_no_partial_report(self, domain_root, monkeypatch):
        real_replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).parent.name == "runs":
                raise OSError("disk gone")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            run_cycle(domain_root)
        assert list((domain_root / "runs").iterdir()) == []

    def test_no_temp_dir_and_no_dataset_copy(self, domain_root, no_staging):
        report = run_cycle(domain_root)
        assert len(report.selected_payloads) == 3
        assert report.all_ok()

    def test_undecodable_payload_fails_only_itself(self, domain_root):
        (domain_root / "payloads" / "bad.json").write_bytes(b'{"domain": "\xff"}')
        report = run_cycle(domain_root)
        by_file = {o.payload_file: o for o in report.run_outcomes}
        assert by_file["bad.json"].status == "parse_failed"
        assert report.selected_payloads == [
            "jw_fall23.json",
            "sami_fall24.json",
            "vera_summer23.json",
        ]
        assert all(by_file[name].status == "ok" for name in report.selected_payloads)
        (stored,) = (domain_root / "runs").glob("*.json")
        statuses = {
            o["payload_file"]: o["status"]
            for o in strict_loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert statuses["bad.json"] == "parse_failed"

    @pytest.mark.parametrize("hostile", sorted(hostile_payloads()))
    def test_hostile_payload_fails_only_itself(self, domain_root, hostile):
        bad = domain_root / "payloads" / "bad.json"
        bad.write_text(hostile_payloads()[hostile], encoding="utf-8")
        report = run_cycle(domain_root)
        by_file = {o.payload_file: o for o in report.run_outcomes}
        assert by_file["bad.json"].status == "parse_failed"
        assert len(report.selected_payloads) == 3
        assert all(by_file[name].status == "ok" for name in report.selected_payloads)
        (stored,) = (domain_root / "runs").glob("*.json")
        statuses = {
            o["payload_file"]: o["status"]
            for o in strict_loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert statuses["bad.json"] == "parse_failed"
        # and on every later cycle, idle ones included
        assert run_cycle(domain_root).run_outcomes == [by_file["bad.json"]]

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
                doc = strict_loads(
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

        def recording_run(name, payload, warehouse, cache, manifest):
            live = sorted(n for n, ref in alive.items() if ref() is not None)
            seen.append((name, live))
            return original_run(name, payload, warehouse, cache, manifest)

        monkeypatch.setattr(orchestrator.DatasetCache, "get", tracking_get)
        monkeypatch.setattr(orchestrator, "run_payload_file", recording_run)
        run_cycle(domain_root)
        assert seen == [
            ("jw_fall23.json", []),
            ("meta.json", ["jw_fall23_usage"]),
            ("sami_fall24.json", ["sami_fall24_usage"]),
            ("vera_summer23.json", []),
        ]


    @pytest.mark.parametrize("n", [8, 64])
    def test_release_bookkeeping_is_linear(self, tmp_path, monkeypatch, n):
        # N payloads, each of its own dataset: the cycle hands each
        # dataset to the cache's release once, after its one payload,
        # rather than re-examining every dataset still referenced
        root = tmp_path / "root"
        for directory in ("store", "payloads"):
            (root / directory).mkdir(parents=True)
        names = [f"d{i:03}" for i in range(n)]
        for name in names:
            (root / "store" / f"{name}.csv").write_text("g,x\na,1\nb,2\na,3\nb,5\n", encoding="utf-8")
            payload = {
                "payload_version": 1,
                "domain": "n",
                "analyses": [
                    {
                        "statistic": "get_descriptives",
                        "dataset": name,
                        "independent": "g",
                        "dependent": ["x"],
                        "result_file": name,
                    }
                ],
                "output": {"bucket": "n", "prefix": ""},
            }
            (root / "payloads" / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
        examined = []
        release = orchestrator.DatasetCache.release

        def counting(self, datasets):
            datasets = list(datasets)
            examined.extend(datasets)
            release(self, datasets)

        monkeypatch.setattr(orchestrator.DatasetCache, "release", counting)
        report = run_cycle(root)
        assert len(report.selected_payloads) == n and report.all_ok()
        assert examined == names


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
            for o in strict_loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert statuses["vera_summer23.json"] == "error"


    def test_overflowing_cell_fails_only_its_dependent(self, domain_root):
        huge_vera_cell(domain_root)
        report = run_cycle(domain_root)
        by_file = {o.payload_file: o for o in report.run_outcomes}
        assert by_file["vera_summer23.json"].status == "partial"
        assert by_file["jw_fall23.json"].status == "ok"
        assert by_file["sami_fall24.json"].status == "ok"
        for name in ("vera_summer23_ttest", "vera_summer23_ttest_power"):
            doc = strict_loads(
                (domain_root / "results" / "vera" / f"{name}.json").read_text(encoding="utf-8")
            )
            errors = {e["dependent"]: e["error"] for e in doc["results"] if "error" in e}
            assert list(errors) == ["nfc_score"]
            assert errors["nfc_score"]["kind"] == "degenerate_data"
            assert "overflows" in errors["nfc_score"]["message"]
            assert len(doc["results"]) == 4
        (stored,) = (domain_root / "runs").glob("*.json")
        statuses = {
            o["payload_file"]: o["status"]
            for o in strict_loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert statuses["vera_summer23.json"] == "partial"

    def test_kernel_overflow_fails_only_its_dependent(self, domain_root):
        huge_vera_group(domain_root)
        report = run_cycle(domain_root)
        statuses = {o.payload_file: o.status for o in report.run_outcomes}
        assert statuses == {
            "jw_fall23.json": "ok",
            "sami_fall24.json": "ok",
            "vera_summer23.json": "partial",
        }
        results = domain_root / "results" / "vera"

        def stored_doc(name):
            return strict_loads((results / f"{name}.json").read_text(encoding="utf-8"))

        power = stored_doc("vera_summer23_ttest_power")
        errors = {e["dependent"]: e["error"] for e in power["results"] if "error" in e}
        assert list(errors) == ["nfc_score"]
        assert errors["nfc_score"]["kind"] == "stat_error"
        assert errors["nfc_score"]["message"].startswith("OverflowError: ")
        assert len(power["results"]) == 4
        # the t-test reads the same finite summaries and succeeds
        ttest = stored_doc("vera_summer23_ttest")
        assert [e["kind"] for e in ttest["results"]] == ["welch_ttest"] * 4
        (stored,) = (domain_root / "runs").glob("*.json")
        stored_statuses = {
            o["payload_file"]: o["status"]
            for o in strict_loads(stored.read_text(encoding="utf-8"))["run_outcomes"]
        }
        assert stored_statuses == statuses


class TestWatch:
    def test_watch_yields_reports(self, domain_root):
        reports = list(watch(domain_root, interval_seconds=0.01, cycles=2))
        assert len(reports) == 2
        assert len(reports[0].updated) == 3
        assert reports[1].updated == []
