"""CLI behavior and the exit-code contract."""

import json
import shutil

import pytest

from a4l_analytics import orchestrator
from a4l_analytics.cli import main
from a4l_analytics.dataset import Warehouse
from a4l_analytics.orchestrator import CycleLock, run_cycle
from conftest import (
    DOMAIN_FILES,
    build_root,
    huge_vera_cell,
    hostile_payloads,
    huge_vera_group,
    sami_payload,
)
from schema_check import strict_loads


def run_cli(*argv):
    return main(list(argv))


def _constant_sob_score(root):
    """Make one sami dependent constant within both groups, then sync."""
    store = root / "store" / "sami_fall24_usage.csv"
    text = store.read_text(encoding="utf-8")
    header, rows = text.split("\n", 1)
    const_idx = header.split(",").index("sob_score")
    fixed_rows = []
    for line in rows.strip().split("\n"):
        parts = line.split(",")
        parts[const_idx] = "3.00"
        fixed_rows.append(",".join(parts))
    store.write_text(header + "\n" + "\n".join(fixed_rows) + "\n", encoding="utf-8")
    run_cycle(root)


def _documents(results_root):
    """Every result document below ``results_root``, keyed by path, with
    the per-run fields dropped."""
    docs = {}
    for path in sorted(results_root.rglob("*.json")):
        doc = strict_loads(path.read_text(encoding="utf-8"))
        del doc["run_id"], doc["generated_at"]
        docs[path.relative_to(results_root).as_posix()] = doc
    return docs


class TestValidate:
    def test_valid_payload(self, synced_root, capsys):
        code = run_cli(
            "--root", str(synced_root), "validate",
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_unknown_statistic_exits_3(self, synced_root, capsys, tmp_path):
        doc = sami_payload()
        doc["analyses"][0]["statistic"] = "get_foo"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli("--root", str(synced_root), "validate", str(bad))
        assert code == 3
        assert "unknown statistic" in capsys.readouterr().out

    def test_missing_file_exits_1(self, synced_root, capsys):
        code = run_cli("--root", str(synced_root), "validate", "/no/such/file.json")
        assert code == 1

    def test_malformed_json_exits_2(self, synced_root, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        code = run_cli("--root", str(synced_root), "validate", str(bad))
        assert code == 2

    def test_json_flag(self, synced_root, capsys):
        code = run_cli(
            "--root", str(synced_root), "--json", "validate",
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"ok": True, "diagnostics": []}


class TestRun:
    def test_prints_result_keys(self, synced_root, capsys):
        code = run_cli(
            "--root", str(synced_root), "run",
            str(synced_root / "payloads" / "jw_fall23.json"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results/jw/jw_fall23_ttest.json" in out
        assert (synced_root / "results" / "jw" / "jw_fall23_ttest.json").is_file()

    def test_settled_run_makes_no_directory(self, settled_root, fs_ops):
        fs_ops.clear()
        for payload in sorted((settled_root / "payloads").iterdir()):
            assert run_cli("--root", str(settled_root), "run", str(payload)) == 0
        assert [op for op in fs_ops if op[0] == "mkdir"] == []
        # each document is still written: a temp file created, then renamed
        results = settled_root / "results"
        documents = [op for op in fs_ops if op[0] == "replace"]
        assert len(documents) == 9
        assert all(path.is_relative_to(results) and ok == "ok" for _, path, ok in documents)

    def test_partial_exits_4_but_writes(self, synced_root, capsys, tmp_path):
        _constant_sob_score(synced_root)

        code = run_cli(
            "--root", str(synced_root), "run",
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 4
        doc = strict_loads(
            (synced_root / "results" / "sami" / "sami_fall24_ttest.json")
            .read_text(encoding="utf-8")
        )
        kinds = {r.get("error", {}).get("kind") for r in doc["results"] if "error" in r}
        assert "degenerate_data" in kinds

    def test_invalid_payload_writes_nothing(self, synced_root, capsys, tmp_path):
        doc = sami_payload()
        doc["analyses"][0]["dependent"] = ["ghost_column"]
        doc["analyses"] = doc["analyses"][:1]
        doc["output"]["bucket"] = "fresh_bucket"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli("--root", str(synced_root), "run", str(bad))
        assert code == 3
        assert not (synced_root / "results" / "fresh_bucket").exists()

    def test_writes_the_documents_sync_writes(self, tmp_path):
        root = build_root(tmp_path / "root", domains=tuple(DOMAIN_FILES))
        run_cycle(root)
        synced = _documents(root / "results")
        assert len(synced) == sum(
            len(payload_fn()["analyses"]) for *_, payload_fn in DOMAIN_FILES.values()
        )
        shutil.rmtree(root / "results")
        for payload_file in sorted((root / "payloads").glob("*.json")):
            assert run_cli("--root", str(root), "run", str(payload_file)) == 0
        assert _documents(root / "results") == synced

    def test_no_temp_dir_and_no_dataset_copy(self, synced_root, no_staging):
        code = run_cli(
            "--root", str(synced_root), "run",
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0


def _tree(root):
    """Every file below ``root`` with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunUnderContention:
    def test_exits_5_and_writes_nothing_while_a_cycle_holds_the_lock(
        self, synced_root, capsys
    ):
        payload = str(synced_root / "payloads" / "jw_fall23.json")
        root = str(synced_root)
        shutil.rmtree(synced_root / "results")
        lock = CycleLock(synced_root / ".a4l.lock")
        assert lock.acquire()
        try:
            before = _tree(synced_root)
            outputs = []
            for argv in (
                ["run", payload],
                ["sync"],
                ["--json", "run", payload],
                ["--json", "sync"],
            ):
                assert run_cli("--root", root, *argv) == 5
                outputs.append(capsys.readouterr().out)
            assert _tree(synced_root) == before
        finally:
            lock.release()
        run_human, sync_human, run_machine, sync_machine = outputs
        assert run_human == sync_human
        assert run_human.startswith("locked: another cycle holds ")
        assert json.loads(run_machine) == json.loads(sync_machine)
        assert run_cli("--root", root, "run", payload) == 0
        assert (synced_root / "results" / "jw" / "jw_fall23_ttest.json").is_file()

    def test_validate_takes_no_lock(self, synced_root, capsys):
        lock = CycleLock(synced_root / ".a4l.lock")
        assert lock.acquire()
        try:
            payload = str(synced_root / "payloads" / "jw_fall23.json")
            assert run_cli("--root", str(synced_root), "validate", payload) == 0
        finally:
            lock.release()


class TestInternalError:
    def test_run_exits_6(self, synced_root, capsys, monkeypatch):
        def failing(payload, staged, cache=None):
            raise KeyError("boom")

        monkeypatch.setattr(orchestrator, "execute_payload", failing)
        payload = str(synced_root / "payloads" / "jw_fall23.json")
        assert run_cli("--root", str(synced_root), "run", payload) == 6
        assert capsys.readouterr().out == "internal error: KeyError: 'boom'\n"
        assert run_cli("--root", str(synced_root), "--json", "run", payload) == 6
        assert json.loads(capsys.readouterr().out) == {"error": "KeyError: 'boom'"}
        # the lock was released
        monkeypatch.undo()
        assert run_cli("--root", str(synced_root), "run", payload) == 0


class TestUndecodablePayload:
    @pytest.fixture
    def bad_payload(self, synced_root):
        bad = synced_root / "payloads" / "bad.json"
        bad.write_bytes(b'{"domain": "\xff"}')
        return bad

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_2(self, synced_root, bad_payload, capsys, command):
        code = run_cli("--root", str(synced_root), command, str(bad_payload))
        assert code == 2
        assert capsys.readouterr().out.startswith("parse error: invalid UTF-8")

    def test_listed_as_unparseable(self, synced_root, bad_payload, capsys):
        code = run_cli("--root", str(synced_root), "list")
        assert code == 0
        out = capsys.readouterr().out
        assert "bad.json -> (unparseable)" in out
        assert "sami_fall24.json -> sami_fall24_usage" in out


@pytest.mark.parametrize("hostile", sorted(hostile_payloads()))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_hostile_payload_exits_2(synced_root, tmp_path, capsys, command, hostile):
    bad = tmp_path / "bad.json"
    bad.write_text(hostile_payloads()[hostile], encoding="utf-8")
    assert run_cli("--root", str(synced_root), command, str(bad)) == 2
    assert capsys.readouterr().out.startswith("parse error")


class TestRunJson:
    """The machine-readable contract of ``a4l run --json``."""

    def run_json(self, root, payload_file, capsys):
        code = run_cli("--root", str(root), "--json", "run", str(payload_file))
        return code, json.loads(capsys.readouterr().out)

    def test_ok(self, synced_root, capsys):
        code, out = self.run_json(
            synced_root, synced_root / "payloads" / "jw_fall23.json", capsys
        )
        assert code == 0
        assert out == {
            "status": "ok",
            "results": [
                "results/jw/jw_fall23_ttest.json",
                "results/jw/jw_fall23_contingency.json",
            ],
        }

    def test_validation_failure_exits_3(self, synced_root, capsys, tmp_path):
        doc = sami_payload()
        doc["analyses"][0]["dependent"] = ["ghost_column"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out = self.run_json(synced_root, bad, capsys)
        assert code == 3
        assert out["ok"] is False
        assert len(out["diagnostics"]) == 1
        assert out["diagnostics"][0].startswith("analyses[0].dependent[0]: ")
        assert "ghost_column" in out["diagnostics"][0]
        assert set(out) == {"ok", "diagnostics"}

    def test_ragged_dataset_exits_1(self, domain_root, capsys):
        store = domain_root / "store" / "vera_summer23_usage.csv"
        store.write_text(
            store.read_text(encoding="utf-8") + "true,3.1\n", encoding="utf-8"
        )
        run_cycle(domain_root)
        code, out = self.run_json(
            domain_root, domain_root / "payloads" / "vera_summer23.json", capsys
        )
        assert code == 1
        assert list(out) == ["error"]
        assert "ragged row" in out["error"]

    def test_partial_exits_4(self, synced_root, capsys):
        _constant_sob_score(synced_root)
        code, out = self.run_json(
            synced_root, synced_root / "payloads" / "sami_fall24.json", capsys
        )
        assert code == 4
        assert out["status"] == "partial"
        assert out["results"] == [
            f"results/sami/{request['result_file']}.json"
            for request in sami_payload()["analyses"]
        ]


class TestBrokenWarehouseDataset:
    @pytest.fixture
    def ragged_root(self, domain_root):
        store = domain_root / "store" / "vera_summer23_usage.csv"
        store.write_text(
            store.read_text(encoding="utf-8") + "true,3.1\n", encoding="utf-8"
        )
        run_cycle(domain_root)
        return domain_root

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_referencing_payload_exits_1(self, ragged_root, capsys, command):
        code = run_cli(
            "--root", str(ragged_root), command,
            str(ragged_root / "payloads" / "vera_summer23.json"),
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert "ragged row" in out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_other_payload_exits_0(self, ragged_root, capsys, command):
        code = run_cli(
            "--root", str(ragged_root), command,
            str(ragged_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0


class TestParseOnce:
    """A dataset version is parsed once per warehouse: the sync that
    pulls it in keeps its columns, and later commands load those."""

    @staticmethod
    def _column_file(root, dataset):
        sha = Warehouse(root).manifest()[dataset]["sha256"]
        return root / "warehouse" / "columns" / f"{sha}.marshal"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_parses_only_the_payloads_datasets(self, synced_root, parses, command):
        shutil.rmtree(synced_root / "warehouse" / "columns")
        code = run_cli(
            "--root", str(synced_root), command,
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0
        assert parses == ["sami_fall24_usage"]
        written = sorted((synced_root / "warehouse" / "columns").iterdir())
        assert written == [self._column_file(synced_root, "sami_fall24_usage")]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_synced_root_needs_no_parse(self, synced_root, parses, command):
        for payload in ("jw_fall23.json", "sami_fall24.json", "vera_summer23.json"):
            code = run_cli(
                "--root", str(synced_root), command, str(synced_root / "payloads" / payload)
            )
            assert code == 0
        assert parses == []

    def test_deleted_column_file_is_parsed_once_and_rewritten(self, synced_root, parses):
        column_file = self._column_file(synced_root, "jw_fall23_usage")
        column_file.unlink()
        for _ in range(2):
            run_cli(
                "--root", str(synced_root), "run",
                str(synced_root / "payloads" / "jw_fall23.json"),
            )
        assert parses == ["jw_fall23_usage"]
        assert column_file.is_file()


class TestSync:
    def test_unchanged_store(self, synced_root, capsys):
        code = run_cli("--root", str(synced_root), "sync")
        assert code == 0
        assert "0 updated, 0 payloads run" in capsys.readouterr().out

    def test_update_lists_archive_and_reruns(self, synced_root, capsys):
        store = synced_root / "store" / "vera_summer23_usage.csv"
        store.write_text(
            store.read_text(encoding="utf-8") + "true,4.0,4.1,3.9,3.8,female\n",
            encoding="utf-8",
        )
        code = run_cli("--root", str(synced_root), "sync")
        assert code == 0
        out = capsys.readouterr().out
        assert "1 updated, 1 payloads run" in out
        assert "archive/vera_summer23_usage" in out
        assert "results/vera/vera_summer23_ttest_power.json" in out

    def test_overflowing_cell_exits_4(self, domain_root, capsys):
        huge_vera_cell(domain_root)
        code = run_cli("--root", str(domain_root), "--json", "sync")
        assert code == 4
        report = strict_loads(capsys.readouterr().out)
        statuses = {o["payload_file"]: o["status"] for o in report["run_outcomes"]}
        assert statuses == {
            "jw_fall23.json": "ok",
            "sami_fall24.json": "ok",
            "vera_summer23.json": "partial",
        }
        assert len(list((domain_root / "runs").glob("*.json"))) == 1

    def test_kernel_overflow_exits_4(self, domain_root, capsys):
        huge_vera_group(domain_root)
        code = run_cli("--root", str(domain_root), "--json", "sync")
        assert code == 4
        report = strict_loads(capsys.readouterr().out)
        statuses = {o["payload_file"]: o["status"] for o in report["run_outcomes"]}
        assert statuses == {
            "jw_fall23.json": "ok",
            "sami_fall24.json": "ok",
            "vera_summer23.json": "partial",
        }
        assert len(list((domain_root / "runs").glob("*.json"))) == 1

    def test_lock_contention_exits_5(self, synced_root, capsys):
        lock = CycleLock(synced_root / ".a4l.lock")
        assert lock.acquire()
        try:
            code = run_cli("--root", str(synced_root), "sync")
        finally:
            lock.release()
        assert code == 5

    def test_json_report(self, domain_root, capsys):
        code = run_cli("--root", str(domain_root), "--json", "sync")
        assert code == 0
        report = strict_loads(capsys.readouterr().out)
        assert len(report["updated"]) == 3
        assert len(report["run_outcomes"]) == 3

    def test_file_named_just_csv_is_skipped(self, tmp_path, capsys):
        root = tmp_path / "root"
        (root / "store").mkdir(parents=True)
        for name in (".csv", "ok.csv"):
            (root / "store" / name).write_bytes(b"a,b\n1,2\n")
        # the first cycle syncs ok only, and no cycle keeps ".csv" pending
        for updated in (["ok"], []):
            assert run_cli("--root", str(root), "--json", "sync") == 0
            report = strict_loads(capsys.readouterr().out)
            assert [u["dataset"] for u in report["updated"]] == updated
            record = json.loads((root / "warehouse" / "reconcile.json").read_bytes())
            assert list(record["store"]) == ["ok"]
        assert list(Warehouse(root).manifest()) == ["ok"]
        assert run_cli("--root", str(root), "--json", "list") == 0
        assert list(strict_loads(capsys.readouterr().out)["datasets"]) == ["ok"]
        assert run_cli("--root", str(root), "list") == 0
        assert capsys.readouterr().out.startswith("ok sha256=")
        assert ".csv" not in [p.name for p in (root / "warehouse").iterdir()]


class TestWatchCommand:
    def test_lock_held_exits_5(self, synced_root, capsys):
        lock = CycleLock(synced_root / ".a4l.lock")
        assert lock.acquire()
        try:
            code = run_cli("--root", str(synced_root), "watch", "--interval", "1")
        finally:
            lock.release()
        assert code == 5


class TestList:
    def test_empty_root(self, tmp_path, capsys):
        code = run_cli("--root", str(tmp_path), "list")
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_three_domains(self, synced_root, capsys):
        code = run_cli("--root", str(synced_root), "list")
        assert code == 0
        out = capsys.readouterr().out
        for dataset in ("jw_fall23_usage", "vera_summer23_usage", "sami_fall24_usage"):
            assert dataset in out
        assert "sami_fall24.json -> sami_fall24_usage" in out

    def test_corrupt_manifest_exits_1(self, synced_root, capsys):
        (synced_root / "warehouse" / "manifest.json").write_text(
            "{broken", encoding="utf-8"
        )
        code = run_cli("--root", str(synced_root), "list")
        assert code == 1

    @pytest.mark.parametrize("command", ["list", "sync", "run", "validate"])
    def test_corrupt_manifest_entry_exits_1(self, synced_root, capsys, command):
        manifest = synced_root / "warehouse" / "manifest.json"
        entries = json.loads(manifest.read_text(encoding="utf-8"))
        entries["sami_fall24_usage"] = "oops"
        manifest.write_text(json.dumps(entries), encoding="utf-8")
        args = [command]
        if command in ("run", "validate"):
            args.append(str(synced_root / "payloads" / "sami_fall24.json"))
        code = run_cli("--root", str(synced_root), *args)
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert "manifest.json" in out and "'sami_fall24_usage'" in out

    UNDECODABLE_MANIFESTS = {
        "invalid_utf8": b'{"a\xff": 1}',
        "too_deep": b"[" * 100_000,
    }

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["list", "sync", "run", "validate"])
    @pytest.mark.parametrize("manifest", sorted(UNDECODABLE_MANIFESTS))
    def test_undecodable_manifest_exits_1(self, synced_root, capsys, manifest, command, as_json):
        path = synced_root / "warehouse" / "manifest.json"
        path.write_bytes(self.UNDECODABLE_MANIFESTS[manifest])
        args = ["--json"] if as_json else []
        args.append(command)
        if command in ("run", "validate"):
            args.append(str(synced_root / "payloads" / "sami_fall24.json"))
        code = run_cli("--root", str(synced_root), *args)
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        if as_json:
            error = json.loads(captured.out)["error"]
        else:
            assert captured.out.startswith("error: ") and captured.out.count("\n") == 1
            error = captured.out[len("error: ") :]
        assert error.startswith(f"{path}: ")

    def test_list_never_writes_the_record_and_reads_it_only_to_skip_reads(
        self, settled_root, capsys, input_reads
    ):
        record = settled_root / "warehouse" / "reconcile.json"
        before = record.stat()
        outputs = []
        for as_json in (False, True):
            input_reads.clear()
            assert run_cli("--root", str(settled_root), *(["--json"] if as_json else []), "list") == 0
            outputs.append(capsys.readouterr().out)
            assert input_reads == []  # every witness matched
        after = record.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        record.unlink()
        for as_json, expected in zip((False, True), outputs):
            assert run_cli("--root", str(settled_root), *(["--json"] if as_json else []), "list") == 0
            assert capsys.readouterr().out == expected
        assert not record.exists()

    def test_json_output_does_not_depend_on_the_record(self, synced_root, capsys):
        (synced_root / "payloads" / "broken.json").write_text("{nope", encoding="utf-8")
        run_cycle(synced_root)
        record = synced_root / "warehouse" / "reconcile.json"
        stored = record.read_bytes()
        # an edit the record does not know of yet
        sami = synced_root / "payloads" / "sami_fall24.json"
        doc = json.loads(sami.read_text(encoding="utf-8"))
        doc["analyses"][0]["dataset"] = "jw_fall23_usage"
        sami.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("--root", str(synced_root), "--json", "list") == 0
        with_record = json.loads(capsys.readouterr().out)
        assert record.read_bytes() == stored
        record.unlink()
        assert run_cli("--root", str(synced_root), "--json", "list") == 0
        assert json.loads(capsys.readouterr().out) == with_record
        assert not record.exists()
        assert with_record["unparseable"] == ["broken.json"]
        assert with_record["payloads"]["sami_fall24.json"] == [
            "jw_fall23_usage",
            "sami_fall24_usage",
        ]

    def test_json_output(self, synced_root, capsys):
        code = run_cli("--root", str(synced_root), "--json", "list")
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["datasets"]) == {
            "jw_fall23_usage",
            "vera_summer23_usage",
            "sami_fall24_usage",
        }
        assert data["payloads"]["jw_fall23.json"] == ["jw_fall23_usage"]
