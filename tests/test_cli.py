"""CLI behavior and the exit-code contract."""

import json

import pytest

from a4l_analytics.cli import main
from a4l_analytics.orchestrator import CycleLock, run_cycle
from conftest import sami_payload


def run_cli(*argv):
    return main(list(argv))


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

    def test_partial_exits_4_but_writes(self, synced_root, capsys, tmp_path):
        # append rows making one dependent constant within both groups
        store = synced_root / "store" / "sami_fall24_usage.csv"
        text = store.read_text(encoding="utf-8")
        header, rows = text.split("\n", 1)
        cols = header.split(",")
        const_idx = cols.index("sob_score")
        fixed_rows = []
        for line in rows.strip().split("\n"):
            parts = line.split(",")
            parts[const_idx] = "3.00"
            fixed_rows.append(",".join(parts))
        store.write_text(header + "\n" + "\n".join(fixed_rows) + "\n", encoding="utf-8")
        run_cycle(synced_root)

        code = run_cli(
            "--root", str(synced_root), "run",
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 4
        doc = json.loads(
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
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_parses_only_the_payloads_datasets(self, synced_root, parses, command):
        code = run_cli(
            "--root", str(synced_root), command,
            str(synced_root / "payloads" / "sami_fall24.json"),
        )
        assert code == 0
        assert parses == ["sami_fall24_usage"]

    def test_each_command_parses_afresh(self, synced_root, parses):
        for _ in range(2):
            run_cli(
                "--root", str(synced_root), "run",
                str(synced_root / "payloads" / "jw_fall23.json"),
            )
        assert parses == ["jw_fall23_usage", "jw_fall23_usage"]


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
        report = json.loads(capsys.readouterr().out)
        assert len(report["updated"]) == 3
        assert len(report["run_outcomes"]) == 3


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
