"""CSV loading, kind inference, warehouse and staging."""

import hashlib
import json

import pytest

from a4l_analytics.dataset import (
    DatasetCache,
    StagedRun,
    Warehouse,
    fetch_to_staging,
    load_csv,
    sha256_file,
)
from a4l_analytics.errors import DatasetError, ManifestError, UnknownDatasetError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_boolean_and_numeric(self, tmp_path):
        path = write(tmp_path, "d.csv", "used_sami,sob_score\ntrue,4.2\nfalse,3.1\n")
        ds = load_csv(path)
        assert ds.row_count == 2
        assert [c.kind for c in ds.columns] == ["boolean", "numeric"]
        assert ds.column("used_sami").cells == (True, False)
        assert ds.column("sob_score").cells == (4.2, 3.1)

    def test_empty_cell_is_missing_not_zero(self, tmp_path):
        path = write(tmp_path, "d.csv", "x\n1.5\n\n2.5\n")
        # a blank line is a ragged row, use an empty field instead
        path.write_text("x,y\n1.5,a\n,b\n2.5,c\n", encoding="utf-8")
        ds = load_csv(path)
        assert ds.column("x").kind == "numeric"
        assert ds.column("x").cells == (1.5, None, 2.5)

    def test_age_bands_are_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "age_group\n<25\n>=25\n<25\n")
        col = load_csv(path).column("age_group")
        assert col.kind == "categorical"
        assert set(col.present()) == {"<25", ">=25"}

    def test_inference_order_numeric_wins(self, tmp_path):
        path = write(tmp_path, "d.csv", "flag\n0\n1\n0\n")
        assert load_csv(path).column("flag").kind == "numeric"

    def test_yes_no_boolean(self, tmp_path):
        path = write(tmp_path, "d.csv", "flag\nYes\nno\nNO\n")
        col = load_csv(path).column("flag")
        assert col.kind == "boolean"
        assert col.cells == (True, False, False)

    def test_non_finite_literals_are_categorical(self, tmp_path):
        path = write(tmp_path, "d.csv", "x\n1.0\ninf\n")
        assert load_csv(path).column("x").kind == "categorical"

    def test_ragged_row_error_with_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,a\n1,2,3\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(path)

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,x\n2,y\n")
        assert load_csv(path) == load_csv(path)

    def test_version_is_sha256_of_bytes(self, tmp_path):
        path = write(tmp_path, "d.csv", "a\n1\n")
        assert load_csv(path).version == sha256_file(path)

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, "d.csv", 'name,score\n"last, first",3\n')
        ds = load_csv(path)
        assert ds.column("name").cells == ("last, first",)

    def test_crlf_bom_and_quoted_newline_kept(self, tmp_path):
        raw = '\ufeffa,note\r\n1,"two\r\nlines"\r\n'.encode("utf-8")
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        ds = load_csv(path)
        assert ds.column_names() == ["\ufeffa", "note"]
        assert ds.column("note").cells == ("two\r\nlines",)
        assert ds.version == hashlib.sha256(raw).hexdigest()

    def test_invalid_utf8_is_dataset_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n\xff,1\n")
        with pytest.raises(DatasetError, match="unreadable"):
            load_csv(path)


class TestDatasetCache:
    def test_same_key_parses_once(self, tmp_path, parses):
        path = write(tmp_path, "d.csv", "a\n1\n")
        cache = DatasetCache()
        first = cache.get("d", "v1", path)
        assert cache.get("d", "v1", path) is first
        assert parses == ["d"]

    def test_new_version_parses_again(self, tmp_path, parses):
        path = write(tmp_path, "d.csv", "a\n1\n")
        cache = DatasetCache()
        cache.get("d", "v1", path)
        path.write_text("a\n2\n", encoding="utf-8")
        assert cache.get("d", "v2", path).column("a").cells == (2.0,)
        assert parses == ["d", "d"]

    def test_retain_drops_other_names(self, tmp_path, parses):
        cache = DatasetCache()
        cache.get("d", "v1", write(tmp_path, "d.csv", "a\n1\n"))
        cache.get("e", "v1", write(tmp_path, "e.csv", "b\n1\n"))
        cache.retain(["e"])
        cache.get("e", "v1", tmp_path / "e.csv")
        cache.get("d", "v1", tmp_path / "d.csv")
        assert parses == ["d", "e", "d"]


class TestWarehouse:
    def _prime(self, root, name, text):
        wh = Warehouse(root)
        wh.dir.mkdir(parents=True, exist_ok=True)
        target = wh.dataset_path(name)
        target.write_text(text, encoding="utf-8")
        wh.write_manifest(
            {
                name: {
                    "sha256": sha256_file(target),
                    "bytes": target.stat().st_size,
                    "updated": "2026-01-01T00:00:00+00:00",
                }
            }
        )
        return wh

    def test_manifest_round_trip(self, tmp_path):
        wh = self._prime(tmp_path, "d", "a\n1\n")
        manifest = wh.manifest()
        assert "d" in manifest
        assert set(manifest["d"]) == {"sha256", "bytes", "updated"}

    def test_missing_manifest_is_empty(self, tmp_path):
        assert Warehouse(tmp_path).manifest() == {}

    def test_corrupt_manifest(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True)
        wh.manifest_path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ManifestError):
            wh.manifest()

    def test_column_catalog(self, tmp_path):
        wh = self._prime(tmp_path, "d", "used,score\ntrue,1.5\nfalse,2.5\n")
        assert wh.column_catalog() == {"d": {"used": "boolean", "score": "numeric"}}

    def test_column_catalog_parses_only_what_is_looked_up(self, tmp_path, parses):
        wh = self._prime(tmp_path, "d", "used,score\ntrue,1.5\nfalse,2.5\n")
        manifest = wh.manifest()
        broken = wh.dataset_path("broken")
        broken.write_text("a,b\n1\n", encoding="utf-8")
        manifest["broken"] = dict(manifest["d"], sha256=sha256_file(broken))
        wh.write_manifest(manifest)

        catalog = wh.column_catalog(DatasetCache())
        assert sorted(catalog) == ["broken", "d"]
        assert "broken" in catalog and "ghost" not in catalog
        assert parses == []
        assert catalog["d"] == {"used": "boolean", "score": "numeric"}
        assert catalog["d"]["score"] == "numeric"
        assert parses == ["d"]
        with pytest.raises(DatasetError, match="ragged"):
            catalog["broken"]

    def test_load_unknown_dataset(self, tmp_path):
        wh = self._prime(tmp_path, "d", "a\n1\n")
        with pytest.raises(UnknownDatasetError):
            wh.load("other")


class TestStaging:
    def _warehouse(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True, exist_ok=True)
        entries = {}
        for name, text in (("one", "a\n1\n"), ("two", "b\n2\n")):
            target = wh.dataset_path(name)
            target.write_text(text, encoding="utf-8")
            entries[name] = {
                "sha256": sha256_file(target),
                "bytes": target.stat().st_size,
                "updated": "2026-01-01T00:00:00+00:00",
            }
        wh.write_manifest(entries)
        return wh

    def test_copy_fidelity(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with fetch_to_staging(["one"], wh) as run:
            assert sha256_file(run.staged["one"]) == wh.manifest()["one"]["sha256"]

    def test_empty_request(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with fetch_to_staging([], wh) as run:
            assert run.staged == {}

    def test_two_datasets_one_run_directory(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with fetch_to_staging(["one", "two"], wh) as run:
            paths = list(run.staged.values())
            assert len(paths) == 2
            assert paths[0] != paths[1]
            assert paths[0].parent == paths[1].parent == run.root

    def test_unknown_name_is_internal_error(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with pytest.raises(UnknownDatasetError):
            fetch_to_staging(["ghost"], wh)

    def test_staging_removed_after_run(self, tmp_path):
        wh = self._warehouse(tmp_path)
        with fetch_to_staging(["one"], wh) as run:
            root = run.root
            assert root.is_dir()
        assert not root.exists()

    def test_missing_count_preserved(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.dir.mkdir(parents=True, exist_ok=True)
        text = "x\n1\n\n2\n\n3\n".replace("\n\n", "\n,\n")  # keep simple: one col
        target = wh.dataset_path("gaps")
        target.write_text("x,y\n1,a\n,b\n2,c\n,d\n", encoding="utf-8")
        wh.write_manifest(
            {
                "gaps": {
                    "sha256": sha256_file(target),
                    "bytes": target.stat().st_size,
                    "updated": "2026-01-01T00:00:00+00:00",
                }
            }
        )
        before = load_csv(target, name="gaps")
        missing_before = sum(1 for c in before.column("x").cells if c is None)
        with fetch_to_staging(["gaps"], wh) as run:
            after = load_csv(run.staged["gaps"], name="gaps")
            missing_after = sum(1 for c in after.column("x").cells if c is None)
        assert missing_before == missing_after == 2


class TestManifestAtomicity:
    def test_write_replaces_atomically(self, tmp_path):
        wh = Warehouse(tmp_path)
        wh.write_manifest({"a": {"sha256": "0" * 64, "bytes": 1, "updated": "t"}})
        wh.write_manifest({"b": {"sha256": "1" * 64, "bytes": 2, "updated": "t"}})
        data = json.loads(wh.manifest_path.read_text(encoding="utf-8"))
        assert list(data) == ["b"]
        leftovers = list(wh.dir.glob(".manifest-*"))
        assert leftovers == []
