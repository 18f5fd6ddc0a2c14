"""Payload execution, group splitting, result documents."""

import json

import pytest

from a4l_analytics.dataset import Warehouse, fetch_to_staging, load_csv, sha256_file
from a4l_analytics.errors import GroupSplitError
from a4l_analytics.payload import OutputSpec, parse_payload
from a4l_analytics.runner import (
    ResultDocument,
    execute_payload,
    group_index,
    split_groups,
    write_result,
)
from conftest import jw_payload, sami_payload


def dataset_from(tmp_path, text, name="d"):
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    return load_csv(path, name=name)


class TestSplitGroups:
    def test_boolean_ordering(self, tmp_path):
        ds = dataset_from(tmp_path, "used,score\nfalse,1\ntrue,2\nfalse,3\ntrue,4\n")
        split = split_groups(ds, "used", "score")
        assert split.sample1 == [1.0, 3.0]
        assert split.sample2 == [2.0, 4.0]
        assert split.ordering == {"false": "group1", "true": "group2"}
        assert split.labels == ("false", "true")

    def test_categorical_lexicographic(self, tmp_path):
        ds = dataset_from(tmp_path, "grp,score\nzeta,1\nalpha,2\nzeta,3\n")
        split = split_groups(ds, "grp", "score")
        assert split.labels == ("alpha", "zeta")
        assert split.sample1 == [2.0]

    def test_three_levels_error_lists_all(self, tmp_path):
        ds = dataset_from(tmp_path, "grp,score\na,1\nb,2\nc,3\n")
        with pytest.raises(GroupSplitError) as exc_info:
            split_groups(ds, "grp", "score")
        message = str(exc_info.value)
        assert "'a'" in message and "'b'" in message and "'c'" in message

    def test_pairwise_deletion(self, tmp_path):
        ds = dataset_from(
            tmp_path,
            "used,s1,s2\nfalse,1,\nfalse,2,5\ntrue,3,6\ntrue,,7\n",
        )
        first = split_groups(ds, "used", "s1")
        second = split_groups(ds, "used", "s2")
        # the row missing s1 only disappears for s1
        assert first.sample1 == [1.0, 2.0]
        assert first.sample2 == [3.0]
        assert second.sample1 == [5.0]
        assert second.sample2 == [6.0, 7.0]

    def test_missing_independent_dropped(self, tmp_path):
        ds = dataset_from(tmp_path, "used,score\nfalse,1\n,2\ntrue,3\n")
        split = split_groups(ds, "used", "score")
        assert split.sample1 == [1.0]
        assert split.sample2 == [3.0]

    def test_numeric_independent_rejected(self, tmp_path):
        ds = dataset_from(tmp_path, "used,score\n1,1\n2,2\n")
        with pytest.raises(GroupSplitError, match="boolean or categorical"):
            split_groups(ds, "used", "score")

    def test_categorical_dependent_rejected(self, tmp_path):
        ds = dataset_from(tmp_path, "used,label\ntrue,a\nfalse,b\n")
        with pytest.raises(GroupSplitError, match="numeric"):
            split_groups(ds, "used", "label")

    def test_independent_error_raised_before_dependent_error(self, tmp_path):
        ds = dataset_from(tmp_path, "used,label\n1,a\n2,b\n")
        with pytest.raises(GroupSplitError, match="boolean or categorical"):
            split_groups(ds, "used", "label")


class TestGroupIndex:
    def test_levels_and_rows(self, tmp_path):
        ds = dataset_from(tmp_path, "used,score\ntrue,1\n,2\nfalse,3\ntrue,\n")
        index = group_index(ds, "used")
        assert index.labels == ("false", "true")
        assert index.rows == ((2,), (0, 3))
        assert index.ordering() == {"false": "group1", "true": "group2"}

    def test_shared_index_splits_like_a_fresh_one(self, tmp_path):
        ds = dataset_from(
            tmp_path,
            "grp,s1,s2\nb,1,\na,2,5\nb,3,6\n,4,7\na,,8\n",
        )
        index = group_index(ds, "grp")
        for dep in ("s1", "s2"):
            shared = split_groups(ds, "grp", dep, index)
            fresh = split_groups(ds, "grp", dep)
            assert shared == fresh
        assert split_groups(ds, "grp", "s2", index).sample1 == [5.0, 8.0]

    def test_level_count_error_message(self, tmp_path):
        ds = dataset_from(tmp_path, "grp,score\na,1\na,2\n")
        with pytest.raises(GroupSplitError) as exc_info:
            group_index(ds, "grp")
        assert str(exc_info.value) == (
            "independent column 'grp' must have exactly 2 distinct "
            "non-missing levels, found 1: ['a']"
        )


def _staged_root(root):
    wh = Warehouse(root)
    from a4l_analytics.orchestrator import CycleLock, scan_store, sync_warehouse

    lock = CycleLock(root / ".a4l.lock")
    assert lock.acquire()
    try:
        sync_warehouse(scan_store(root / "store"), wh, lock)
    finally:
        lock.release()
    return wh


class TestExecutePayload:
    def test_jw_single_welch_result(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(jw_payload()))
        with fetch_to_staging(sorted(payload.datasets()), wh) as staged:
            docs = execute_payload(payload, staged)
        assert len(docs) == 2  # welch + contingency
        welch_doc = docs[0]
        assert welch_doc.statistic == "get_welch_ttest"
        assert len(welch_doc.results) == 1
        assert welch_doc.results[0]["kind"] == "welch_ttest"
        assert welch_doc.results[0]["dependent"] == "course_final_score"
        assert welch_doc.ordering == {"false": "group1", "true": "group2"}

    def test_sami_power_has_four_results(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(sami_payload()))
        with fetch_to_staging(sorted(payload.datasets()), wh) as staged:
            docs = execute_payload(payload, staged)
        power_doc = next(d for d in docs if d.statistic == "get_welch_power")
        assert len(power_doc.results) == 4
        assert all(r["kind"] == "welch_power" for r in power_doc.results)

    def test_provenance_hash_matches_staged_bytes(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(jw_payload()))
        with fetch_to_staging(sorted(payload.datasets()), wh) as staged:
            docs = execute_payload(payload, staged)
            staged_hash = sha256_file(staged.staged["jw_fall23_usage"])
        assert docs[0].dataset_sha256 == staged_hash
        assert docs[0].dataset_sha256 == wh.manifest()["jw_fall23_usage"]["sha256"]

    def test_degenerate_dependent_recorded_not_fatal(self, tmp_path):
        root = tmp_path / "root"
        (root / "store").mkdir(parents=True)
        (root / "store" / "flat.csv").write_text(
            "used,const,ok\n"
            + "".join(
                f"{'true' if i % 2 else 'false'},5.0,{i}.5\n" for i in range(12)
            ),
            encoding="utf-8",
        )
        wh = _staged_root(root)
        payload = parse_payload(
            json.dumps(
                {
                    "payload_version": 1,
                    "domain": "t",
                    "analyses": [
                        {
                            "statistic": "get_welch_ttest",
                            "dataset": "flat",
                            "independent": "used",
                            "dependent": ["const", "ok"],
                            "result_file": "t_flat",
                        }
                    ],
                    "output": {"bucket": "t", "prefix": ""},
                }
            )
        )
        with fetch_to_staging(["flat"], wh) as staged:
            (doc,) = execute_payload(payload, staged)
        assert doc.results[0]["error"]["kind"] == "degenerate_data"
        assert doc.results[1]["kind"] == "welch_ttest"
        assert doc.has_errors()

    def test_determinism_modulo_run_metadata(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(sami_payload()))

        def run_once():
            with fetch_to_staging(sorted(payload.datasets()), wh) as staged:
                docs = execute_payload(payload, staged)
            out = [d.to_dict() for d in docs]
            for d in out:
                d.pop("run_id")
                d.pop("generated_at")
            return out

        assert run_once() == run_once()


class TestWriteResult:
    def _doc(self, result_file="sami_fall24_ttest"):
        return ResultDocument(
            domain="sami",
            statistic="get_welch_ttest",
            dataset_name="sami_fall24_usage",
            dataset_sha256="0" * 64,
            independent="used_sami",
            alternative="less",
            alpha=0.05,
            ordering={"false": "group1", "true": "group2"},
            results=[],
            result_file=result_file,
            run_id="abc",
            generated_at="2026-01-01T00:00:00+00:00",
        )

    def test_flat_bucket_layout(self, tmp_path):
        key = write_result(self._doc(), OutputSpec(bucket="sami", prefix=""), tmp_path)
        assert key.as_path() == "sami/sami_fall24_ttest.json"
        assert (tmp_path / "sami" / "sami_fall24_ttest.json").is_file()

    def test_prefixed_layout(self, tmp_path):
        key = write_result(
            self._doc("vera_summer23_ttest_power"),
            OutputSpec(bucket="vera", prefix="fall/2024"),
            tmp_path,
        )
        assert key.as_path() == "vera/fall/2024/vera_summer23_ttest_power.json"
        assert (tmp_path / "vera" / "fall" / "2024").is_dir()

    def test_overwrite_in_place(self, tmp_path):
        out = OutputSpec(bucket="sami", prefix="")
        write_result(self._doc(), out, tmp_path)
        doc = self._doc()
        doc.run_id = "other"
        write_result(doc, out, tmp_path)
        stored = json.loads(
            (tmp_path / "sami" / "sami_fall24_ttest.json").read_text(encoding="utf-8")
        )
        assert stored["run_id"] == "other"
        assert list((tmp_path / "sami").iterdir()) == [
            tmp_path / "sami" / "sami_fall24_ttest.json"
        ]

    def test_document_shape(self, tmp_path):
        out = OutputSpec(bucket="sami", prefix="")
        write_result(self._doc(), out, tmp_path)
        stored = json.loads(
            (tmp_path / "sami" / "sami_fall24_ttest.json").read_text(encoding="utf-8")
        )
        assert stored["schema_version"] == 1
        assert stored["dataset"] == {"name": "sami_fall24_usage", "sha256": "0" * 64}
        assert stored["groups"] == {"false": "group1", "true": "group2"}
