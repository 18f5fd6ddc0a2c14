"""Payload execution, group splitting, result documents."""

import json
import shutil
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from a4l_analytics import dataset, runner
from a4l_analytics.cli import main
from a4l_analytics.dataset import (
    DatasetCache,
    Warehouse,
    fetch_to_staging,
    load_csv,
    sha256_file,
)
from a4l_analytics.errors import DegenerateDataError, GroupSplitError
from a4l_analytics.orchestrator import run_cycle
from a4l_analytics.payload import OutputSpec, parse_payload
from a4l_analytics.runner import (
    GroupSplit,
    ResultDocument,
    document_text,
    entry_text,
    execute_payload,
    group_index,
    split_groups,
    write_result,
)
from a4l_analytics.stats import (
    ContingencyTable,
    DescriptivesResult,
    GroupSummary,
    MannWhitneyResult,
    PowerResult,
    WelchResult,
)
from conftest import (
    build_root,
    column_blobs,
    column_file_bytes,
    entries_blob,
    jw_payload,
    read_column_file,
    sami_payload,
)
from schema_check import RESULT_SCHEMA, strict_loads

RESULT_TYPES = [
    WelchResult,
    PowerResult,
    MannWhitneyResult,
    ContingencyTable,
    DescriptivesResult,
]


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

    def test_summaries_are_kept_and_a_degenerate_error_is_raised_on_every_access(self, derived):
        split = GroupSplit([1.0, 3.0], [2.0, 4.0], {"a": "group1", "b": "group2"}, ("a", "b"))
        assert split.summaries is split.summaries
        assert derived["summaries"] == ["a", "b"]
        derived["summaries"].clear()
        # the sum of group a overflows the float range
        huge = GroupSplit([1e308, 1e308], [2.0, 4.0], {"a": "group1", "b": "group2"}, ("a", "b"))
        for _ in range(2):
            with pytest.raises(DegenerateDataError, match="overflows"):
                huge.summaries
        assert derived["summaries"] == ["a", "a"]


class TestGroupIndex:
    def test_levels_and_rows(self, tmp_path):
        ds = dataset_from(tmp_path, "used,score\ntrue,1\n,2\nfalse,3\ntrue,\n")
        index = group_index(ds, "used")
        assert index.labels == ("false", "true")
        assert index.masks == (b"\x00\x00\x01\x00", b"\x01\x00\x00\x01")
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
    from a4l_analytics.orchestrator import CycleLock, RegistryRecord, scan_store, sync_warehouse

    lock = CycleLock(root / ".a4l.lock")
    assert lock.acquire()
    try:
        scan = scan_store(root / "store", RegistryRecord(wh.reconcile_path), lock.stamp)
        sync_warehouse(scan, wh, lock, wh.manifest())
    finally:
        lock.release()
    return wh


class TestExecutePayload:
    def test_jw_single_welch_result(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(jw_payload()))
        staged = fetch_to_staging(sorted(payload.datasets()), wh, wh.manifest())
        docs = execute_payload(payload, staged, DatasetCache())
        assert len(docs) == 2  # welch + contingency
        welch_doc = docs[0]
        assert welch_doc.statistic == "get_welch_ttest"
        assert len(welch_doc.results) == 1
        assert welch_doc.results[0]["kind"] == "welch_ttest"
        assert welch_doc.results[0]["dependent"] == "course_final_score"
        assert welch_doc.groups == {"false": "group1", "true": "group2"}

    def test_sami_power_has_four_results(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(sami_payload()))
        staged = fetch_to_staging(sorted(payload.datasets()), wh, wh.manifest())
        docs = execute_payload(payload, staged, DatasetCache())
        power_doc = next(d for d in docs if d.statistic == "get_welch_power")
        assert len(power_doc.results) == 4
        assert all(r["kind"] == "welch_power" for r in power_doc.results)

    def test_provenance_hash_matches_staged_bytes(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(jw_payload()))
        staged = fetch_to_staging(sorted(payload.datasets()), wh, wh.manifest())
        docs = execute_payload(payload, staged, DatasetCache())
        staged_hash = sha256_file(staged.staged["jw_fall23_usage"])
        assert docs[0].dataset["sha256"] == staged_hash
        assert docs[0].dataset["sha256"] == wh.manifest()["jw_fall23_usage"]["sha256"]

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
        staged = fetch_to_staging(["flat"], wh, wh.manifest())
        (doc,) = execute_payload(payload, staged, DatasetCache())
        assert doc.results[0]["error"]["kind"] == "degenerate_data"
        assert doc.results[1]["kind"] == "welch_ttest"
        assert doc.has_errors()

    def test_determinism_modulo_run_metadata(self, domain_root):
        wh = _staged_root(domain_root)
        payload = parse_payload(json.dumps(sami_payload()))

        def run_once():
            staged = fetch_to_staging(sorted(payload.datasets()), wh, wh.manifest())
            docs = execute_payload(payload, staged, DatasetCache())
            out = [d.to_dict() for d in docs]
            for d in out:
                d.pop("run_id")
                d.pop("generated_at")
            return out

        assert run_once() == run_once()


XYZ = "xyz_spring25_usage"
XYZ_DEPENDENTS = ["engagement_score", "quiz_score"]
GROUPED_STATISTICS = (
    "get_welch_ttest",
    "get_welch_power",
    "get_descriptives",
    "get_mann_whitney_u",
)


def _payload(domain, analyses):
    return {
        "payload_version": 1,
        "domain": domain,
        "analyses": [
            {**a, "result_file": f"{domain}_{i}"} for i, a in enumerate(analyses)
        ],
        "output": {"bucket": domain, "prefix": ""},
    }


def _requests(dataset, independent, dependent, statistics=GROUPED_STATISTICS):
    return [
        {
            "statistic": s,
            "dataset": dataset,
            "independent": independent,
            "dependent": dependent,
        }
        for s in statistics
    ]


# every statistic over the xyz fixture
_ALL_REQUESTS = _requests(XYZ, "used_xyz", XYZ_DEPENDENTS) + _requests(
    XYZ, "used_xyz", ["region"], ("get_contingency_table",)
)


def _written(root, domain):
    """The documents written for ``domain``'s payload, in request order,
    without run_id and generated_at."""
    paths = (root / "results" / domain).glob("*.json")
    out = []
    for path in sorted(paths, key=lambda p: int(p.stem.rsplit("_", 1)[1])):
        doc = strict_loads(path.read_text(encoding="utf-8"))
        doc.pop("run_id")
        doc.pop("generated_at")
        out.append(doc)
    return out


def _documents(docs):
    out = [d.to_dict() for d in docs]
    for d in out:
        d.pop("run_id")
        d.pop("generated_at")
    return out


class TestSharedViews:
    """Within one invocation each (dataset, independent, dependent) is
    split once, and each split summarised once, whichever statistics and
    payloads read it; each result entry is computed once per (dataset,
    statistic, independent, dependent, alternative, alpha)."""

    def _root(self, tmp_path, statistics=GROUPED_STATISTICS):
        root = build_root(tmp_path / "root", domains=("xyz",))
        (root / "payloads" / "xyz_spring25.json").unlink()
        for domain in ("a", "b"):
            doc = _payload(domain, _requests(XYZ, "used_xyz", XYZ_DEPENDENTS, statistics))
            (root / "payloads" / f"{domain}.json").write_text(json.dumps(doc))
        return root

    def test_one_split_and_summary_per_column_in_a_cycle(self, tmp_path, derived):
        report = run_cycle(self._root(tmp_path))
        assert [o.status for o in report.run_outcomes] == ["ok", "ok"]
        assert derived["splits"] == [(XYZ, "used_xyz", d) for d in XYZ_DEPENDENTS]
        assert derived["summaries"] == ["false", "true"] * len(XYZ_DEPENDENTS)

    def test_later_invocations_reuse_stored_entries(self, tmp_path, derived, capsys):
        root = self._root(tmp_path)
        run_cycle(root)
        for _ in range(2):
            assert main(["--root", str(root), "run", str(root / "payloads" / "a.json")]) == 0
        assert derived["splits"] == [(XYZ, "used_xyz", d) for d in XYZ_DEPENDENTS]
        assert len(derived["summaries"]) == 2 * len(XYZ_DEPENDENTS)
        # the cycle computes each entry once for both payloads; each run
        # reads them from the dataset version's column file
        assert derived["kernels"] == {
            name: len(XYZ_DEPENDENTS)
            for name in ("welch_ttest", "welch_power", "mann_whitney_u")
        }

    def test_identical_requests_compute_each_entry_once(self, tmp_path, derived):
        root = self._root(tmp_path)
        for domain in ("a", "b"):
            doc = _payload(domain, _ALL_REQUESTS)
            (root / "payloads" / f"{domain}.json").write_text(json.dumps(doc))
        report = run_cycle(root)
        assert [o.status for o in report.run_outcomes] == ["ok", "ok"]
        assert derived["kernels"] == {
            "welch_ttest": len(XYZ_DEPENDENTS),
            "welch_power": len(XYZ_DEPENDENTS),
            "mann_whitney_u": len(XYZ_DEPENDENTS),
            "contingency": 1,
        }
        a, b = (_written(root, domain) for domain in ("a", "b"))
        assert [d["results"] for d in a] == [d["results"] for d in b]

    def test_other_alpha_or_alternative_is_computed_apart(self, tmp_path, derived):
        root = self._root(tmp_path, ("get_welch_ttest", "get_welch_power"))
        requests = _requests(XYZ, "used_xyz", XYZ_DEPENDENTS, ("get_welch_ttest",))
        requests += _requests(XYZ, "used_xyz", XYZ_DEPENDENTS, ("get_welch_power",))
        requests[0]["alpha"] = 0.01
        requests[1]["alternative"] = "greater"
        (root / "payloads" / "b.json").write_text(json.dumps(_payload("b", requests)))
        report = run_cycle(root)
        assert [o.status for o in report.run_outcomes] == ["ok", "ok"]
        n = len(XYZ_DEPENDENTS)
        assert derived["kernels"] == {"welch_ttest": 2 * n, "welch_power": 2 * n}
        a, b = (_written(root, domain) for domain in ("a", "b"))
        for doc, alpha, alternative in [
            (a[0], 0.05, "two_sided"),
            (a[1], 0.05, "two_sided"),
            (b[0], 0.01, "two_sided"),
            (b[1], 0.05, "greater"),
        ]:
            assert (doc["alpha"], doc["alternative"]) == (alpha, alternative)
            assert [(e["alpha"], e["alternative"]) for e in doc["results"]] == [
                (alpha, alternative)
            ] * n
        assert a[0]["results"][0]["p_value"] == b[0]["results"][0]["p_value"]
        assert a[1]["results"][0]["power"] != b[1]["results"][0]["power"]

    def test_error_entry_is_shared_and_rendered_alike(self, tmp_path, derived):
        root = tmp_path / "root"
        (root / "store").mkdir(parents=True)
        (root / "payloads").mkdir()
        (root / "store" / "d.csv").write_text(
            "used,constant\n" + "".join(f"{'true' if i % 2 else 'false'},3.5\n" for i in range(12)),
            encoding="utf-8",
        )
        statistics = ("get_welch_ttest", "get_welch_power")
        for domain in ("a", "b"):
            doc = _payload(domain, _requests("d", "used", ["constant"], statistics))
            (root / "payloads" / f"{domain}.json").write_text(json.dumps(doc))
        report = run_cycle(root)
        assert [o.status for o in report.run_outcomes] == ["partial", "partial"]
        assert derived["kernels"] == {"welch_ttest": 1, "welch_power": 1}
        texts = {
            domain: [json.dumps(d["results"]) for d in _written(root, domain)]
            for domain in ("a", "b")
        }
        assert texts["a"] == texts["b"]
        assert all('"error"' in t for t in texts["a"])

    def test_memoized_documents_equal_separate_invocations(self, tmp_path, capsys):
        root = self._root(tmp_path)
        (root / "payloads" / "a.json").write_text(json.dumps(_payload("a", _ALL_REQUESTS)))
        (root / "payloads" / "b.json").write_text(
            json.dumps(_payload("b", _requests(XYZ, "used_xyz", ["quiz_score"])))
        )
        run_cycle(root)
        shared = {domain: _written(root, domain) for domain in ("a", "b")}
        for domain in ("a", "b"):
            # one command per payload: a fresh invocation, with nothing
            # memoized and no column file, so no stored entry
            shutil.rmtree(root / "warehouse" / "columns")
            payload = root / "payloads" / f"{domain}.json"
            assert main(["--root", str(root), "run", str(payload)]) == 0
            assert _written(root, domain) == shared[domain]

    def test_mann_whitney_alone_never_summarises(self, tmp_path, derived):
        report = run_cycle(self._root(tmp_path, ("get_mann_whitney_u",)))
        assert [o.status for o in report.run_outcomes] == ["ok", "ok"]
        assert len(derived["splits"]) == len(XYZ_DEPENDENTS)
        assert derived["summaries"] == []

    def test_shared_documents_equal_separate_ones(self, tmp_path):
        wh = _staged_root(build_root(tmp_path / "root", domains=("xyz",)))
        staged = fetch_to_staging([XYZ], wh, wh.manifest())
        requests = _requests(XYZ, "used_xyz", XYZ_DEPENDENTS)
        shared = execute_payload(
            parse_payload(json.dumps(_payload("a", requests))), staged, DatasetCache()
        )
        separate = []
        for i, request in enumerate(requests):
            # one payload per request, each with a fresh dataset cache
            doc = _payload("a", [request])
            doc["analyses"][0]["result_file"] = f"a_{i}"
            separate.extend(
                execute_payload(parse_payload(json.dumps(doc)), staged, DatasetCache())
            )
        assert _documents(shared) == _documents(separate)

    def test_failed_split_gives_every_request_the_same_error(self, tmp_path, derived):
        root = tmp_path / "root"
        (root / "store").mkdir(parents=True)
        (root / "store" / "d.csv").write_text(
            "grp,used,score,label\n"
            + "".join(
                f"{'abc'[i % 3]},{'true' if i % 2 else 'false'},{i}.5,{'xy'[i % 2]}\n"
                for i in range(12)
            ),
            encoding="utf-8",
        )
        wh = _staged_root(root)
        # unvalidated, so a categorical dependent reaches the split
        analyses = _requests("d", "grp", ["score"]) + _requests("d", "used", ["label"])
        payload = parse_payload(json.dumps(_payload("t", analyses)))
        staged = fetch_to_staging(["d"], wh, wh.manifest())
        docs = execute_payload(payload, staged, DatasetCache())
        n = len(GROUPED_STATISTICS)
        three_levels = {json.dumps(d.results) for d in docs[:n]}
        not_numeric = {json.dumps(d.results) for d in docs[n:]}
        assert [strict_loads(e) for e in three_levels] == [
            [
                {
                    "dependent": "score",
                    "error": {
                        "kind": "group_split",
                        "message": "independent column 'grp' must have exactly 2 "
                        "distinct non-missing levels, found 3: ['a', 'b', 'c']",
                    },
                }
            ]
        ]
        assert [strict_loads(e) for e in not_numeric] == [
            [
                {
                    "dependent": "label",
                    "error": {
                        "kind": "group_split",
                        "message": "dependent column 'label' is categorical, needs numeric",
                    },
                }
            ]
        ]
        # a failure is not kept: each request tries the split again
        assert derived["splits"] == [("d", "grp", "score")] * n + [
            ("d", "used", "label")
        ] * n
        assert derived["summaries"] == []


# A dataset whose constant column fails Welch's test and power with a
# degenerate_data error entry.
CONSTANT_CSV = "used,constant\n" + "".join(
    f"{'true' if i % 2 else 'false'},3.5\n" for i in range(12)
)
_ERROR_REQUESTS = _requests("d", "used", ["constant"], ("get_welch_ttest", "get_welch_power"))


class TestStoredEntries:
    """Each dataset version's result entries are kept in its column file
    and reused by every later invocation of the same package source."""

    def _root(self, tmp_path):
        """xyz and the constant dataset d, synced. The registry asks
        every grouped statistic of xyz (a.json) and the error requests of
        d (e.json); probe.json, outside the registry, asks those and the
        contingency table too."""
        root = build_root(tmp_path / "root", domains=("xyz",))
        (root / "payloads" / "xyz_spring25.json").unlink()
        (root / "store" / "d.csv").write_text(CONSTANT_CSV, encoding="utf-8")
        for domain, requests in (
            ("a", _requests(XYZ, "used_xyz", XYZ_DEPENDENTS)),
            ("e", _ERROR_REQUESTS),
        ):
            (root / "payloads" / f"{domain}.json").write_text(
                json.dumps(_payload(domain, requests))
            )
        (root / "probe.json").write_text(
            json.dumps(_payload("probe", _ALL_REQUESTS + _ERROR_REQUESTS))
        )
        report = run_cycle(root)
        assert [o.status for o in report.run_outcomes] == ["ok", "partial"]
        return root

    @staticmethod
    def _run(root, payload="probe.json"):
        return main(["--root", str(root), "run", str(root / payload)])

    @staticmethod
    def _files(root):
        return sorted((root / "warehouse" / "columns").glob("*.marshal"))

    @staticmethod
    def _texts(root):
        """Each probe document's lines but its run_id and generated_at."""
        return {
            path.name: [
                line
                for line in path.read_text(encoding="utf-8").splitlines()
                if '"run_id":' not in line and '"generated_at":' not in line
            ]
            for path in sorted((root / "results" / "probe").glob("*.json"))
        }

    @staticmethod
    def _clear(derived):
        derived["splits"].clear()
        derived["summaries"].clear()
        derived["kernels"].clear()

    def _fresh_run(self, root, derived):
        """Run the probe with no column file, so with no stored entry;
        the kernel calls it made."""
        shutil.rmtree(root / "warehouse" / "columns")
        self._clear(derived)
        assert self._run(root) == 4
        made = dict(derived["kernels"])
        self._clear(derived)
        return made

    def test_run_after_a_cycle_computes_only_what_the_cycle_did_not(
        self, tmp_path, derived, capsys
    ):
        root = self._root(tmp_path)
        self._clear(derived)
        assert self._run(root) == 4
        assert derived["splits"] == [] and derived["summaries"] == []
        assert derived["kernels"] == {"contingency": 1}

    def test_second_identical_run_computes_nothing_and_writes_the_same_bytes(
        self, tmp_path, derived, capsys, parses
    ):
        root = self._root(tmp_path)
        made = self._fresh_run(root, derived)
        n = len(XYZ_DEPENDENTS)
        assert made == {
            "welch_ttest": n + 1,
            "welch_power": n + 1,
            "mann_whitney_u": n,
            "contingency": 1,
        }
        first = self._texts(root)
        assert any('"error": {' in line for lines in first.values() for line in lines)
        files = {path: path.read_bytes() for path in self._files(root)}
        parses.clear()
        assert self._run(root) == 4
        assert derived == {"splits": [], "summaries": [], "kernels": {}}
        assert parses == []
        assert self._texts(root) == first
        # nothing was computed, so no column file was written again
        assert {path: path.read_bytes() for path in self._files(root)} == files

    def test_other_source_recomputes_every_entry_and_keeps_the_columns(
        self, tmp_path, derived, capsys, parses, monkeypatch
    ):
        root = self._root(tmp_path)
        made = self._fresh_run(root, derived)
        first = self._texts(root)
        parses.clear()
        monkeypatch.setattr(dataset, "source_fingerprint", lambda: "0" * 64)
        assert self._run(root) == 4
        assert derived["kernels"] == made
        assert parses == []
        assert self._texts(root) == first
        # the files were written again under the new fingerprint
        self._clear(derived)
        assert self._run(root) == 4
        assert derived["kernels"] == {}

    @pytest.mark.parametrize(
        "spoil",
        [
            "foreign_tag",
            "not_a_dict",
            "key_of_other_types",
            "entry_not_a_dict",
            "text_not_a_str",
            "labels_not_pairs",
            "truncated",
        ],
    )
    def test_bad_entries_are_ignored_and_rewritten(
        self, tmp_path, derived, capsys, parses, spoil
    ):
        root = self._root(tmp_path)
        made = self._fresh_run(root, derived)
        first = self._texts(root)
        for path in self._files(root):
            data = path.read_bytes()
            tag, row_count, columns, entries_tag, entries, labels = read_column_file(data)
            key, entry = next(iter(entries.items()))
            spoiled = {
                "foreign_tag": ("f" * 64, entries, labels),
                "not_a_dict": (entries_tag, list(entries.items()), labels),
                "key_of_other_types": (entries_tag, {**entries, key[:4] + (1,): entry}, labels),
                "entry_not_a_dict": (entries_tag, {**entries, key: list(entry.items())}, labels),
                # an (entry, text) pair stored as given
                "text_not_a_str": (entries_tag, {**entries, key: (entry, None)}, labels),
                "labels_not_pairs": (entries_tag, entries, {"used_xyz": ["false", "true"]}),
            }.get(spoil)
            if spoiled is None:
                path.write_bytes(data[:-5])
            else:
                path.write_bytes(column_file_bytes(tag, row_count, columns, *spoiled))
        parses.clear()
        assert self._run(root) == 4
        assert derived["kernels"] == made
        # a truncated file loses its columns too, and is parsed again
        assert sorted(parses) == (sorted([XYZ, "d"]) if spoil == "truncated" else [])
        assert self._texts(root) == first
        self._clear(derived)
        assert self._run(root) == 4
        assert derived["kernels"] == {}

    def test_validate_stores_no_entries(self, tmp_path, capsys):
        root = self._root(tmp_path)
        shutil.rmtree(root / "warehouse" / "columns")
        probe = str(root / "probe.json")
        assert main(["--root", str(root), "validate", probe]) == 0
        files = self._files(root)
        assert len(files) == 2
        for path in files:
            _, _, _, entries_tag, entries, labels = read_column_file(path.read_bytes())
            assert (entries_tag, entries, labels) == (None, {}, {})
        # a version loaded with its entries is not written again
        assert self._run(root) == 4
        stored = {path: path.read_bytes() for path in self._files(root)}
        assert main(["--root", str(root), "validate", probe]) == 0
        assert {path: path.read_bytes() for path in self._files(root)} == stored

    @staticmethod
    def _decoding(monkeypatch):
        """The size of each input of dataset.marshal.loads from now on."""
        sizes = []
        loads = dataset.marshal.loads

        def recording(data):
            sizes.append(len(data))
            return loads(data)

        monkeypatch.setattr(dataset.marshal, "loads", recording)
        return sizes

    def test_run_from_stored_entries_decodes_no_column(
        self, tmp_path, derived, capsys, monkeypatch
    ):
        root = self._root(tmp_path)
        assert self._run(root) == 4
        files = [path.read_bytes() for path in self._files(root)]
        stored = [entries_blob(data) for data in files]
        self._clear(derived)
        sizes = self._decoding(monkeypatch)
        checked = []
        crc32 = dataset.zlib.crc32

        def checking(data):
            checked.append(len(data))
            return crc32(data)

        monkeypatch.setattr(dataset.zlib, "crc32", checking)
        encoded = []
        encode = json.JSONEncoder.encode

        def encoding(encoder, value):
            encoded.append(value)
            return encode(encoder, value)

        monkeypatch.setattr(json.JSONEncoder, "encode", encoding)
        assert self._run(root) == 4
        assert derived["kernels"] == {}
        # the entries and labels blob of each file is checked and
        # decoded; no column's blob is either, not even for a document's
        # groups
        assert sorted(checked) == sorted(map(len, stored))
        assert sorted(sizes) == sorted(map(len, files + stored))
        # one shell per document, with its results empty; no entry
        documents = sorted((root / "results" / "probe").glob("*.json"))
        assert len(encoded) == len(documents)
        assert [value["results"] for value in encoded] == [[]] * len(documents)

    def test_flipped_bit_in_the_entries_blob_drops_the_entries_and_keeps_the_columns(
        self, tmp_path, derived, capsys, parses
    ):
        root = self._root(tmp_path)
        made = self._fresh_run(root, derived)
        first = self._texts(root)
        for path in self._files(root):
            data = bytearray(path.read_bytes())
            blob = entries_blob(bytes(data))
            # a bit of the last entry's text
            data[data.index(blob) + blob.rindex(b"}")] ^= 1
            path.write_bytes(bytes(data))
        parses.clear()
        assert self._run(root) == 4
        assert parses == []
        assert derived["kernels"] == made
        assert self._texts(root) == first
        self._clear(derived)
        assert self._run(root) == 4
        assert derived["kernels"] == {}

    def test_validate_decodes_no_column(self, tmp_path, capsys, monkeypatch):
        root = self._root(tmp_path)
        loaded = []
        get = DatasetCache.get

        def keeping(cache, name, sha256, path):
            loaded.append(get(cache, name, sha256, path))
            return loaded[-1]

        monkeypatch.setattr(DatasetCache, "get", keeping)
        sizes = self._decoding(monkeypatch)
        assert main(["--root", str(root), "validate", str(root / "probe.json")]) == 0
        # one decode of each column file, of the file as a whole and of
        # its entries blob
        assert sorted(sizes) == sorted(
            size
            for path in self._files(root)
            for size in (path.stat().st_size, len(entries_blob(path.read_bytes())))
        )
        blobs = [
            blob
            for path in self._files(root)
            for blob in column_blobs(path.read_bytes()).values()
        ]
        sizes.clear()
        # each column still decodes its own blob when its cells are read
        for ds in loaded:
            for col in ds.columns:
                col.cells
        assert sorted(sizes) == sorted(map(len, blobs))

    def test_new_entries_write_back_each_stored_blob_byte_for_byte(
        self, tmp_path, derived, capsys, monkeypatch
    ):
        root = self._root(tmp_path)
        sha = sha256_file(root / "store" / f"{XYZ}.csv")
        path = root / "warehouse" / "columns" / f"{sha}.marshal"
        before = path.read_bytes()
        dumped = []
        dumps = dataset.marshal.dumps

        def recording(value):
            dumped.append(value)
            return dumps(value)

        monkeypatch.setattr(dataset.marshal, "dumps", recording)
        self._clear(derived)
        # the probe adds the contingency table's entry to xyz's file
        assert self._run(root) == 4
        assert derived["kernels"] == {"contingency": 1}
        after = path.read_bytes()
        assert len(read_column_file(after)[4]) == len(read_column_file(before)[4]) + 1
        assert column_blobs(after) == column_blobs(before)
        # one encode of the entries and labels, then one of the file's
        # outer object: no cell is encoded again
        assert dumped[0] == dataset.marshal.loads(entries_blob(after))
        assert [value[0] for value in dumped[1:]] == [dataset._COLUMNS_TAG]

    def test_unwritable_columns_still_run_ok(self, tmp_path, derived, capsys):
        root = self._root(tmp_path)
        columns = root / "warehouse" / "columns"
        shutil.rmtree(columns)
        columns.write_bytes(b"")  # a file: no column file can be read or written
        self._clear(derived)
        for _ in range(2):
            assert self._run(root, "payloads/a.json") == 0
        n = len(XYZ_DEPENDENTS)
        assert derived["kernels"] == {
            "welch_ttest": 2 * n, "welch_power": 2 * n, "mann_whitney_u": 2 * n
        }
        assert columns.read_bytes() == b""

    def test_update_removes_the_superseded_file_with_its_entries(self, tmp_path, capsys):
        root = self._root(tmp_path)
        assert self._run(root) == 4
        store = root / "store" / f"{XYZ}.csv"
        old = root / "warehouse" / "columns" / f"{sha256_file(store)}.marshal"
        assert read_column_file(old.read_bytes())[4]
        text = store.read_text(encoding="utf-8")
        store.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
        assert run_cycle(root).selected_payloads == ["a.json"]
        named = {f"{e['sha256']}.marshal" for e in Warehouse(root).manifest().values()}
        assert not old.exists()
        assert {path.name for path in self._files(root)} == named


# Independents of each kind a document's groups can come from: a
# boolean, a categorical of two levels, and one of three, which cannot
# be split.
LEVELS_CSV = "used,arm,site,score\n" + "".join(
    f"{'true' if i % 2 else 'false'},{'ab'[i % 3 == 0]},{'xyz'[i % 3]},{i}.5\n"
    for i in range(12)
)


class TestGroupOrdering:
    """A document's ``groups`` come from the independent's levels; the
    row masks are built only for a split."""

    def test_stored_entries_build_no_mask_and_give_the_same_bytes(
        self, tmp_path, derived, capsys, monkeypatch
    ):
        root = tmp_path / "root"
        (root / "store").mkdir(parents=True)
        (root / "payloads").mkdir()
        (root / "store" / "d.csv").write_text(LEVELS_CSV, encoding="utf-8")
        requests = [
            request
            for independent in ("used", "arm", "site")
            for request in _requests("d", independent, ["score"], ("get_welch_ttest",))
        ]
        (root / "probe.json").write_text(json.dumps(_payload("probe", requests)))
        run_cycle(root)
        built = []
        masks = runner.GroupIndex.masks

        def spying(index):
            built.append(index.labels)
            return masks.func(index)

        monkeypatch.setattr(runner.GroupIndex, "masks", property(spying))
        assert TestStoredEntries._run(root) == 4
        assert built == [("false", "true"), ("a", "b")]
        assert [split[1] for split in derived["splits"]] == ["used", "arm", "site"]
        first = TestStoredEntries._texts(root)
        built.clear()
        derived["splits"].clear()
        assert TestStoredEntries._run(root) == 4
        assert built == [] and derived["splits"] == []
        assert TestStoredEntries._texts(root) == first
        assert [
            json.loads((root / "results" / "probe" / f"probe_{i}.json").read_text())["groups"]
            for i in range(3)
        ] == [{"false": "group1", "true": "group2"}, {"a": "group1", "b": "group2"}, None]


class TestWriteResult:
    def _doc(self, result_file="sami_fall24_ttest"):
        return ResultDocument(
            domain="sami",
            statistic="get_welch_ttest",
            dataset={"name": "sami_fall24_usage", "sha256": "0" * 64},
            independent="used_sami",
            alternative="less",
            alpha=0.05,
            groups={"false": "group1", "true": "group2"},
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
        stored = strict_loads(
            (tmp_path / "sami" / "sami_fall24_ttest.json").read_text(encoding="utf-8")
        )
        assert stored["run_id"] == "other"
        assert list((tmp_path / "sami").iterdir()) == [
            tmp_path / "sami" / "sami_fall24_ttest.json"
        ]

    def test_document_shape(self, tmp_path):
        out = OutputSpec(bucket="sami", prefix="")
        write_result(self._doc(), out, tmp_path)
        stored = strict_loads(
            (tmp_path / "sami" / "sami_fall24_ttest.json").read_text(encoding="utf-8")
        )
        assert stored["schema_version"] == 1
        assert stored["dataset"] == {"name": "sami_fall24_usage", "sha256": "0" * 64}
        assert stored["groups"] == {"false": "group1", "true": "group2"}

    def test_strict_reader_rejects_a_non_finite_number(self, tmp_path):
        # write_result keeps json.dumps' default, so a non-finite value
        # reaching a document is written; the tests' reader catches it
        doc = self._doc()
        doc.results = [{"dependent": "x", "t": float("inf")}]
        write_result(doc, OutputSpec(bucket="sami", prefix=""), tmp_path)
        text = (tmp_path / "sami" / "sami_fall24_ttest.json").read_text(encoding="utf-8")
        assert '"t": Infinity' in text
        with pytest.raises(ValueError, match="Infinity is not a JSON number"):
            strict_loads(text)


# JSON values as entries hold them, and more: NaN, infinities and signed
# zeros, non-ASCII and control characters, nesting and empty containers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)
ENTRIES = st.lists(st.dictionaries(st.text(max_size=10), JSON_VALUES, max_size=5), max_size=5)
LABELS = st.none() | st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=2)


def _document(results, groups=None, text="x"):
    return ResultDocument(
        domain=text,
        statistic="get_welch_ttest",
        dataset={"name": text, "sha256": "0" * 64},
        independent=text,
        alternative="two_sided",
        alpha=0.05,
        groups=groups,
        results=results,
        result_file=text,
        run_id=text,
        generated_at=text,
    )


class TestDocumentText:
    """A document is written as one encoded shell with each entry's text
    spliced in, byte for byte what ``json.dumps(indent=2)`` writes."""

    @given(results=ENTRIES, keep=st.lists(st.booleans()), groups=LABELS, text=st.text())
    @example(
        results=[
            {"t": float("nan"), "p": float("inf"), "d": float("-inf"), "z": -0.0},
            {"dependent": "\u00e9\u4e2d\U0001f600", "message": "a\nb\t\x00\x1f\"\\"},
            {"nested": {"a": [1, {"b": [[], {}]}], "c": {}}, "list": [[[]]]},
            {},
        ],
        keep=[True, False, True, False],
        groups={"results": "group1", "\n": "group2"},
        text='"results": []',
    )
    @example(results=[], keep=[], groups=None, text="")
    @settings(max_examples=300, deadline=None)
    def test_spliced_bytes_equal_json_dumps(self, results, keep, groups, text):
        doc = _document(results, groups, text)
        # some entries have their text stored beside them, the rest not
        doc.encoded = [(e, entry_text(e)) for e, stored in zip(results, keep) if stored]
        expected = json.dumps(doc.to_dict(), indent=2) + "\n"
        assert document_text(doc).encode("utf-8") == expected.encode("utf-8")

    def test_stored_text_is_written_in_place_of_the_entry(self, tmp_path):
        entry = {"dependent": "x"}
        doc = _document([entry])
        doc.encoded = [(entry, "    STORED")]
        assert "\n    STORED\n" in document_text(doc)
        # an equal entry that is not the one stored is encoded
        doc.results = [dict(entry)]
        assert document_text(doc) == json.dumps(doc.to_dict(), indent=2) + "\n"

    def test_write_result_writes_the_document_text(self, tmp_path):
        doc = _document([{"dependent": "x", "t": -0.0}, {"dependent": "y", "error": {}}])
        write_result(doc, OutputSpec(bucket="b", prefix=""), tmp_path)
        assert (tmp_path / "b" / "x.json").read_bytes() == (
            json.dumps(doc.to_dict(), indent=2) + "\n"
        ).encode("utf-8")


class TestDocumentKeys:
    """Each result class's fields are its document keys, in the order
    docs/result_schema.json lists them."""

    @pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
    def test_result_fields(self, cls):
        properties = RESULT_SCHEMA["$defs"][cls.kind]["properties"]
        assert ["kind", *(f.name for f in fields(cls))] == list(properties)

    def test_every_result_kind_has_a_class(self):
        refs = RESULT_SCHEMA["properties"]["results"]["items"]["oneOf"]
        kinds = [ref["$ref"].rsplit("/", 1)[1] for ref in refs]
        assert [cls.kind for cls in RESULT_TYPES] + ["dependent_error"] == kinds

    def test_group_summary_fields(self):
        properties = RESULT_SCHEMA["$defs"]["group_summary"]["properties"]
        assert [f.name for f in fields(GroupSummary)] == list(properties)
        assert not hasattr(GroupSummary, "kind")

    def test_result_document_fields(self):
        assert [f.name for f in fields(ResultDocument)] == list(
            RESULT_SCHEMA["properties"]
        )

    def test_written_documents_follow_the_schema_order(self, synced_root):
        for path in sorted((synced_root / "results").rglob("*.json")):
            doc = strict_loads(path.read_text(encoding="utf-8"))
            assert list(doc) == list(RESULT_SCHEMA["properties"])
            for entry in doc["results"]:
                assert "error" not in entry
                properties = RESULT_SCHEMA["$defs"][entry["kind"]]["properties"]
                assert list(entry) == list(properties)
