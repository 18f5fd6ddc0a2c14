"""Tests of the benchmark's own parts: generator, oracle and tracer.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import generator  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from a4l_analytics import orchestrator  # noqa: E402

SHAPE = generator.Shape(
    datasets=2,
    rows=60,
    numeric=3,
    categorical=1,
    payloads=3,
    requests=5,
    dependents=2,
    statistics=generator.ALL_STATISTICS,
    missing_rate=0.05,
    rounding=1,
    requests_span_datasets=True,
)
SEED = 7


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _normalized_results(root: Path) -> dict:
    return {
        str(p.relative_to(root)): oracle.normalized(json.loads(p.read_text()))
        for p in sorted((root / "results").rglob("*.json"))
    }


def _expected():
    docs = [generator.payload_doc(SHAPE, p) for p in range(SHAPE.payloads)]
    return oracle.expected_documents(docs)


def _check(root: Path):
    columns = {
        generator.dataset_name(i): generator.dataset_columns(SEED, SHAPE, i)
        for i in range(SHAPE.datasets)
    }
    sha_of = {
        name: hashlib.sha256(generator.render_csv(cols)).hexdigest()
        for name, cols in columns.items()
    }
    return oracle.check_tree(root / "results", _expected(), columns, sha_of)


@pytest.fixture
def synced_root(tmp_path):
    root = tmp_path / "root"
    generator.write_root(root, SEED, SHAPE)
    report = orchestrator.run_cycle(root)
    assert report.all_ok()
    return root


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        a = generator.write_root(tmp_path / "a", SEED, SHAPE)
        b = generator.write_root(tmp_path / "b", SEED, SHAPE)
        assert a == b
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_other_seed_other_bytes(self, tmp_path):
        a = generator.write_root(tmp_path / "a", SEED, SHAPE)
        b = generator.write_root(tmp_path / "b", SEED + 1, SHAPE)
        assert set(a.values()).isdisjoint(b.values())

    def test_rendered_cells_parse_back_to_generated_values(self, tmp_path):
        from a4l_analytics.dataset import load_csv

        columns = generator.dataset_columns(SEED, SHAPE, 0)
        path = tmp_path / "ds00.csv"
        path.write_bytes(generator.render_csv(columns))
        ds = load_csv(path)
        for name, cells in columns.items():
            assert list(ds.column(name).cells) == cells


class TestOracle:
    def test_accepts_the_pipeline_results(self, synced_root):
        checked, problems = _check(synced_root)
        assert problems == []
        assert checked > len(_expected())

    def test_rejects_a_wrong_p_value(self, synced_root):
        path = synced_root / "results" / "p00" / "w0" / "r0_welch_ttest.json"
        doc = json.loads(path.read_text())
        doc["results"][0]["p_value"] += 1e-6
        path.write_text(json.dumps(doc))
        _, problems = _check(synced_root)
        assert len(problems) == 1
        assert "p_value" in problems[0]

    def test_rejects_a_missing_document(self, synced_root):
        (synced_root / "results" / "p01" / "w1" / "r1_mann_whitney_u.json").unlink()
        _, problems = _check(synced_root)
        assert problems == ["p01/w1/r1_mann_whitney_u.json: missing result document"]

    def test_ledger_rejects_a_changed_document(self, synced_root):
        ledger = oracle.ResultLedger()
        assert ledger.observe(synced_root / "results", _expected()) == []
        path = synced_root / "results" / "p02" / "w2" / "r2_contingency_table.json"
        doc = json.loads(path.read_text())
        doc["results"][0]["grand_total"] += 1
        path.write_text(json.dumps(doc))
        assert len(ledger.observe(synced_root / "results", _expected())) == 1

    def test_quadrature_fallback_matches_scipy(self):
        from scipy import stats as st

        for x, df, nc in ((1.96, 900.0, 2.0), (-1.0, 40.0, -0.5), (2.5, 300.0, 3.1)):
            want = float(st.nct.cdf(x, df, nc))
            assert oracle.nct_cdf_quadrature(x, df, nc) == pytest.approx(want, abs=1e-9)


class TestTracing:
    def test_wrappers_restore_the_original_functions(self):
        owners = tracing.TARGETS + tuple((o, a, n, None) for o, a, n in tracing.COUNTED)
        before = [vars(owner)[attr] for owner, attr, _, _ in owners]
        tracer = tracing.Tracer()
        with tracer.installed():
            during = [vars(owner)[attr] for owner, attr, _, _ in owners]
            assert all(d is not b for d, b in zip(during, before))
        after = [vars(owner)[attr] for owner, attr, _, _ in owners]
        assert all(a is b for a, b in zip(after, before))

    def test_restores_after_an_exception(self):
        before = vars(orchestrator)["run_cycle"]
        with pytest.raises(RuntimeError):
            with tracing.Tracer().installed():
                raise RuntimeError("boom")
        assert vars(orchestrator)["run_cycle"] is before

    def test_traced_and_untraced_runs_write_identical_results(self, tmp_path):
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        generator.write_root(plain, SEED, SHAPE)
        generator.write_root(traced, SEED, SHAPE)
        orchestrator.run_cycle(plain)
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.operation(0, "cycle"):
            orchestrator.run_cycle(traced)
        assert _normalized_results(plain) == _normalized_results(traced)
        figures = tracing.summarize(tracer, 0)
        assert figures["orchestrator.payloads_selected"] == SHAPE.payloads
        assert figures["stats.welch_power.calls"] > 0

    def test_self_times_add_up_to_the_root_span(self, tmp_path):
        root = tmp_path / "root"
        generator.write_root(root, SEED, SHAPE)
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.operation(0, "cycle"):
            orchestrator.run_cycle(root)
        top = [s for s in tracer.spans if s.parent == -1]
        assert [s.name for s in top] == ["orchestrator.run_cycle"]
        assert sum(tracer.self_times()) == top[0].end - top[0].start


class TestCompare:
    def _record(self, backend):
        return {
            "environment": {"kernel_backend": backend, "python": "3.11.7", "nproc": 2},
            "end_to_end": {"cycle_s": {"value": 1.0, "unit": "s"}},
        }

    def test_backend_mismatch_is_flagged(self, tmp_path, capsys):
        import compare

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(self._record("pure-python")))
        b.write_text(json.dumps(self._record("compiled")))
        assert compare.main([str(a), str(b)]) == 2
        assert "FLAG: kernel_backend differs" in capsys.readouterr().out
        assert compare.main([str(a), str(a)]) == 0
