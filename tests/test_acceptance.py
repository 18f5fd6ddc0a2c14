"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one pass line (visible with ``pytest -v -s``). Oracles are
independent of the implementation throughout: scipy's special-function
stack (a separate algorithm family), Monte Carlo simulation, and brute
enumeration.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import oracles
from conftest import DOMAIN_FILES, add_domain, build_root
from schema_check import check_result_document, strict_loads

SUITE_START = time.monotonic()


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def _sync(root):
    proc = subprocess.run(
        [sys.executable, "-m", "a4l_analytics", "--root", str(root), "--json", "sync"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 4), proc.stderr
    return strict_loads(proc.stdout), proc.returncode


class TestCriterion1SpecialFunctionAccuracy:
    def test_student_t_cdf_grid(self):
        from a4l_analytics.stats import student_t_cdf

        start = time.monotonic()
        dfs = [1, 2, 5, 10, 38, 100, 1000]
        xs = [-5.0, -1.41, 0.0, 1.41, 1.87, 5.0]

        # cross-validate the high-precision oracle itself against a
        # >= 1e7-sample Monte Carlo before trusting it to 1e-8
        for df in dfs:
            empirical = oracles.student_t_cdf_mc(df, xs, n_draws=10_000_000, seed=df)
            for x, emp in zip(xs, empirical):
                ref = oracles.scipy_t_cdf(x, df)
                stderr = math.sqrt(max(ref * (1 - ref), 1e-12) / 10_000_000)
                assert abs(ref - emp) <= 5 * stderr + 1e-4

        worst = 0.0
        for df in dfs:
            for x in xs:
                err = abs(student_t_cdf(x, df) - oracles.scipy_t_cdf(x, df))
                worst = max(worst, err)
        assert worst <= 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        _report(
            1,
            f"student_t_cdf worst |err| {worst:.2e} <= 1e-8 on 42-point grid, "
            f"MC-validated oracle, {elapsed:.1f}s",
        )

    def test_noncentral_t_cdf_grid(self):
        from a4l_analytics.stats import noncentral_t_cdf

        start = time.monotonic()
        worst = 0.0
        for df in (10.0, 38.0, 120.0):
            for nc in (0.0, 1.0, 2.53):
                xs = [0.0, 2.02, 3.0]
                empirical = oracles.noncentral_t_cdf_mc(
                    df, nc, xs, n_draws=2_000_000, seed=int(df * 100 + nc * 10)
                )
                for x, emp in zip(xs, empirical):
                    ref = oracles.scipy_nct_cdf(x, df, nc)
                    stderr = math.sqrt(max(ref * (1 - ref), 1e-12) / 2_000_000)
                    assert abs(ref - emp) <= 5 * stderr + 1e-4
                    worst = max(worst, abs(noncentral_t_cdf(x, df, nc) - ref))
        assert worst <= 1e-6
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        _report(
            1,
            f"noncentral_t_cdf worst |err| {worst:.2e} <= 1e-6 on 27-point grid, "
            f"MC-validated oracle, {elapsed:.1f}s",
        )


class TestCriterion2WelchOracleEquivalence:
    def test_formulas_on_1000_random_samples(self):
        from a4l_analytics.stats import descriptives, welch_ttest

        rng = random.Random(2024)
        worst_t = worst_df = 0.0
        for _ in range(1000):
            n1 = rng.randint(2, 50)
            n2 = rng.randint(2, 50)
            g1 = [rng.gauss(0.0, 1.0 + rng.random()) for _ in range(n1)]
            g2 = [rng.gauss(rng.uniform(-1, 1), 1.0 + rng.random()) for _ in range(n2)]
            t_ref, df_ref = oracles.welch_stats_direct(g1, g2)
            result = welch_ttest(descriptives(g1), descriptives(g2))
            worst_t = max(worst_t, abs(result.t - t_ref))
            worst_df = max(worst_df, abs(result.df - df_ref))
        assert worst_t <= 1e-10
        assert worst_df <= 1e-10
        _report(
            2,
            f"t/df match direct formula re-evaluation on 1000 samples "
            f"(worst {worst_t:.1e} / {worst_df:.1e} <= 1e-10)",
        )

    def test_kernel_invariants(self):
        from a4l_analytics.stats import (
            contingency,
            descriptives,
            mann_whitney_u,
            noncentral_t_cdf,
            student_t_cdf,
            welch_power,
            welch_ttest,
        )
        from a4l_analytics.stats.summaries import GroupSummary

        rng = random.Random(7)
        checks = 0

        # group-swap antisymmetry and p-value coherence
        for _ in range(200):
            g1 = descriptives([rng.gauss(0, 1) for _ in range(rng.randint(2, 30))])
            g2 = descriptives([rng.gauss(0.4, 2) for _ in range(rng.randint(2, 30))])
            a = welch_ttest(g1, g2)
            b = welch_ttest(g2, g1)
            assert abs(b.t + a.t) <= 1e-10 * (1 + abs(a.t))
            assert abs(b.df - a.df) <= 1e-10 * a.df
            assert abs(b.p_value - a.p_value) <= 1e-12
            less = welch_ttest(g1, g2, alternative="less").p_value
            greater = welch_ttest(g1, g2, alternative="greater").p_value
            swapped_greater = welch_ttest(g2, g1, alternative="greater").p_value
            assert abs(less - swapped_greater) <= 1e-12
            assert abs(a.p_value - 2.0 * min(less, greater)) <= 1e-12
            checks += 1

        # affine invariance
        for _ in range(200):
            g1 = [rng.gauss(0, 1) for _ in range(rng.randint(2, 20))]
            g2 = [rng.gauss(1, 1.5) for _ in range(rng.randint(2, 20))]
            c = rng.uniform(0.1, 50.0)
            k = rng.uniform(-100.0, 100.0)
            base = welch_ttest(descriptives(g1), descriptives(g2))
            moved = welch_ttest(
                descriptives([c * v + k for v in g1]),
                descriptives([c * v + k for v in g2]),
            )
            assert abs(moved.t - base.t) <= 1e-10 * (1 + abs(base.t))
            assert abs(moved.p_value - base.p_value) <= 1e-10
            checks += 1

        # power calibration at zero effect, monotone in |nc| and n
        for alpha in (0.01, 0.05, 0.2):
            for alternative in ("two_sided", "less", "greater"):
                g1 = GroupSummary("a", 14, 2.0, 1.1)
                g2 = GroupSummary("b", 19, 2.0, 0.7)
                result = welch_power(g1, g2, alpha=alpha, alternative=alternative)
                assert abs(result.power - alpha) <= 1e-9
                checks += 1
        last = 0.0
        for d in (0.0, 0.25, 0.5, 1.0, 2.0):
            power = welch_power(
                GroupSummary("a", 20, d, 1.0),
                GroupSummary("b", 20, 0.0, 1.0),
                alternative="greater",
            ).power
            assert power >= last - 1e-12
            last = power
            checks += 1
        last = 0.0
        for n in (4, 8, 16, 32, 64):
            power = welch_power(
                GroupSummary("a", n, 0.5, 1.0),
                GroupSummary("b", n, 0.0, 1.0),
                alternative="greater",
            ).power
            assert power >= last - 1e-12
            last = power
            checks += 1

        # noncentral consistency at nc = 0
        for df in (1.0, 7.0, 38.0, 240.0, 1e4):
            for x in (-4.0, -0.5, 0.0, 1.3, 5.0):
                assert abs(noncentral_t_cdf(x, df, 0.0) - student_t_cdf(x, df)) <= 1e-10
                checks += 1

        # Mann-Whitney exactness (spot grid; criterion 4 is exhaustive)
        for _ in range(50):
            n1 = rng.randint(1, 5)
            n2 = rng.randint(1, 10 - n1)
            pool = rng.sample(range(500), n1 + n2)
            g1 = [float(v) for v in pool[:n1]]
            g2 = [float(v) for v in pool[n1:]]
            alt = rng.choice(["less", "greater", "two_sided"])
            result = mann_whitney_u(g1, g2, alternative=alt)
            assert result.p_value == oracles.mwu_enumerated_p(g1, g2, alt)
            checks += 1

        # U complement, including ties
        for _ in range(100):
            g1 = [float(rng.randint(0, 6)) for _ in range(rng.randint(1, 25))]
            g2 = [float(rng.randint(0, 6)) for _ in range(rng.randint(1, 25))]
            if len(set(g1 + g2)) < 2:
                continue
            result = mann_whitney_u(g1, g2)
            assert result.u1 + result.u2 == len(g1) * len(g2)
            checks += 1

        # contingency conservation
        for _ in range(50):
            n = rng.randint(5, 60)
            rows = [rng.choice(["a", "b", None]) for _ in range(n)]
            cols = [rng.choice(["x", "y", "z", None]) for _ in range(n)]
            if not any(r and c for r, c in zip(rows, cols)):
                continue
            table = contingency("r", "categorical", rows, "c", "categorical", cols)
            both = sum(1 for r, c in zip(rows, cols) if r is not None and c is not None)
            assert table.grand_total == both
            assert sum(table.row_totals) == both
            assert sum(table.col_totals) == both
            checks += 1

        _report(2, f"all kernel invariants hold ({checks} property checks)")


class TestCriterion3PaperPValueConsistency:
    def test_p_from_t_at_df_120(self):
        from a4l_analytics.stats import student_t_cdf

        p_141 = 1.0 - student_t_cdf(1.41, 120.0)
        p_187 = 1.0 - student_t_cdf(1.87, 120.0)
        assert abs(p_141 - 0.080) <= 0.002
        assert abs(p_187 - 0.032) <= 0.002
        _report(
            3,
            f"one-sided p from t at df=120: p(1.41)={p_141:.4f} (0.080 +/- 0.002), "
            f"p(1.87)={p_187:.4f} (0.032 +/- 0.002)",
        )

    def test_power_substituted_checks(self):
        from a4l_analytics.stats import welch_power
        from a4l_analytics.stats.summaries import GroupSummary

        for alternative in ("two_sided", "less", "greater"):
            result = welch_power(
                GroupSummary("a", 20, 1.0, 1.0),
                GroupSummary("b", 20, 1.0, 1.0),
                alpha=0.05,
                alternative=alternative,
            )
            assert abs(result.power - 0.05) <= 1e-9

        mc_two = oracles.welch_power_mc(20, 20, 0.8, 0.05, "two_sided", 200_000, seed=41)
        mine_two = welch_power(
            GroupSummary("a", 20, 0.8, 1.0),
            GroupSummary("b", 20, 0.0, 1.0),
            alpha=0.05,
            alternative="two_sided",
        ).power
        assert abs(mine_two - mc_two) <= 0.01
        assert abs(mine_two - 0.693) <= 0.01

        mc_gt = oracles.welch_power_mc(50, 50, 0.5, 0.05, "greater", 200_000, seed=42)
        mine_gt = welch_power(
            GroupSummary("a", 50, 0.5, 1.0),
            GroupSummary("b", 50, 0.0, 1.0),
            alpha=0.05,
            alternative="greater",
        ).power
        assert abs(mine_gt - mc_gt) <= 0.01
        assert abs(mine_gt - 0.80) <= 0.01
        _report(
            3,
            f"power(d=0)=alpha +/- 1e-9; MC agreement: {mine_two:.3f} vs {mc_two:.3f} "
            f"(~0.693) and {mine_gt:.3f} vs {mc_gt:.3f} (~0.80)",
        )


class TestCriterion4MannWhitneyExactness:
    def test_exact_equals_enumeration_everywhere(self):
        from a4l_analytics.stats import mann_whitney_u

        start = time.monotonic()
        rng = random.Random(4)
        alternatives = ("less", "greater", "two_sided")
        cases = 0
        for total in range(2, 11):
            for n1 in range(1, total):
                n2 = total - n1
                for i in range(200):
                    pool = rng.sample(range(10_000), total)
                    g1 = [float(v) for v in pool[:n1]]
                    g2 = [float(v) for v in pool[n1:]]
                    alt = alternatives[i % 3]
                    result = mann_whitney_u(g1, g2, alternative=alt)
                    assert result.method == "exact"
                    expected = oracles.mwu_enumerated_p(g1, g2, alt)
                    assert result.p_value == expected, (g1, g2, alt)
                    cases += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        _report(
            4,
            f"exact p identical to full enumeration on {cases} tie-free samples "
            f"covering all n1+n2 <= 10 ({elapsed:.0f}s)",
        )

    def test_normal_branch_against_permutation_oracle(self):
        from a4l_analytics.stats import mann_whitney_u

        start = time.monotonic()
        rng = random.Random(44)
        alternatives = ("less", "greater", "two_sided")
        worst = 0.0
        # sizes chosen for the regime the normal branch is meant for;
        # below n ~ 30 the lattice effects of heavy ties exceed 1%
        for i in range(20):
            n1 = rng.randint(35, 70)
            n2 = rng.randint(35, 70)
            support = rng.randint(4, 10)
            shift = rng.choice([0, 0, 1])
            g1 = [float(rng.randint(0, support)) for _ in range(n1)]
            g2 = [float(rng.randint(shift, support + shift)) for _ in range(n2)]
            alt = alternatives[i % 3]
            result = mann_whitney_u(g1, g2, alternative=alt)
            assert result.method == "normal_approx"
            assert result.tie_correction_applied
            ref = oracles.mwu_exact_tied_p(g1, g2, alt)
            worst = max(worst, abs(result.p_value - ref))
        assert worst <= 0.01
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        _report(
            4,
            f"tie-corrected normal branch within {worst:.4f} <= 0.01 of the exact "
            f"conditional oracle on 20 tied fixtures ({elapsed:.0f}s)",
        )


def _valid_payload_sampler(rng, catalog):
    """Random payload valid against the fixture warehouse."""
    domain_datasets = {
        "jw": "jw_fall23_usage",
        "vera": "vera_summer23_usage",
        "sami": "sami_fall24_usage",
    }
    domain = rng.choice(sorted(domain_datasets))
    dataset = domain_datasets[domain]
    columns = catalog[dataset]
    numeric = sorted(c for c, k in columns.items() if k == "numeric")
    grouping = sorted(c for c, k in columns.items() if k in ("boolean", "categorical"))
    boolean = sorted(c for c, k in columns.items() if k == "boolean")

    analyses = []
    for i in range(rng.randint(1, 3)):
        statistic = rng.choice(
            [
                "get_welch_ttest",
                "get_welch_power",
                "get_mann_whitney_u",
                "get_contingency_table",
                "get_descriptives",
            ]
        )
        if statistic == "get_contingency_table":
            independent = rng.choice(grouping)
            dependents = rng.sample(
                [c for c in grouping if c != independent],
                rng.randint(1, min(2, len(grouping) - 1)),
            )
        else:
            # two-level grouping column required at execution time:
            # fixture booleans always qualify
            independent = rng.choice(boolean)
            dependents = rng.sample(numeric, rng.randint(1, min(3, len(numeric))))
        analyses.append(
            {
                "statistic": statistic,
                "dataset": dataset,
                "independent": independent,
                "dependent": dependents,
                "alternative": rng.choice(["two_sided", "less", "greater"]),
                "alpha": rng.choice([0.01, 0.05, 0.1]),
                "result_file": f"fuzz_{domain}_{rng.randrange(10**9)}_{i}",
            }
        )
    return {
        "payload_version": 1,
        "domain": domain,
        "analyses": analyses,
        "output": {"bucket": domain, "prefix": rng.choice(["", "fuzz"])},
    }


MUTATIONS = ("unknown_statistic", "unknown_dataset", "unknown_column", "empty_dependent", "bad_alpha")


def _mutate(doc, mutation, rng):
    doc = json.loads(json.dumps(doc))
    req = rng.choice(doc["analyses"])
    if mutation == "unknown_statistic":
        req["statistic"] = "get_" + "".join(rng.choices("abcdefgh", k=8))
    elif mutation == "unknown_dataset":
        req["dataset"] = req["dataset"] + "_nowhere"
    elif mutation == "unknown_column":
        if rng.random() < 0.5:
            req["independent"] = "ghost_" + req["independent"]
        else:
            req["dependent"] = req["dependent"][:-1] + ["ghost_column"]
    elif mutation == "empty_dependent":
        req["dependent"] = []
    elif mutation == "bad_alpha":
        req["alpha"] = rng.choice([0.0, 1.0, -0.5, 3.7])
    return doc


@pytest.fixture(scope="module")
def coherence_root(tmp_path_factory):
    from a4l_analytics.dataset import DatasetCache, Warehouse
    from a4l_analytics.orchestrator import run_cycle

    root = build_root(tmp_path_factory.mktemp("coherence"))
    run_cycle(root)
    warehouse = Warehouse(root)
    return root, warehouse.column_catalog(DatasetCache(), warehouse.manifest())


class TestCriterion5StructuralCoherence:
    def test_1000_corruptions_all_rejected(self, coherence_root):
        from a4l_analytics.errors import PayloadError
        from a4l_analytics.payload import parse_payload, validate_payload

        root, catalog = coherence_root
        rng = random.Random(5)
        rejected = 0
        for i in range(1000):
            doc = _valid_payload_sampler(rng, catalog)
            parsed = parse_payload(json.dumps(doc))
            assert validate_payload(parsed, catalog=catalog).ok
            mutated = _mutate(doc, MUTATIONS[i % len(MUTATIONS)], rng)
            try:
                payload = parse_payload(json.dumps(mutated))
            except PayloadError as exc:
                assert exc.diagnostics
                rejected += 1
                continue
            report = validate_payload(payload, catalog=catalog)
            assert not report.ok, mutated
            assert report.diagnostics
            rejected += 1
        assert rejected == 1000
        _report(5, "1000/1000 single-mutation corruptions rejected with diagnostics")

    def test_100_valid_payloads_execute_end_to_end(self, coherence_root):
        from a4l_analytics.dataset import DatasetCache, Warehouse, fetch_to_staging
        from a4l_analytics.payload import parse_payload, validate_payload
        from a4l_analytics.runner import execute_payload, write_result

        root, catalog = coherence_root
        warehouse = Warehouse(root)
        rng = random.Random(6)
        executed = 0
        for _ in range(100):
            doc = _valid_payload_sampler(rng, catalog)
            payload = parse_payload(json.dumps(doc))
            report = validate_payload(payload, catalog=catalog)
            assert report.ok, report.render()
            staged = fetch_to_staging(sorted(payload.datasets()), warehouse, warehouse.manifest())
            docs = execute_payload(payload, staged, DatasetCache())
            assert len(docs) == len(payload.analyses)
            for result_doc in docs:
                write_result(result_doc, payload.output, root / "results")
            executed += 1
        assert executed == 100
        _report(5, "100/100 sampled valid payloads executed end-to-end, no internal errors")


EXPECTED_KEYS = [
    "results/jw/jw_fall23_ttest.json",
    "results/vera/vera_summer23_ttest.json",
    "results/sami/sami_fall24_ttest.json",
    "results/vera/vera_summer23_ttest_power.json",
    "results/sami/sami_fall24_ttest_power.json",
]


class TestCriterion6CrossDomainReplication:
    def test_three_domains_one_binary(self, tmp_path):
        root = build_root(tmp_path / "root")
        report, code = _sync(root)
        assert code == 0

        for key in EXPECTED_KEYS:
            path = root / key
            assert path.is_file(), f"missing {key}"
            check_result_document(strict_loads(path.read_text(encoding="utf-8")))

        # reconstruct the statistic-by-domain coverage matrix from the
        # result files alone
        coverage = {}
        for path in sorted((root / "results").rglob("*.json")):
            doc = strict_loads(path.read_text(encoding="utf-8"))
            check_result_document(doc)
            coverage.setdefault(doc["statistic"], set()).add(doc["domain"])

        assert coverage["get_welch_ttest"] == {"jw", "vera", "sami"}
        assert coverage["get_contingency_table"] == {"jw", "vera", "sami"}
        # the power extension: originally VERA-only, extended to SAMI,
        # never JW
        assert coverage["get_welch_power"] == {"vera", "sami"}
        _report(
            6,
            "5 result keys present and schema-valid; coverage matrix from result "
            "files: welch+contingency in jw/vera/sami, power in vera+sami only",
        )


def _package_checksum():
    import a4l_analytics

    pkg_dir = Path(a4l_analytics.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_dir.rglob("*")):
        if path.suffix in (".py", ".pyx", ".so") and path.is_file():
            digest.update(str(path.relative_to(pkg_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestCriterion7NewDomainZeroCode:
    def test_xyz_onboarded_with_payload_only(self, tmp_path):
        root = build_root(tmp_path / "root")
        _sync(root)

        checksum_before = _package_checksum()
        add_domain(root, "xyz")  # one CSV + one payload file, nothing else
        report, code = _sync(root)
        assert code == 0

        assert [u["dataset"] for u in report["updated"]] == ["xyz_spring25_usage"]
        assert report["selected_payloads"] == ["xyz_spring25.json"]
        for name in (
            "xyz_spring25_ttest",
            "xyz_spring25_descriptives",
            "xyz_spring25_mwu",
        ):
            path = root / "results" / "xyz" / f"{name}.json"
            assert path.is_file()
            check_result_document(strict_loads(path.read_text(encoding="utf-8")))

        checksum_after = _package_checksum()
        assert checksum_before == checksum_after
        _report(
            7,
            "xyz domain onboarded with one CSV + one payload; binary checksum "
            f"unchanged ({checksum_before[:12]})",
        )


class TestCriterion8OrchestratorSemantics:
    def test_end_to_end_change_detection(self, tmp_path):
        from a4l_analytics.dataset import sha256_file

        root = build_root(tmp_path / "root")
        _sync(root)
        manifest_before = json.loads(
            (root / "warehouse" / "manifest.json").read_text(encoding="utf-8")
        )
        old_sha = manifest_before["sami_fall24_usage"]["sha256"]

        store_file = root / "store" / "sami_fall24_usage.csv"
        store_file.write_text(
            store_file.read_text(encoding="utf-8") + "true,4.5,3.9,4.2,3.8,<25,female\n",
            encoding="utf-8",
        )
        report, code = _sync(root)
        assert code == 0
        assert [u["dataset"] for u in report["updated"]] == ["sami_fall24_usage"]
        # exactly the payloads referencing the dataset were re-run
        assert report["selected_payloads"] == ["sami_fall24.json"]
        assert [o["payload_file"] for o in report["run_outcomes"]] == ["sami_fall24.json"]

        archived_to = report["updated"][0]["archived_to"]
        assert archived_to is not None
        assert sha256_file(root / archived_to) == old_sha

        second, code = _sync(root)
        assert code == 0
        assert second["updated"] == []
        assert second["selected_payloads"] == []
        assert second["run_outcomes"] == []

        elapsed = time.monotonic() - SUITE_START
        assert elapsed < 300.0, f"acceptance suite took {elapsed:.0f}s, budget 300s"
        _report(
            8,
            "one modified CSV: exactly its payload re-ran, archive hash matches "
            f"prior version, second sync is a no-op; suite at {elapsed:.0f}s < 300s",
        )
