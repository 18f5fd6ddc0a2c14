"""Property-based tests for the statistical kernel invariants."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from a4l_analytics.errors import DegenerateDataError
from a4l_analytics.payload import parse_payload, serialize_payload
from a4l_analytics.stats import (
    mann_whitney_u,
    noncentral_t_cdf,
    student_t_cdf,
    welch_power,
    welch_ttest,
)
from a4l_analytics.stats.summaries import GroupSummary, descriptives

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def sample(min_size=2, max_size=40):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


def _ttest_or_degenerate(g1, g2, alternative="two_sided"):
    # spreads below double precision legitimately degenerate; the
    # properties then assert the outcome is deterministic, not a crash
    try:
        return welch_ttest(descriptives(g1), descriptives(g2), alternative=alternative)
    except DegenerateDataError:
        return None


class TestWelchProperties:
    @given(g1=sample(), g2=sample())
    @settings(max_examples=200, deadline=None)
    def test_group_swap_antisymmetry(self, g1, g2):
        a = _ttest_or_degenerate(g1, g2)
        b = _ttest_or_degenerate(g2, g1)
        if a is None or b is None:
            assert a is None and b is None
            return
        assert b.t == pytest.approx(-a.t, abs=1e-10 * (1 + abs(a.t)))
        assert b.df == pytest.approx(a.df, rel=1e-12)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-12)
        s1, s2 = descriptives(g1), descriptives(g2)
        less = welch_ttest(s1, s2, alternative="less").p_value
        greater_swapped = welch_ttest(s2, s1, alternative="greater").p_value
        assert less == pytest.approx(greater_swapped, abs=1e-12)

    @staticmethod
    def _well_conditioned(values):
        # a spread far below the value magnitude is destroyed by float
        # rounding before the test statistic ever sees the data
        lo, hi = min(values), max(values)
        scale = max(1.0, abs(lo), abs(hi))
        return hi == lo or hi - lo >= 1e-5 * scale

    @given(
        g1=sample(max_size=20),
        g2=sample(max_size=20),
        c=st.floats(min_value=0.01, max_value=100.0),
        k=st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_invariance(self, g1, g2, c, k):
        base = _ttest_or_degenerate(g1, g2)
        if base is None:
            return
        m1 = [c * v + k for v in g1]
        m2 = [c * v + k for v in g2]
        for group in (g1, g2, m1, m2):
            if not self._well_conditioned(group):
                return
        moved = _ttest_or_degenerate(m1, m2)
        if moved is None:
            return
        assert moved.t == pytest.approx(base.t, abs=1e-10 * (1 + abs(base.t)))
        assert moved.df == pytest.approx(base.df, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, abs=1e-10)

    @given(g1=sample(), g2=sample())
    @settings(max_examples=200, deadline=None)
    def test_p_value_coherence(self, g1, g2):
        if _ttest_or_degenerate(g1, g2) is None:
            return
        s1, s2 = descriptives(g1), descriptives(g2)
        two = welch_ttest(s1, s2).p_value
        less = welch_ttest(s1, s2, alternative="less").p_value
        greater = welch_ttest(s1, s2, alternative="greater").p_value
        assert two == pytest.approx(2.0 * min(less, greater), abs=1e-12)


class TestPowerProperties:
    @pytest.mark.parametrize("alternative", ["two_sided", "less", "greater"])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("n", [5, 20, 80])
    def test_calibration_grid(self, alternative, alpha, n):
        g1 = GroupSummary("a", n, 1.0, 1.3)
        g2 = GroupSummary("b", n + 3, 1.0, 0.9)
        result = welch_power(g1, g2, alpha=alpha, alternative=alternative)
        assert result.power == pytest.approx(alpha, abs=1e-9)

    def test_monotone_in_effect(self):
        powers = []
        for d in (0.0, 0.2, 0.5, 0.8, 1.2):
            g1 = GroupSummary("a", 25, d, 1.0)
            g2 = GroupSummary("b", 25, 0.0, 1.0)
            powers.append(welch_power(g1, g2, alternative="greater").power)
        assert powers == sorted(powers)

    def test_monotone_in_sample_size(self):
        powers = []
        for n in (5, 10, 20, 40, 80):
            g1 = GroupSummary("a", n, 0.5, 1.0)
            g2 = GroupSummary("b", n, 0.0, 1.0)
            powers.append(welch_power(g1, g2, alternative="greater").power)
        assert powers == sorted(powers)


class TestNoncentralProperties:
    @pytest.mark.parametrize("df", [1.0, 7.0, 38.0, 240.0])
    @pytest.mark.parametrize("x", [-4.0, -0.5, 0.0, 1.3, 5.0])
    def test_zero_noncentrality_reduces_to_central(self, df, x):
        assert noncentral_t_cdf(x, df, 0.0) == pytest.approx(
            student_t_cdf(x, df), abs=1e-10
        )

    @given(
        x=st.floats(min_value=-10, max_value=10),
        df=st.floats(min_value=0.5, max_value=500),
        nc=st.floats(min_value=-8, max_value=8),
        shift=st.floats(min_value=0.1, max_value=4),
    )
    # tiny x drove the incomplete beta's power terms into log1p(-1)
    @example(x=1.7113239418184502e-101, df=30.0, nc=2.0, shift=4.0)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_noncentrality(self, x, df, nc, shift):
        assert noncentral_t_cdf(x, df, nc) >= noncentral_t_cdf(x, df, nc + shift) - 1e-12

    @given(
        x=st.floats(min_value=-30, max_value=30),
        df=st.floats(min_value=0.5, max_value=2000),
        nc=st.floats(min_value=-20, max_value=20),
    )
    # tiny x drove the incomplete beta's power terms into log1p(-1)
    @example(x=1e-16, df=30.0, nc=6.0)
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_reflective(self, x, df, nc):
        p = noncentral_t_cdf(x, df, nc)
        assert 0.0 <= p <= 1.0
        mirrored = 1.0 - noncentral_t_cdf(-x, df, -nc)
        assert p == pytest.approx(mirrored, abs=1e-11)


class TestMannWhitneyProperties:
    @given(
        pool=st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=2,
            max_size=10,
            unique=True,
        ),
        n1=st.integers(min_value=1, max_value=9),
        alt=st.sampled_from(["less", "greater", "two_sided"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_enumeration(self, pool, n1, alt):
        if n1 >= len(pool):
            return
        g1 = [float(v) for v in pool[:n1]]
        g2 = [float(v) for v in pool[n1:]]
        result = mann_whitney_u(g1, g2, alternative=alt)
        assert result.method == "exact"
        expected = oracles.mwu_enumerated_p(g1, g2, alt)
        assert result.p_value == pytest.approx(expected, abs=1e-12)

    @given(
        g1=st.lists(st.integers(0, 8).map(float), min_size=1, max_size=25),
        g2=st.lists(st.integers(0, 8).map(float), min_size=1, max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_u_complement_always(self, g1, g2):
        if len(set(g1 + g2)) < 2:
            return
        result = mann_whitney_u(g1, g2)
        assert result.u1 + result.u2 == len(g1) * len(g2)

    @given(
        g1=st.lists(st.integers(0, 30).map(float), min_size=13, max_size=25),
        g2=st.lists(st.integers(0, 30).map(float), min_size=13, max_size=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_normal_branch_coherence(self, g1, g2):
        if len(set(g1 + g2)) < 2:
            return
        two = mann_whitney_u(g1, g2).p_value
        less = mann_whitney_u(g1, g2, alternative="less").p_value
        greater = mann_whitney_u(g1, g2, alternative="greater").p_value
        assert two == pytest.approx(min(1.0, 2.0 * min(less, greater)), abs=1e-12)


class TestPayloadProperties:
    names = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)

    @given(
        domain=names,
        dataset=names,
        independent=names,
        dependents=st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        statistic=st.sampled_from(
            [
                "get_welch_ttest",
                "get_welch_power",
                "get_mann_whitney_u",
                "get_contingency_table",
                "get_descriptives",
            ]
        ),
        alternative=st.sampled_from(["two_sided", "less", "greater"]),
        alpha=st.floats(min_value=0.001, max_value=0.999),
        result_file=st.from_regex(r"[a-z0-9_]{1,12}", fullmatch=True),
        bucket=names,
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip(
        self,
        domain,
        dataset,
        independent,
        dependents,
        statistic,
        alternative,
        alpha,
        result_file,
        bucket,
    ):
        if independent in dependents:
            return
        doc = {
            "payload_version": 1,
            "domain": domain,
            "analyses": [
                {
                    "statistic": statistic,
                    "dataset": dataset,
                    "independent": independent,
                    "dependent": dependents,
                    "alternative": alternative,
                    "alpha": alpha,
                    "result_file": result_file,
                }
            ],
            "output": {"bucket": bucket, "prefix": ""},
        }
        payload = parse_payload(json.dumps(doc))
        assert parse_payload(serialize_payload(payload)) == payload


class TestDatasetProperties:
    @given(
        values=st.lists(
            st.one_of(
                st.just(""),
                st.floats(
                    min_value=-1e3, max_value=1e3, allow_nan=False
                ).map(lambda v: f"{v:.4f}"),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_load_deterministic_and_missing_preserved(self, values, tmp_path_factory):
        from a4l_analytics.dataset import load_csv

        path = tmp_path_factory.mktemp("csv") / "d.csv"
        # second column keeps rows with a missing x from reading as
        # blank records (a lone empty field serializes to a blank line)
        body = "\n".join(f"{v},k" for v in values)
        path.write_text("x,tag\n" + body + "\n", encoding="utf-8")
        first = load_csv(path)
        second = load_csv(path)
        assert first == second
        missing = sum(1 for c in first.column("x").cells if c is None)
        assert missing == sum(1 for v in values if v == "")


# Finite cells at the edges of the float range: huge magnitudes, the
# smallest subnormal, signed zeros, and a few repeated values for ties.
edge_cells = st.one_of(
    st.none(),
    st.sampled_from([1e200, -1e200, 1e154, 5e-324, -5e-324, 0.0, -0.0, 1.0, 2.0]),
    st.floats(min_value=-1e200, max_value=1e200, allow_nan=False),
)


class TestExecutePayloadProperties:
    @given(
        false=st.lists(edge_cells, max_size=8),
        true=st.lists(edge_cells, max_size=8),
        alternative=st.sampled_from(["two_sided", "less", "greater"]),
    )
    @example(
        false=[2.0, 2.57e-278, 5e-324], true=[1e154, 1e154], alternative="two_sided"
    )
    @example(false=[], true=[], alternative="less")
    @example(false=[1e200, 1e200], true=[0.0, 1e-150], alternative="two_sided")
    @settings(max_examples=200, deadline=None)
    def test_no_statistic_raises(self, false, true, alternative, tmp_path_factory):
        """Every dependent gets a result or an error entry, whatever
        finite cells its column holds; no exception leaves the payload,
        and every document is valid JSON, without NaN or Infinity."""
        from a4l_analytics.dataset import DatasetCache, StagedRun
        from a4l_analytics.runner import STATISTICS, execute_payload

        path = tmp_path_factory.mktemp("csv") / "d.csv"
        rows = [("false", v) for v in false] + [("true", v) for v in true]
        body = "".join(
            f"{g},{'' if v is None else repr(v)},{'ab'[i % 2]}\n"
            for i, (g, v) in enumerate(rows)
        )
        path.write_text("used,y,cat\n" + body, encoding="utf-8")
        payload = parse_payload(
            json.dumps(
                {
                    "payload_version": 1,
                    "domain": "p",
                    "analyses": [
                        {
                            "statistic": name,
                            "dataset": "d",
                            "independent": "used",
                            "dependent": ["y" if stat.compute else "cat"],
                            "alternative": alternative,
                            "result_file": name,
                        }
                        for name, stat in STATISTICS.items()
                    ],
                    "output": {"bucket": "p", "prefix": ""},
                }
            )
        )
        staged = StagedRun(run_id="r", staged={"d": path}, versions={"d": "v1"})
        docs = execute_payload(payload, staged, DatasetCache())
        assert [d.statistic for d in docs] == list(STATISTICS)
        for doc in docs:
            (entry,) = doc.results
            assert "kind" in entry or set(entry["error"]) == {"kind", "message"}
            json.dumps(doc.to_dict(), allow_nan=False)
