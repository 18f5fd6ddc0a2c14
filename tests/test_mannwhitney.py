"""Mann-Whitney U test: exact branch, normal branch, tie handling."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from scipy import stats as st

import oracles
from a4l_analytics.errors import DegenerateDataError, InsufficientDataError
from a4l_analytics.stats import mann_whitney_u
from a4l_analytics.stats.mannwhitney import EXACT_SIZE_LIMIT, _rank_walk


class TestExactBranch:
    def test_enumeration_example_less(self):
        # all 6 assignments of {1,2,3,4} into groups of two: only one
        # puts both smallest in group1, so P(U <= 0) = 1/6
        result = mann_whitney_u([1.0, 2.0], [3.0, 4.0], alternative="less")
        assert result.u1 == 0.0
        assert result.method == "exact"
        assert result.p_value == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_enumeration_example_two_sided(self):
        # 20 assignments; P(U<=3) + P(U>=6) = 7/20 + 7/20 = 0.7
        result = mann_whitney_u([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        assert result.u1 == 3.0
        assert result.p_value == pytest.approx(0.7, abs=1e-15)

    def test_group_swap_symmetry(self):
        a, b = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
        r1 = mann_whitney_u(a, b)
        r2 = mann_whitney_u(b, a)
        assert r1.u1 == r2.u2
        assert r1.u2 == r2.u1
        assert r1.u2 == len(a) * len(b) - r1.u1
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-15)

    @pytest.mark.parametrize("alternative", ["less", "greater", "two_sided"])
    def test_matches_full_enumeration(self, alternative):
        rng = random.Random(17)
        for _ in range(40):
            n1 = rng.randint(1, 5)
            n2 = rng.randint(1, 9 - n1)
            values = rng.sample(range(1000), n1 + n2)
            g1 = [float(v) for v in values[:n1]]
            g2 = [float(v) for v in values[n1:]]
            expected = oracles.mwu_enumerated_p(g1, g2, alternative)
            result = mann_whitney_u(g1, g2, alternative=alternative)
            assert result.method == "exact"
            assert result.p_value == pytest.approx(expected, abs=1e-12)

    def test_exact_branch_requires_distinct_values(self):
        # a within-group duplicate forces the normal branch: counting
        # exactness only holds when every pooled value is distinct
        result = mann_whitney_u([1.0, 1.0], [2.0, 3.0])
        assert result.method == "normal_approx"

    def test_size_boundary(self):
        g1 = [float(v) for v in range(6)]
        g2 = [float(v) + 0.5 for v in range(6)]
        assert mann_whitney_u(g1, g2).method == "exact"
        g2.append(99.0)
        assert mann_whitney_u(g1, g2).method == "normal_approx"


class TestNormalBranch:
    def test_matches_scipy_asymptotic(self):
        rng = random.Random(23)
        for _ in range(20):
            n1 = rng.randint(8, 30)
            n2 = rng.randint(8, 30)
            g1 = [float(rng.randint(0, 6)) for _ in range(n1)]
            g2 = [float(rng.randint(0, 6)) for _ in range(n2)]
            for alt, scipy_alt in (
                ("less", "less"),
                ("greater", "greater"),
                ("two_sided", "two-sided"),
            ):
                ref = st.mannwhitneyu(
                    g1, g2, alternative=scipy_alt, method="asymptotic", use_continuity=True
                )
                result = mann_whitney_u(g1, g2, alternative=alt)
                assert result.method == "normal_approx"
                assert result.u1 == pytest.approx(float(ref.statistic), abs=1e-9)
                assert result.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_tie_correction_flag(self):
        tied = mann_whitney_u([1.0, 2.0, 2.0] * 5, [2.0, 3.0, 4.0] * 5)
        assert tied.tie_correction_applied
        untied = mann_whitney_u(
            [float(i) for i in range(15)], [float(i) + 0.5 for i in range(15)]
        )
        assert not untied.tie_correction_applied

    def test_u_complement_with_ties(self):
        g1 = [1.0, 2.0, 2.0, 3.0] * 4
        g2 = [2.0, 2.0, 4.0] * 4
        result = mann_whitney_u(g1, g2)
        assert result.u1 + result.u2 == len(g1) * len(g2)

    def test_permutation_oracle_agreement(self):
        rng = random.Random(31)
        g1 = [float(rng.randint(0, 4)) for _ in range(18)]
        g2 = [float(rng.randint(1, 5)) for _ in range(22)]
        result = mann_whitney_u(g1, g2, alternative="less")
        ref = oracles.mwu_permutation_p(g1, g2, "less", n_perm=200_000, seed=3)
        assert result.p_value == pytest.approx(ref, abs=0.01)


# Values rounded to 0 or 1 decimals, both signs of zero among them:
# pooled samples are tie-heavy, and -0.0 ties with 0.0.
tied_value = hs.one_of(
    hs.integers(-3, 3).map(float),
    hs.integers(-20, 20).map(lambda k: round(k / 10, 1)),
    hs.sampled_from([-0.0, 0.0]),
)
tied_sample = hs.lists(tied_value, min_size=1, max_size=30)


class TestRankWalk:
    @given(g1=tied_sample, g2=tied_sample)
    @example(g1=[0.0, -0.0], g2=[-0.0])  # all equal
    @example(g1=[-0.0, 1.0, 2.5], g2=[3.0, -1.0])  # n <= 12, distinct
    @example(g1=[-0.0, 1.0], g2=[0.0, 2.0])  # n <= 12, tied zeros
    @settings(max_examples=400, deadline=None)
    def test_u_and_ties_match_definitions(self, g1, g2):
        pooled = g1 + g2
        _, counts = np.unique(np.array(pooled), return_counts=True)
        _, tie_sum, distinct = _rank_walk(g1, pooled)
        assert tie_sum == int((counts**3 - counts).sum())
        assert distinct == len(counts)
        if len(counts) == 1:
            with pytest.raises(DegenerateDataError):
                mann_whitney_u(g1, g2)
            return
        result = mann_whitney_u(g1, g2)
        u1 = oracles.mwu_u1(g1, g2)
        assert result.u1 == u1
        assert result.u2 == len(g1) * len(g2) - u1
        if len(pooled) <= EXACT_SIZE_LIMIT and len(counts) == len(pooled):
            assert result.method == "exact"
            assert not result.tie_correction_applied
        else:
            assert result.method == "normal_approx"
            assert result.tie_correction_applied == bool((counts > 1).any())


class TestErrors:
    def test_empty_group(self):
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([], [1.0])
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([1.0], [])

    def test_all_identical(self):
        with pytest.raises(DegenerateDataError):
            mann_whitney_u([5.0] * 10, [5.0] * 12)
