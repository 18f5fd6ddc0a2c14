"""Welch's t-test and post-hoc power."""

import math

import pytest

import oracles
from a4l_analytics.errors import DegenerateDataError, InsufficientDataError
from a4l_analytics.stats import welch_power, welch_ttest
from a4l_analytics.stats.summaries import GroupSummary, descriptives


class TestWelchTTest:
    def test_overflowing_sample_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="overflows"):
            welch_ttest(
                descriptives([1e200, 1.0, 2.0]), descriptives([1.0, 2.0, 3.0])
            )

    @pytest.mark.parametrize(
        "g1, g2",
        [
            ([1e200, 1e200], [0.0, 1e-150]),
            ([0.0, 1e-150], [-1e200, -1e200]),
        ],
    )
    def test_overflowing_t_is_degenerate(self, g1, g2):
        # finite summaries whose t is not finite, which JSON cannot hold
        with pytest.raises(DegenerateDataError, match="t statistic overflows"):
            welch_ttest(descriptives(g1), descriptives(g2))

    def test_identical_groups(self):
        result = welch_ttest(descriptives([1.0, 2.0, 3.0]), descriptives([1.0, 2.0, 3.0]))
        assert result.t == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-14)

    def test_hand_computed_example(self):
        # t = -2.5 / sqrt(5/12 + 5/3) = -sqrt(3); df = 75/17 by direct
        # evaluation of the Welch-Satterthwaite formula
        result = welch_ttest(
            descriptives([1.0, 2.0, 3.0, 4.0]), descriptives([2.0, 4.0, 6.0, 8.0])
        )
        assert result.t == pytest.approx(-math.sqrt(3.0), abs=1e-10)
        assert result.df == pytest.approx(75.0 / 17.0, abs=1e-10)
        assert result.t == pytest.approx(-1.7321, abs=1e-4)
        assert result.df == pytest.approx(4.4118, abs=1e-4)
        # p confirmed by the quadrature oracle (0.15158, not the oft-
        # rounded 0.154; scipy's Welch test agrees to 1e-16)
        p_quad = 2.0 * oracles.student_t_cdf_quad(result.t, result.df)
        assert result.p_value == pytest.approx(p_quad, abs=1e-9)
        assert result.p_value == pytest.approx(0.15158050484530383, abs=1e-12)

    def test_formulas_match_direct_reevaluation(self):
        import random

        rng = random.Random(99)
        for _ in range(50):
            n1 = rng.randint(2, 30)
            n2 = rng.randint(2, 30)
            g1 = [rng.gauss(0, 1) for _ in range(n1)]
            g2 = [rng.gauss(0.3, 1.7) for _ in range(n2)]
            t_ref, df_ref = oracles.welch_stats_direct(g1, g2)
            result = welch_ttest(descriptives(g1), descriptives(g2))
            assert result.t == pytest.approx(t_ref, abs=1e-10)
            assert result.df == pytest.approx(df_ref, abs=1e-10)

    def test_one_sided_directions(self):
        g1 = descriptives([1.0, 2.0, 3.0])
        g2 = descriptives([4.0, 5.0, 6.0])
        less = welch_ttest(g1, g2, alternative="less")
        greater = welch_ttest(g1, g2, alternative="greater")
        assert less.p_value < 0.05
        assert greater.p_value > 0.9
        assert less.p_value + greater.p_value == pytest.approx(1.0, abs=1e-12)

    def test_missing_values_dropped(self):
        result = welch_ttest(
            descriptives([1.0, None, 2.0, 3.0]), descriptives([4.0, 5.0, None, 6.0])
        )
        assert result.group1.n == 3
        assert result.group2.n == 3

    def test_labels_recorded(self):
        result = welch_ttest(
            descriptives([1.0, 2.0], label="false"),
            descriptives([3.0, 4.0], label="true"),
        )
        assert result.group1.label == "false"
        assert result.group2.label == "true"

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            welch_ttest(descriptives([1.0]), descriptives([2.0, 3.0]))
        with pytest.raises(InsufficientDataError):
            welch_ttest(descriptives([1.0, 2.0]), descriptives([3.0]))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            welch_ttest(descriptives([2.0, 2.0, 2.0]), descriptives([5.0, 5.0]))


class TestWelchPower:
    def _summaries(self, n1, n2, d):
        return (
            GroupSummary("a", n1, d, 1.0),
            GroupSummary("b", n2, 0.0, 1.0),
        )

    @pytest.mark.parametrize("alternative", ["two_sided", "less", "greater"])
    def test_zero_effect_power_is_alpha(self, alternative):
        g1, g2 = self._summaries(20, 25, 0.0)
        result = welch_power(g1, g2, alpha=0.05, alternative=alternative)
        assert result.power == pytest.approx(0.05, abs=1e-9)

    def test_two_sided_benchmark(self):
        # frozen Monte Carlo oracle value 0.693 (2e5 experiments);
        # exact noncentral-t evaluation is 0.6934041966
        g1, g2 = self._summaries(20, 20, 0.8)
        result = welch_power(g1, g2, alpha=0.05, alternative="two_sided")
        assert result.power == pytest.approx(0.6934041966, abs=1e-9)
        assert result.power == pytest.approx(0.693, abs=0.01)
        assert result.noncentrality == pytest.approx(0.8 * math.sqrt(10.0), abs=1e-12)
        assert result.df == pytest.approx(38.0, abs=1e-9)

    def test_greater_benchmark(self):
        g1, g2 = self._summaries(50, 50, 0.5)
        result = welch_power(g1, g2, alpha=0.05, alternative="greater")
        assert result.power == pytest.approx(0.7989361642, abs=1e-9)
        assert result.power == pytest.approx(0.80, abs=0.01)

    def test_less_mirrors_greater(self):
        g1, g2 = self._summaries(30, 30, -0.4)
        less = welch_power(g1, g2, alpha=0.05, alternative="less")
        g1m, g2m = self._summaries(30, 30, 0.4)
        greater = welch_power(g1m, g2m, alpha=0.05, alternative="greater")
        assert less.power == pytest.approx(greater.power, abs=1e-10)

    def test_critical_value_matches_alternative(self):
        g1, g2 = self._summaries(20, 20, 0.5)
        greater = welch_power(g1, g2, alpha=0.05, alternative="greater")
        less = welch_power(g1, g2, alpha=0.05, alternative="less")
        assert greater.critical_value > 0
        assert less.critical_value == pytest.approx(-greater.critical_value, abs=1e-10)

    def test_power_from_observed_samples(self):
        g1 = descriptives([1.0, 2.0, 3.0, 4.0], label="false")
        g2 = descriptives([2.0, 4.0, 6.0, 8.0], label="true")
        result = welch_power(g1, g2, alpha=0.05, alternative="two_sided")
        assert result.noncentrality == pytest.approx(-math.sqrt(3.0), abs=1e-10)
        assert result.df == pytest.approx(75.0 / 17.0, abs=1e-10)
        assert 0.0 <= result.power <= 1.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            welch_power(GroupSummary("a", 1, 1.0, None), GroupSummary("b", 5, 0.0, 1.0))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            welch_power(GroupSummary("a", 5, 1.0, 0.0), GroupSummary("b", 5, 0.0, 0.0))
