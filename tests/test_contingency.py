"""Contingency tables and descriptive summaries."""

import pytest

from a4l_analytics.errors import ArgumentError, DegenerateDataError
from a4l_analytics.stats import contingency, descriptives


class TestContingency:
    def test_degenerate_single_level(self):
        row = ["x"] * 10
        col = ["a", "b"] * 5
        table = contingency("const", "categorical", row, "ab", "categorical", col)
        assert table.row_levels == ["x"]
        assert table.col_levels == ["a", "b"]
        assert table.row_totals == [10]
        assert table.counts == [[5, 5]]

    def test_hand_counted_fixture(self):
        # usage {true x3, false x2} crossed with two age bands
        usage = ["true", "false", "true", "true", "false"]
        age = ["<25", ">=25", ">=25", "<25", "<25"]
        table = contingency("usage", "boolean", usage, "age", "categorical", age)
        assert table.grand_total == 5
        assert sum(sum(row) for row in table.counts) == 5
        assert table.row_levels == ["false", "true"]
        assert table.col_levels == ["<25", ">=25"]
        # hand count: false/<25 = 1, false/>=25 = 1, true/<25 = 2, true/>=25 = 1
        assert table.counts == [[1, 1], [2, 1]]
        assert table.row_totals == [2, 3]
        assert table.col_totals == [3, 2]

    def test_missing_cells_excluded(self):
        usage = ["true", None, "false", "true"]
        age = ["<25", "<25", None, ">=25"]
        table = contingency("usage", "boolean", usage, "age", "categorical", age)
        assert table.grand_total == 2

    def test_margins_consistent(self):
        usage = ["true", "false"] * 7
        gender = ["female", "male", "nonbinary", "male"] * 3 + ["female", "male"]
        table = contingency("u", "boolean", usage, "g", "categorical", gender)
        assert sum(table.row_totals) == table.grand_total
        assert sum(table.col_totals) == table.grand_total
        for i, row in enumerate(table.counts):
            assert sum(row) == table.row_totals[i]

    def test_numeric_column_rejected(self):
        with pytest.raises(ArgumentError, match="discretize"):
            contingency("score", "numeric", ["1.0"], "g", "categorical", ["a"])

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            contingency("a", "boolean", ["true"], "b", "boolean", ["true", "false"])


class TestDescriptives:
    def test_constant_sample(self):
        summary = descriptives([5.0, 5.0, 5.0])
        assert summary.n == 3
        assert summary.mean == 5.0
        assert summary.sd == 0.0
        assert summary.variance == 0.0

    def test_empty_sample(self):
        summary = descriptives([])
        assert summary.n == 0
        assert summary.mean is None
        assert summary.sd is None

    def test_single_value_sd_missing(self):
        summary = descriptives([4.2])
        assert summary.n == 1
        assert summary.mean == 4.2
        assert summary.sd is None

    def test_hand_computed(self):
        # sd of 1..4 is sqrt(5/3)
        summary = descriptives([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5, abs=1e-15)
        assert summary.sd == pytest.approx((5.0 / 3.0) ** 0.5, abs=1e-14)
        assert summary.sd == pytest.approx(1.2910, abs=1e-4)

    def test_missing_values_ignored(self):
        summary = descriptives([1.0, None, 3.0, None])
        assert summary.n == 2
        assert summary.mean == 2.0

    @pytest.mark.parametrize(
        "values, cause",
        [
            ([1e200, 1.0, 2.0], "sum of squared deviations"),
            ([1.7e308, -1.7e308, -1.7e308], "sum of squared deviations"),
            ([1e308, 1e308], "sum of the values"),
            ([1.7e308, 1.7e308, None], "sum of the values"),
        ],
    )
    def test_overflow_on_finite_input_is_degenerate(self, values, cause):
        with pytest.raises(DegenerateDataError, match=cause):
            descriptives(values)

    def test_largest_spread_is_finite(self):
        summary = descriptives([9e153, -9e153])
        assert summary.variance == summary.sd * summary.sd < float("inf")

    def test_variance_consistent_with_sd(self):
        summary = descriptives([0.3, 9.1, 4.4, 2.2, 7.7])
        assert summary.variance == pytest.approx(summary.sd**2, rel=1e-15)
