"""Special functions: incomplete beta, t CDF, normal CDF, noncentral t."""

import math

import pytest

import oracles
from a4l_analytics.errors import ArgumentError
from a4l_analytics.stats import (
    noncentral_t_cdf,
    normal_cdf,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)
from a4l_analytics.stats._backend import kernels


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x
        assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(
            0.37, abs=1e-14
        )

    def test_closed_form_2_3(self):
        # I_x(2, 3) has polynomial closed form 12 (x^2/2 - 2x^3/3 + x^4/4)
        expected = oracles.betainc_closed_form_2_3(0.25)
        assert expected == pytest.approx(0.26171875, abs=1e-15)
        assert regularized_incomplete_beta(2.0, 3.0, 0.25) == pytest.approx(
            expected, abs=1e-13
        )

    def test_symmetry(self):
        for a, b, x in [(2.5, 7.0, 0.3), (40.0, 3.0, 0.9), (500.0, 800.0, 0.42)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 7.3, 100.0, 1e4])
    @pytest.mark.parametrize("b", [0.02, 0.5, 2.0, 55.0, 1e4])
    @pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    def test_against_scipy_within_contract(self, a, b, x):
        # contract: absolute error <= 1e-12 for a, b <= 1e4
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            oracles.scipy_betainc(a, b, x), abs=1e-12
        )

    @pytest.mark.parametrize("a, b", [(18.5, 15.0), (100.0, 55.0), (1e4, 1e4)])
    @pytest.mark.parametrize("x", [1e-17, 1e-34, 1e-300])
    def test_tiny_x_with_large_parameters(self, a, b, x):
        # for a, b >= 15 and tiny x, s/a in the power terms rounds to -1
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            oracles.scipy_betainc(a, b, x), abs=1e-12
        )

    @pytest.mark.parametrize("x", [1e-16, -1e-16])
    @pytest.mark.parametrize("nc", [6.0, -6.0])
    def test_noncentral_t_at_tiny_x(self, x, nc):
        # reaches the tiny-x incomplete beta through the noncentral series
        p = noncentral_t_cdf(x, 30.0, nc)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(1.0 - noncentral_t_cdf(-x, 30.0, -nc), abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ArgumentError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ArgumentError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ArgumentError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    @pytest.mark.parametrize("df", [1.0, 2.0, 17.0, 120.0, 1e4])
    def test_median_is_half(self, df):
        assert student_t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-15)

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: F(x) = 1/2 + arctan(x)/pi
        for x in (-3.0, -1.0, 1.0, 2.5):
            expected = 0.5 + math.atan(x) / math.pi
            assert student_t_cdf(x, 1.0) == pytest.approx(expected, abs=1e-13)
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-13)

    def test_large_df_approaches_normal(self):
        # df -> infinity limit; at df=1e4 the gap to Phi is ~1.6e-5
        phi = oracles.normal_cdf_series(1.41)
        assert phi == pytest.approx(0.92073, abs=5e-6)
        assert student_t_cdf(1.41, 1e4) == pytest.approx(phi, abs=5e-5)

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 38, 100, 1000])
    @pytest.mark.parametrize("x", [-5.0, -1.41, 0.0, 1.41, 1.87, 5.0])
    def test_symmetry(self, df, x):
        assert student_t_cdf(-x, df) == pytest.approx(
            1.0 - student_t_cdf(x, df), abs=1e-14
        )

    def test_against_quadrature(self):
        for x, df in [(-1.7320508, 4.4117647), (1.87, 120.0), (0.5, 3.0)]:
            assert student_t_cdf(x, df) == pytest.approx(
                oracles.student_t_cdf_quad(x, df), abs=1e-10
            )

    def test_domain_error(self):
        with pytest.raises(ArgumentError):
            student_t_cdf(1.0, 0.0)


class TestNormal:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        assert normal_cdf(-2.3) == pytest.approx(1.0 - normal_cdf(2.3), abs=1e-15)

    def test_against_erf_series(self):
        # series oracle is independent of libm erfc
        assert normal_cdf(1.96) == pytest.approx(
            oracles.normal_cdf_series(1.96), abs=1e-12
        )
        assert normal_cdf(1.96) == pytest.approx(0.975002, abs=5e-7)
        for z in (-3.0, -0.7, 0.33, 2.1):
            assert normal_cdf(z) == pytest.approx(
                oracles.normal_cdf_series(z), abs=1e-12
            )


class TestNoncentralT:
    def test_central_reduction(self):
        assert noncentral_t_cdf(1.3, 7.0, 0.0) == student_t_cdf(1.3, 7.0)

    def test_monotone_in_noncentrality(self):
        # stochastic dominance: larger nc shifts mass right
        assert noncentral_t_cdf(2.0, 38.0, 1.0) >= noncentral_t_cdf(2.0, 38.0, 2.5)

    def test_frozen_value(self):
        # frozen from a 2e6-draw Monte Carlo (0.30670) cross-checked by
        # scipy.stats.nct.cdf = 0.3066101311956266
        assert noncentral_t_cdf(2.0244, 38.0, 2.5298) == pytest.approx(
            0.3066101311956266, abs=1e-8
        )
        assert noncentral_t_cdf(2.0244, 38.0, 2.5298) == pytest.approx(0.3065, abs=2e-3)

    @pytest.mark.parametrize("df", [1.0, 4.0, 38.0, 120.0, 1e4])
    @pytest.mark.parametrize("nc", [-40.0, -12.5, -2.53, -0.3, 0.7, 2.53, 15.0, 40.0])
    def test_against_scipy_across_range(self, df, nc):
        for x in (-5.0, 0.0, 0.5 * nc, nc, nc + 3.0, 50.0):
            mine = noncentral_t_cdf(x, df, nc)
            ref = oracles.scipy_nct_cdf(x, df, nc)
            if math.isnan(ref):
                # scipy's cdflib underflows to NaN deep in the tails;
                # there the true value saturates to 0 or 1
                assert min(mine, 1.0 - mine) <= 1e-12
                continue
            assert mine == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("x", [1e155, -1e155, 1e200, -1e200])
    @pytest.mark.parametrize("nc", [1.0, -2.0, 6.0])
    def test_huge_x_where_x_squared_overflows(self, x, nc):
        p = noncentral_t_cdf(x, 10.0, nc)
        assert 0.0 <= p <= 1.0
        ref = oracles.scipy_nct_cdf(x, 10.0, nc)
        if not math.isnan(ref):
            assert p == pytest.approx(ref, abs=1e-12)
        assert p == pytest.approx(1.0 - noncentral_t_cdf(-x, 10.0, -nc), abs=1e-13)

    def test_reflection(self):
        lhs = noncentral_t_cdf(-1.2, 9.0, -2.0)
        rhs = 1.0 - noncentral_t_cdf(1.2, 9.0, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ArgumentError):
            noncentral_t_cdf(1.0, -1.0, 0.5)


QUANTILE_DFS = [0.5, 1.0, 2.5, 3.0, 38.0, 500.0, 1e4]
QUANTILE_PS = [1e-6, 0.025, 0.5, 0.8, 0.975, 1.0 - 1e-6]


class TestQuantile:
    @pytest.mark.parametrize("df", QUANTILE_DFS)
    @pytest.mark.parametrize("p", QUANTILE_PS)
    def test_round_trip(self, df, p):
        t = student_t_quantile(p, df)
        assert student_t_cdf(t, df) == pytest.approx(p, abs=1e-12)

    def test_few_cdf_evaluations(self, monkeypatch):
        # a close start plus Halley steps, not a bisection (~60 evaluations)
        calls = []
        cdf = kernels.student_t_cdf

        def counting_cdf(x, df):
            calls.append(x)
            return cdf(x, df)

        monkeypatch.setattr(kernels, "student_t_cdf", counting_cdf)
        for df in QUANTILE_DFS:
            for p in QUANTILE_PS:
                del calls[:]
                student_t_quantile(p, df)
                assert len(calls) <= 8, (p, df, len(calls))

    def test_median(self):
        assert student_t_quantile(0.5, 10.0) == 0.0

    def test_symmetry(self):
        assert student_t_quantile(0.05, 7.0) == pytest.approx(
            -student_t_quantile(0.95, 7.0), abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ArgumentError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(ArgumentError):
            student_t_quantile(0.5, -5.0)
