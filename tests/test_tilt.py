"""Tilting engine: log-MGF, tilted moments, the mean-matching solver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import DensityModel, make_exp_exponential, make_half_gaussian, make_weibull
from extreme_gibbs.quad import log_integral
from extreme_gibbs.tilt import (
    TiltParams,
    asymptotic_moments,
    gaussian_moment,
    log_mgf,
    normalized_tilted_density,
    skewness_ratio,
    solve_tilt,
    tilt_moments,
    tilted_density,
)


class TestLogMgf:
    def test_zero_tilt_is_zero(self, weibull2, half_gauss, exp_exp):
        for model in (weibull2, half_gauss, exp_exp):
            assert log_mgf(model, 0.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 30.0])
    def test_half_gaussian_closed_form(self, half_gauss, t):
        assert log_mgf(half_gauss, t) == pytest.approx(
            half_gauss.closed_forms.log_mgf(t), abs=1e-8
        )

    def test_weibull_against_dense_grid(self, weibull2):
        # independent oracle: plain log-trapezoid on [0, 20] with step 1e-4
        xs = np.arange(0.0, 20.0 + 1e-4, 1e-4)
        vals = np.exp(xs) * weibull2.density(xs)
        oracle = math.log(np.trapezoid(vals, xs))
        assert log_mgf(weibull2, 1.0) == pytest.approx(oracle, abs=1e-7)

    def test_negative_tilt_converges(self, weibull2):
        assert log_mgf(weibull2, -1.0) < 0.0

    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0))
    def test_log_mgf_midpoint_convexity(self, weibull2, t1, t2):
        mid = log_mgf(weibull2, 0.5 * (t1 + t2))
        assert mid <= 0.5 * (log_mgf(weibull2, t1) + log_mgf(weibull2, t2)) + 1e-10


class TestTiltMoments:
    def test_zero_tilt_recovers_density_moments(self, weibull2):
        tp = tilt_moments(weibull2, 0.0)
        from scipy.special import gamma

        assert tp.a == pytest.approx(gamma(1.5), rel=1e-10)
        assert tp.s2 == pytest.approx(1.0 - math.pi / 4.0, rel=1e-9)

    def test_half_gaussian_closed_moments(self, half_gauss):
        cf = half_gauss.closed_forms
        for t in (0.5, 3.0, 10.0):
            tp = tilt_moments(half_gauss, t)
            assert tp.a == pytest.approx(cf.mean(t), abs=1e-8)
            assert tp.s2 == pytest.approx(cf.variance(t), abs=1e-8)
            assert tp.mu3 == pytest.approx(cf.mu3(t), abs=1e-8)

    def test_large_tilt_is_gaussian(self, half_gauss):
        tp = tilt_moments(half_gauss, 30.0)
        assert abs(tp.s2 - 1.0) < 1e-3
        assert abs(tp.mu3) < 1e-3

    def test_variance_matches_mean_derivative(self, weibull2, exp_exp):
        for model, probes in ((weibull2, (1.0, 10.0, 100.0)), (exp_exp, (1.0, 10.0, 100.0))):
            for t in probes:
                dt = 1e-3 * max(1.0, abs(t))
                dm = (tilt_moments(model, t + dt).a - tilt_moments(model, t - dt).a) / (2 * dt)
                assert tilt_moments(model, t).s2 == pytest.approx(dm, rel=1e-5)


# every built-in model on a t grid that reaches below h_min where h_min is finite
_PSI_GRIDS = [
    *((make_weibull(k), (-5.0, -0.5, 0.0, 0.5, 3.0, 30.0, 300.0)) for k in (1.5, 2.0, 4.0, 10.0)),
    (make_exp_exponential(), (-1.0, 0.0, 0.2, math.exp(-1.0), 0.5, 3.0, 30.0, 300.0)),
    (make_half_gaussian(), (-2.0, -0.5, 0.0, 0.5, 5.0, 50.0)),
]


@pytest.mark.parametrize("model,ts", _PSI_GRIDS, ids=[g[0].name for g in _PSI_GRIDS])
def test_psi_fields_are_the_model_inverse_from_one_inversion(model, ts, monkeypatch):
    real_psi = DensityModel.psi
    for t in ts:
        try:
            want = (model.psi(t), model.psi_d1(t), model.psi_d2(t))
        except (DomainError, NumericError):
            want = (math.nan,) * 3
        calls = []

        def counting(self, t):
            calls.append(t)
            return real_psi(self, t)

        with monkeypatch.context() as mp:
            mp.setattr(DensityModel, "psi", counting)
            tp = tilt_moments(model, t)
        # bitwise: hex tells -0.0 from 0.0 and keeps every bit of the mantissa
        assert [float(v).hex() for v in (tp.psi_val, tp.psi_d1, tp.psi_d2)] == [float(v).hex() for v in want], t
        assert len(calls) == (1 if t >= model.h_min else 0), t


class TestSolveTilt:
    def test_mean_level_gives_zero_tilt(self, half_gauss):
        a0 = half_gauss.closed_forms.mean(0.0)
        tp = solve_tilt(half_gauss, a0)
        assert abs(tp.t) < 1e-8

    def test_half_gaussian_level_five(self, half_gauss):
        tp = solve_tilt(half_gauss, 5.0)
        # the correction below t = 5 is the Mills ratio at 5, about 1.5e-6
        assert tp.t == pytest.approx(5.0 - norm.pdf(5.0) / norm.cdf(5.0), abs=1e-9)
        assert tp.a == pytest.approx(5.0, rel=1e-10)

    def test_initial_guess_region_weibull(self, weibull2):
        tp = solve_tilt(weibull2, 10.0)
        assert abs(tp.t - 19.9) < 0.2

    def test_roundtrip_grids(self, weibull2, half_gauss, exp_exp):
        for model, hi in ((weibull2, 1e3), (half_gauss, 1e3), (exp_exp, 25.0)):
            m0 = tilt_moments(model, 0.0).a
            for a in np.geomspace(2 * m0, hi, 8):
                tp = solve_tilt(model, a)
                assert abs(tp.a - a) / a <= 1e-9

    def test_below_support_rejected(self, weibull2):
        with pytest.raises(DomainError):
            solve_tilt(weibull2, -1.0)

    def test_below_mean_level_uses_negative_tilt(self, exp_exp):
        # levels under the mean push t below the inverse-slope domain and
        # exercise the peak-search quadrature fallback
        m0 = tilt_moments(exp_exp, 0.0).a
        tp = solve_tilt(exp_exp, 0.8 * m0)
        assert tp.t < 0.0
        assert abs(tp.a - 0.8 * m0) / (0.8 * m0) <= 1e-9

    @given(st.floats(min_value=1.2, max_value=60.0))
    def test_roundtrip_property(self, weibull2, a):
        tp = solve_tilt(weibull2, a)
        assert abs(tp.a - a) / a <= 1e-9


class TestSkew:
    def test_underflowing_s_cubed_is_a_numeric_error(self):
        tp = TiltParams(t=1.0, a=1.0, s2=3e-235, mu3=1e-300, log_phi=0.0, psi_val=1.0, psi_d1=1.0, psi_d2=1.0)
        with pytest.raises(NumericError):
            tp.skew


class TestTiltedDensity:
    def test_zero_tilt_recovers_density(self, weibull2):
        tp = tilt_moments(weibull2, 0.0)
        xs = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(tilted_density(weibull2, tp, xs), weibull2.density(xs), rtol=1e-10)

    def test_half_gaussian_tilt_is_truncated_normal(self, half_gauss):
        # e^(2x) p(x) / Phi(2) = phi(x - 2) / PhiN(2) on the half line
        tp = tilt_moments(half_gauss, 2.0)
        xs = np.linspace(0.0, 8.0, 33)
        expected = norm.pdf(xs - 2.0) / norm.cdf(2.0)
        np.testing.assert_allclose(tilted_density(half_gauss, tp, xs), expected, atol=1e-10)

    def test_unit_mass(self, weibull2):
        tp = solve_tilt(weibull2, 4.0)
        res = log_integral(
            lambda x: tp.t * x + weibull2._log_density_clipped(x) - tp.log_phi,
            center=tp.a,
            scale=tp.s,
            lo=0.0,
        )
        assert math.exp(res.log_value) == pytest.approx(1.0, abs=1e-8)

    def test_zero_below_support(self, weibull2):
        tp = tilt_moments(weibull2, 1.0)
        assert tilted_density(weibull2, tp, -1.0) == 0.0


class TestNormalizedTilted:
    def test_outside_support_is_zero(self, half_gauss):
        tp = tilt_moments(half_gauss, 1.0)
        u_edge = (half_gauss.support_lo - tp.a) / tp.s
        assert normalized_tilted_density(half_gauss, tp, u_edge - 0.5) == 0.0

    def test_large_tilt_close_to_standard_normal(self, half_gauss):
        tp = tilt_moments(half_gauss, 30.0)
        us = np.linspace(-3.0, 3.0, 25)
        gap = np.abs(normalized_tilted_density(half_gauss, tp, us) - norm.pdf(us))
        assert float(np.max(gap)) < 1e-3

    def test_unit_second_moment(self, weibull2):
        tp = solve_tilt(weibull2, 3.0)
        us = np.arange(-12.0, 12.0, 1e-3)
        vals = normalized_tilted_density(weibull2, tp, us)
        assert np.trapezoid(us**2 * vals, us) == pytest.approx(1.0, abs=1e-6)


class TestAsymptoticMoments:
    def test_gaussian_moment_table(self):
        assert [gaussian_moment(i) for i in (1, 2, 3, 4, 6, 8)] == [0.0, 1.0, 0.0, 3.0, 15.0, 105.0]

    def test_even_order(self, weibull2):
        tp = tilt_moments(weibull2, 10.0)
        assert asymptotic_moments(weibull2, 10.0, 4) == pytest.approx(3.0 * tp.s2**2, rel=1e-9)

    def test_odd_order_constant(self, weibull2):
        # j = 5: (M8 - 15 M4) / 6 = (105 - 45) / 6 = 10
        tp = tilt_moments(weibull2, 10.0)
        assert asymptotic_moments(weibull2, 10.0, 5) == pytest.approx(
            10.0 * tp.mu3 * tp.s2, rel=1e-9
        )

    def test_low_order_maps_to_inverse_slope(self, weibull2):
        assert asymptotic_moments(weibull2, 50.0, 2) == pytest.approx(weibull2.psi_d1(50.0))
        assert asymptotic_moments(weibull2, 50.0, 3) == pytest.approx(weibull2.psi_d2(50.0))

    def test_rejects_low_order(self, weibull2):
        with pytest.raises(DomainError):
            asymptotic_moments(weibull2, 10.0, 1)

    def test_variance_ratio_in_band(self, weibull2):
        tp = tilt_moments(weibull2, 1e3)
        assert 0.9 <= tp.s2 / weibull2.psi_d1(1e3) <= 1.1


class TestTrends:
    def test_moment_ratios_approach_one(self, weibull2, exp_exp):
        for model in (weibull2, exp_exp):
            errs = {"m": [], "s2": [], "mu3": []}
            for t in (10.0, 1e2, 1e3):
                tp = tilt_moments(model, t)
                errs["m"].append(abs(tp.a / tp.psi_val - 1.0))
                errs["s2"].append(abs(tp.s2 / tp.psi_d1 - 1.0))
                errs["mu3"].append(abs(tp.mu3 / tp.psi_d2 - 1.0))
            for seq in errs.values():
                assert seq[0] > seq[1] > seq[2]
                assert seq[2] < 0.15

    def test_skewness_ratio_decreasing(self, weibull2, exp_exp):
        for model in (weibull2, exp_exp):
            mags = [abs(skewness_ratio(model, t)) for t in (10.0, 1e2, 1e3)]
            assert mags[0] > mags[1] > mags[2]

    def test_skewness_vanishes_for_symmetric_limit(self, half_gauss):
        # strongly tilted half-gaussian is an (almost) symmetric normal
        assert abs(skewness_ratio(half_gauss, 40.0)) < 1e-4

    def test_variance_self_neglecting(self, weibull2, half_gauss, exp_exp):
        # s^2(t + u/s) / s^2(t) stays within 5 percent on compact u windows
        for model, t in ((weibull2, 1e3), (half_gauss, 1e3), (exp_exp, 1e4)):
            s = math.sqrt(tilt_moments(model, t).s2)
            base = tilt_moments(model, t).s2
            for u in (-2.0, -1.0, 1.0, 2.0):
                ratio = tilt_moments(model, t + u / s).s2 / base
                assert 0.95 <= ratio <= 1.05


class TestVarianceFunction:
    def test_large_level_half_gaussian(self, half_gauss):
        assert solve_tilt(half_gauss, 20.0).s2 == pytest.approx(1.0, abs=1e-6)

    def test_matches_asymptotic_chain(self, weibull2):
        v = solve_tilt(weibull2, 1e3).s2
        assert v == pytest.approx(weibull2.psi_d1(weibull2.h(1e3)), rel=0.1)

    def test_at_mean_recovers_density_variance(self, weibull2):
        m0 = tilt_moments(weibull2, 0.0).a
        assert solve_tilt(weibull2, m0).s2 == pytest.approx(1.0 - math.pi / 4.0, rel=1e-6)
