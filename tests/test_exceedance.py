"""Rate function, saddlepoint tail formulas, and the exceedance mixture."""

import collections
import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad
from scipy.special import erf
from scipy.stats import norm

from extreme_gibbs import exceedance, quad, tilt
from extreme_gibbs.cli import main
from extreme_gibbs.errors import DomainError
from extreme_gibbs.exceedance import (
    ExceedanceMixture,
    eta_window,
    exceedance_approx,
    rate_function,
    sum_density,
    tail_probability,
    window_tail_masses,
)
from extreme_gibbs.oracle import ConditionalOracle, get_oracle, tv_distance
from extreme_gibbs.gibbs import fast_growth_params, log_fast_growth
from extreme_gibbs.model import model_from_spec
from extreme_gibbs.tilt import log_tilted_density, solve_tilt, tilt_moments, tilted_density


class TestRateFunction:
    def test_zero_at_the_mean(self, weibull2):
        m0 = tilt_moments(weibull2, 0.0).a
        assert abs(rate_function(weibull2, m0).I) < 1e-9

    def test_half_gaussian_closed_form(self, half_gauss):
        rp = rate_function(half_gauss, 5.0)
        closed = 5.0 * rp.t - half_gauss.closed_forms.log_mgf(rp.t)
        assert rp.I == pytest.approx(closed, abs=1e-8)

    def test_legendre_duality(self, weibull2):
        # dI/dx equals the solved tilt parameter
        for x in (2.0, 3.0, 5.0):
            dx = 1e-4 * x
            slope = (rate_function(weibull2, x + dx).I - rate_function(weibull2, x - dx).I) / (
                2 * dx
            )
            assert slope == pytest.approx(rate_function(weibull2, x).t, rel=1e-5)

    def test_increasing_beyond_the_mean(self, weibull2):
        vals = [rate_function(weibull2, x).I for x in (1.2, 2.0, 3.0, 5.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.0, max_value=8.0),
    )
    def test_midpoint_convexity(self, weibull2, x1, x2):
        mid = rate_function(weibull2, 0.5 * (x1 + x2)).I
        avg = 0.5 * (rate_function(weibull2, x1).I + rate_function(weibull2, x2).I)
        assert mid <= avg + 1e-10


class TestTailProbability:
    def test_two_fold_half_gaussian(self, half_gauss):
        # oracle: integral of the closed-form two-fold convolution density
        closed, _ = sp_quad(
            lambda s: (2.0 / math.sqrt(math.pi)) * erf(s / 2.0) * math.exp(-(s**2) / 4.0),
            6.0,
            40.0,
            epsabs=1e-16,
        )
        ratio = math.exp(tail_probability(half_gauss, 2, 3.0)) / closed
        assert 0.5 <= ratio <= 2.0

    def test_ratio_tightens_with_n(self, weibull2):
        gaps = []
        for n in (16, 32, 64):
            orc = get_oracle(weibull2, n, 2.0)
            gaps.append(abs(math.exp(tail_probability(weibull2, n, 2.0) - orc.log_tail()) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert 0.7 <= math.exp(tail_probability(weibull2, 64, 2.0) - get_oracle(weibull2, 64, 2.0).log_tail()) <= 1.4

    def test_log_concavity_in_level(self, weibull2):
        levels = np.linspace(1.5, 5.0, 15)
        logs = np.array([tail_probability(weibull2, 16, a) for a in levels])
        assert np.all(np.diff(logs, 2) <= 1e-9)

    def test_below_mean_rejected(self, weibull2):
        with pytest.raises(DomainError):
            tail_probability(weibull2, 16, 0.3)


class TestSumDensity:
    def test_oracle_factor(self, weibull2):
        # grid-convolution density of the mean at tau = 2, n = 32
        orc = get_oracle(weibull2, 32, 2.0)
        ratio = math.exp(sum_density(weibull2, 32, 2.0) - orc.log_mean_density(2.0))
        assert 0.8 <= ratio <= 1.25

    def test_clt_value_at_the_mean(self, weibull2):
        m0 = tilt_moments(weibull2, 0.0).a
        s0 = math.sqrt(tilt_moments(weibull2, 0.0).s2)
        n = 10_000
        clt = math.log(math.sqrt(n) * norm.pdf(0.0) / s0)
        assert sum_density(weibull2, n, m0) == pytest.approx(clt, abs=0.05)

    def test_mean_density_normalizes(self, weibull2):
        n = 64
        tp0 = tilt_moments(weibull2, 0.0)
        m0, s0 = tp0.a, math.sqrt(tp0.s2)
        taus = np.linspace(m0 - 8 * s0 / math.sqrt(n), m0 + 8 * s0 / math.sqrt(n), 161)
        vals = np.array([math.exp(sum_density(weibull2, n, t)) for t in taus])
        assert np.trapezoid(vals, taus) == pytest.approx(1.0, abs=0.05)


class TestEtaWindow:
    def test_formula_value(self, weibull2):
        tp = solve_tilt(weibull2, 2.0)
        assert eta_window(weibull2, 10_000, 2.0) == pytest.approx(
            math.log(10_000) / (100.0 * tp.t), rel=1e-12
        )

    def test_product_grows_without_bound(self, weibull2):
        tp = solve_tilt(weibull2, 2.0)
        prods = [n * tp.t * eta_window(weibull2, n, 2.0) for n in (16, 64, 256, 1024)]
        assert all(b > a for a, b in zip(prods, prods[1:]))

    def test_decreasing_in_n(self, weibull2):
        etas = [eta_window(weibull2, n, 2.0) for n in (8, 16, 32, 64, 128)]
        assert all(b < a for a, b in zip(etas, etas[1:]))


class TestMixture:
    def test_weights_decrease_in_level(self, weibull2):
        mix = ExceedanceMixture(weibull2, 16, 2.0)
        wv = mix.weight_values()
        assert np.all(np.diff(wv) < 0)

    def test_unit_mass(self, weibull2):
        mix = ExceedanceMixture(weibull2, 16, 2.0)
        ys = np.arange(0.0, 2.0 + 12 * mix.tp.s, 1e-3)
        assert np.trapezoid(mix.density(ys), ys) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_window_recovers_tilted(self, weibull2):
        tp = solve_tilt(weibull2, 2.0)
        mix = ExceedanceMixture(weibull2, 16, 2.0, eta=1e-9)
        for y in (1.3, 2.0, 2.7):
            assert mix.density(y) == pytest.approx(
                float(tilted_density(weibull2, tp, y)), rel=1e-6
            )

    def test_raw_prefactor_reported(self, weibull2):
        # the literal asymptotic prefactor carries mass near 1/n, not 1
        mix = ExceedanceMixture(weibull2, 32, 2.0)
        assert 0.0 < mix.raw_prefactor < 0.2
        assert mix.raw_prefactor == pytest.approx(1.0 / 32.0, rel=0.25)

    def test_matches_oracle_and_improves_with_n(self, weibull2):
        tvs = []
        for n in (8, 16):
            orc = get_oracle(weibull2, n, 2.0)
            mix = ExceedanceMixture(weibull2, n, 2.0)
            ys = orc.default_ygrid()
            tvs.append(tv_distance(orc.exceedance_curve(ys), mix.density(ys), ys).tv)
        assert tvs[1] < tvs[0]
        assert tvs[0] < 0.1

    def test_modulated_variant_close_in_moderate_regime(self, weibull2):
        lit = ExceedanceMixture(weibull2, 32, 2.0, variant="tilted")
        mod = ExceedanceMixture(weibull2, 32, 2.0, variant="gaussian_modulated")
        ys = np.arange(0.0, 6.0 + 0.5 * 2e-3, 2e-3)
        assert tv_distance(lit.density(ys), mod.density(ys), ys).tv < 0.05

    def test_cached_entrypoint(self, weibull2):
        val = exceedance_approx(weibull2, 16, 2.0, 2.0)
        assert val == pytest.approx(ExceedanceMixture(weibull2, 16, 2.0).density(2.0), rel=1e-12)

    @pytest.mark.parametrize("eta", [None, 0.1])
    def test_level_below_mean_is_a_domain_error(self, weibull2, eta):
        # an explicit eta skips eta_window's check; the mixture makes the same one
        for call in (
            lambda: ExceedanceMixture(weibull2, 16, 0.5, eta=eta),
            lambda: exceedance_approx(weibull2, 16, 0.5, 1.0, eta=eta),
            lambda: window_tail_masses(weibull2, 16, 0.5, eta=eta),
        ):
            with pytest.raises(DomainError, match="above the mean"):
                call()


class TestWindowMasses:
    def test_beyond_window_mass_is_negligible(self, weibull2):
        lp1, lp2 = window_tail_masses(weibull2, 64, 2.0)
        assert math.exp(lp2 - lp1) < 0.01

    def test_mass_ratio_shrinks_with_n(self, weibull2):
        ratios = [math.exp(np.diff(window_tail_masses(weibull2, n, 2.0))[0]) for n in (8, 32)]
        assert ratios[1] < ratios[0]


# -- the window over t against the window over tau ------------------------------


def _tau_node_mixture(model, n, a_n, variant, rtol=1e-12):
    """The mixture as it was built over levels: one Newton solve per node tau.

    Returns (log_norm, raw_prefactor, log_density) for the reference window.
    """
    tp = solve_tilt(model, a_n, rtol=rtol)
    eta = eta_window(model, n, a_n)
    u01, w01 = np.polynomial.legendre.leggauss(32)
    u, w = 0.5 * (u01 + 1.0), 0.5 * w01
    taus = a_n + eta * u**2
    I_a = a_n * tp.t - tp.log_phi
    tps = [solve_tilt(model, float(tau), rtol=rtol) for tau in taus]
    log_w = np.array([-n * (tau * q.t - q.log_phi - I_a) - math.log(q.s) for tau, q in zip(taus, tps)])
    log_w += np.log(2.0 * eta * u * w)
    log_norm = float(np.logaddexp.reduce(log_w))

    def log_density(ys):
        if variant == "tilted":
            comps = [log_tilted_density(model, q, ys) for q in tps]
        else:
            comps = [log_fast_growth(fast_growth_params(model, n, float(tau), tp=q), model, ys) for tau, q in zip(taus, tps)]
        return np.logaddexp.reduce(log_w[:, None] - log_norm + np.array(comps), axis=0)

    return log_norm, math.exp(math.log(tp.t * tp.s) + log_norm), log_density


def _tau_node_window_mass(model, n, a_n):
    """log P1 from sum_density over levels, as before the move to t."""
    eta = eta_window(model, n, a_n)
    u01, w01 = np.polynomial.legendre.leggauss(32)
    u, w = 0.5 * (u01 + 1.0), 0.5 * w01
    logs = np.array([sum_density(model, n, float(tau)) for tau in a_n + eta * u**2])
    return float(np.logaddexp.reduce(logs + np.log(2.0 * eta * u * w)))


def _panel_tail_mass(model, n, a_n):
    """log P2 by ``quad.log_integral`` over t >= t_e, one tilt_moments call
    per node (a panel walk until the double-exponential rule replaced it)."""
    mix = ExceedanceMixture(model, n, a_n)
    const = 0.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi)

    def log_f(ts):
        tps = [tilt_moments(model, t) for t in ts.tolist()]
        return np.array([const - n * (q.a * q.t - q.log_phi) + 0.5 * math.log(q.s2) for q in tps])

    te = mix.tp_end
    return quad.log_integral(log_f, center=mix.t_end, scale=1.0 / (n * te.t * te.s2), lo=mix.t_end).log_value


_WINDOW_CASES = [("weibull2", 2.0, 8), ("weibull2", 2.0, 64), ("exp_exp", 4.0, 16), ("exp_exp", 4.0, 64)]


class TestWindowOverTilt:
    """The t-node quadrature agrees with the tau-node one it replaced."""

    @staticmethod
    def _assert_matches(model, n, a, variant, reference):
        ref_log_norm, ref_prefactor, ref_log_density = reference
        mix = ExceedanceMixture(model, n, a, variant=variant)
        s = mix.tp.s
        ys = np.linspace(max(model.support_lo, a - 10 * s), a + 10 * s, 801)
        want = np.exp(ref_log_density(ys))
        got = mix.density(ys)
        core = want >= 1e-6 * want.max()
        assert np.max(np.abs(got[core] - want[core]) / want[core]) <= 1e-12
        assert mix.log_norm == pytest.approx(ref_log_norm, rel=1e-10)
        assert mix.raw_prefactor == pytest.approx(ref_prefactor, rel=1e-10)

    @pytest.mark.parametrize("fixture, a, n", _WINDOW_CASES)
    @pytest.mark.parametrize("variant", ["tilted", "gaussian_modulated"])
    def test_mixture_matches_tau_nodes(self, request, fixture, a, n, variant):
        model = request.getfixturevalue(fixture)
        self._assert_matches(model, n, a, variant, _tau_node_mixture(model, n, a, variant))

    @pytest.mark.parametrize("variant", ["tilted", "gaussian_modulated"])
    def test_fast_regime_matches_tightly_solved_levels(self, weibull2, variant):
        # at n = 32, a = 16 a level node's solve residual (up to 1e-12 a)
        # moves the curve of the old mixture by about 3e-12, so the reference
        # solves its levels to 1e-15
        reference = _tau_node_mixture(weibull2, 32, 16.0, variant, rtol=1e-15)
        self._assert_matches(weibull2, 32, 16.0, variant, reference)

    @pytest.mark.parametrize("fixture, a, n", _WINDOW_CASES)
    def test_window_masses_match_tau_nodes(self, request, fixture, a, n):
        model = request.getfixturevalue(fixture)
        ref_p1, ref_p2 = _tau_node_window_mass(model, n, a), _panel_tail_mass(model, n, a)
        lp1, lp2 = window_tail_masses(model, n, a)
        assert lp1 == pytest.approx(ref_p1, rel=1e-10)
        assert math.exp(lp2 - lp1) == pytest.approx(math.exp(ref_p2 - ref_p1), rel=1e-10)

    def test_exceed_row_takes_two_solves_and_one_moment_per_node(self, tmp_path, monkeypatch):
        counts = collections.Counter()
        node_ts = []  # every t at which the exceedance layer takes moments

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def node_moments(model, t):
            node_ts.append(t)
            return tilt_moments(model, t)

        # solve_tilt_cached calls tilt.solve_tilt, so this counts every solve past the cache
        monkeypatch.setattr(tilt, "solve_tilt", counted("solve_tilt", tilt.solve_tilt))
        monkeypatch.setattr(exceedance, "sum_density", counted("sum_density", exceedance.sum_density))
        monkeypatch.setattr(exceedance, "tilt_moments", node_moments)
        assert main(["exceed", "--n", "16", "--a", "fixed:2", "--out", str(tmp_path)]) == 0
        assert counts["solve_tilt"] <= 2
        assert counts["sum_density"] == 0
        # 32 window nodes, then the tail nodes, each once
        assert len(node_ts) == len(set(node_ts)) == 32 + exceedance._tail_rule()[0].size

    def test_tail_takes_no_panel_walk(self, weibull2, monkeypatch):
        # the exceedance layer keeps only quad's logsumexp; tilt_moments keeps its own rule
        monkeypatch.setattr(exceedance, "quad", types.SimpleNamespace(_logsumexp=quad._logsumexp))
        lp1, lp2 = window_tail_masses(weibull2, 16, 2.0)
        assert lp2 < lp1


# Weibull k = 1.5 at a = 1.2 was left out while tilt_moments walked
# Gauss-Legendre panels, which lost about 1e-6 of log Phi on its y^(1/2)
# endpoint; the double-exponential rule takes that endpoint.  At n = 2 there
# the 24-node Laguerre rule itself is off by 2.7e-8 in P2/P1 (0.0896; the
# rule over t agrees with an adaptive scipy quadrature to 5e-16), so that
# one case stays out
_TAIL_CASES = [
    (model, a, n)
    for model, levels in [
        ("weibull:k=1.5", (1.2, 3.0)),
        ("weibull:k=2", (1.2, 3.0)),
        ("weibull:k=4", (1.2, 3.0)),
        ("half_gaussian", (1.2, 3.0)),
        ("exp_exponential", (2.0, 4.0)),
    ]
    for a in levels
    for n in (2, 4, 8, 64)
    if (model, a, n) != ("weibull:k=1.5", 1.2, 2)
]


@pytest.mark.parametrize("spec, a, n", _TAIL_CASES)
def test_laguerre_tail_matches_panel_walk(spec, a, n):
    # the hardest cases are n = 2 at a = 1.2, where P2/P1 is about 0.16 and
    # the 24-node rule is within 5e-11; 20 nodes would be off by up to 1e-9
    model = model_from_spec(spec)
    lp1, lp2 = window_tail_masses(model, n, a)
    assert math.exp(lp2 - lp1) == pytest.approx(math.exp(_panel_tail_mass(model, n, a) - lp1), rel=1e-10)
