"""Conditional-law approximations: regimes, modulation, joints, f-means."""

import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given
from hypothesis import strategies as st

from extreme_gibbs import gibbs, quad, tilt
from extreme_gibbs import model as model_module
from extreme_gibbs.errors import DomainError, ExtremeGibbsError, RegimeWarning
from extreme_gibbs.gibbs import (
    classify_regime,
    f_tilted_approx,
    fast_growth_approx,
    fast_growth_params,
    identity,
    joint_fast_approx,
    joint_moderate_approx,
    log_fast_growth,
    tilted_approx,
    variance_power_fit,
    z_statistics,
)
from extreme_gibbs.gibbs import _fast_factor
from extreme_gibbs.model import DensityModel, make_exp_exponential, make_half_gaussian, make_weibull
from extreme_gibbs.oracle import get_oracle, tv_distance
from extreme_gibbs.quad import log_integral
from extreme_gibbs.tilt import solve_tilt, tilt_moments, tilted_density


class TestRegime:
    def test_moderate_example(self, weibull2):
        reg = classify_regime(weibull2, 10_000, 2.0)
        assert reg.kind == "moderate"
        assert reg.ratio == pytest.approx(0.03, abs=0.01)

    def test_power_law_levels_land_fast(self, weibull2):
        # variance roughly constant, so a_n ~ c n^(1/(1+rho)) with rho ~ 0
        rho = variance_power_fit(weibull2)
        assert abs(rho) < 0.05
        a_n = 0.5 * 32 ** (1.0 / (1.0 + rho))
        assert classify_regime(weibull2, 32, a_n).kind == "fast"

    def test_out_of_scope(self, weibull2):
        assert classify_regime(weibull2, 4, 60.0).kind == "out_of_scope"

    @given(st.floats(min_value=1.0, max_value=30.0), st.floats(min_value=0.1, max_value=5.0))
    def test_ratio_monotone_in_level(self, half_gauss, a, bump):
        n = 16
        assert (
            classify_regime(half_gauss, n, a + bump).ratio
            >= classify_regime(half_gauss, n, a).ratio
        )


class TestTiltedApprox:
    def test_outside_support_is_zero(self, weibull2):
        assert tilted_approx(weibull2, 64, 2.0, -1.0) == 0.0

    def test_peak_near_level(self, half_gauss):
        ys = np.linspace(0.0, 10.0, 2001)
        vals = tilted_approx(half_gauss, 64, 5.0, ys)
        assert abs(ys[np.argmax(vals)] - 5.0) < 0.5

    def test_warns_outside_moderate_regime(self, weibull2):
        with pytest.warns(RegimeWarning):
            tilted_approx(weibull2, 4, 8.0, 8.0)


class TestFastGrowth:
    def test_alpha_formula_and_zero_skew_case(self, weibull2):
        tp = solve_tilt(weibull2, 3.0)
        params = fast_growth_params(weibull2, 16, 3.0, tp=tp)
        assert params.alpha == tp.t + tp.mu3 / (2.0 * 15.0 * tp.s2)
        sym = replace(tp, mu3=0.0)
        params0 = fast_growth_params(weibull2, 16, 3.0, tp=sym)
        assert params0.alpha == sym.t

    def test_beta_is_rows_times_variance(self, weibull2):
        tp = tilt_moments(weibull2, 2.0)
        params = fast_growth_params(weibull2, 16, tp.a, tp=tp)
        assert params.beta == 15.0 * tp.s2

    def test_unit_mass(self, weibull2):
        params = fast_growth_params(weibull2, 16, 3.0)
        res = log_integral(
            lambda y: np.log(np.maximum(fast_growth_approx(params, weibull2, y), 1e-300)),
            center=3.0,
            scale=params.tp.s,
            lo=0.0,
        )
        assert math.exp(res.log_value) == pytest.approx(1.0, abs=1e-8)

    def test_moderate_consistency_with_tilted(self, weibull2):
        # at n = 64, a = 2 the modulated and plain tilted densities are close
        params = fast_growth_params(weibull2, 64, 2.0)
        ys = np.arange(0.0, 6.0 + 0.5e-3, 1e-3)
        res = tv_distance(fast_growth_approx(params, weibull2, ys), tilted_approx(weibull2, 64, 2.0, ys), ys)
        assert res.tv < 0.05

    def test_modulation_fades_as_n_grows(self, weibull2):
        # at fixed level the two approximations merge as the rows lengthen
        tp = solve_tilt(weibull2, 2.0)
        ys = np.arange(0.0, 6.0 + 0.5e-3, 1e-3)
        tvs = []
        for n in (8, 16, 32, 64):
            params = fast_growth_params(weibull2, n, 2.0, tp=tp)
            tvs.append(
                tv_distance(fast_growth_approx(params, weibull2, ys), tilted_approx(weibull2, n, 2.0, ys, tp=tp), ys).tv
            )
        assert all(b < a for a, b in zip(tvs, tvs[1:]))

    def test_fast_regime_beats_tilted(self, weibull2):
        rho = variance_power_fit(weibull2)
        a_n = 0.5 * 32 ** (1.0 / (1.0 + rho))
        orc = get_oracle(weibull2, 32, a_n)
        ys = orc.default_ygrid()
        params = fast_growth_params(weibull2, 32, a_n, tp=orc.tp)
        exact = orc.conditional_curve(ys)
        tv_mod = tv_distance(exact, fast_growth_approx(params, weibull2, ys), ys).tv
        tv_til = tv_distance(exact, tilted_approx(weibull2, 32, a_n, ys, tp=orc.tp), ys).tv
        assert tv_mod <= tv_til + 0.01


def _log_modulated_ref(model, mu, var, stat):
    """log of p(y) N(mu, var)(stat(y)), written out independently of gibbs."""

    def log_f(y):
        y = np.asarray(y, dtype=float)
        z = stat(y)
        log_normal = -0.5 * (math.log(2.0 * math.pi) + math.log(var)) - (z - mu) ** 2 / (2.0 * var)
        return model._log_density_clipped(y) + log_normal

    return log_f


def _mp_log_c(model, mu, beta, stat, y0):
    """-log of the integral of p(y) N(mu, beta)(stat(y)) over the support, by
    40-digit mpmath quadrature within 60 widths of the peak, which mpmath
    finds from y0; skips the test when mpmath is not installed."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if model.name.startswith("weibull"):
            k = mp.mpf(model.name[len("weibull(k=") : -1])
            g = lambda y: y**k - (k - 1) * mp.log(y)  # noqa: E731
        elif model.name == "exp_exponential":
            g = lambda y: mp.exp(y - 1)  # noqa: E731
        else:
            g = lambda y: y * y / 2  # noqa: E731
        log_w = lambda y: -g(y) - (stat(y) - mu) ** 2 / (2 * beta)  # noqa: E731
        yhat = mp.findroot(lambda y: mp.diff(log_w, y), mp.mpf(y0))
        w = 1 / mp.sqrt(-mp.diff(log_w, yhat, 2))
        pts = sorted({max(mp.mpf(0), yhat + c * w) for c in (-60, -10, 0, 10, 60)})
        z = mp.quad(lambda y: mp.exp(log_w(y) - log_w(yhat)) if y > 0 else mp.mpf(0), pts)
        return -float(log_w(yhat) + mp.log(z) + model.log_norm - mp.log(2 * mp.pi * beta) / 2)


# (model, fast-growth (n, a_n) levels, relative tolerance on logC against
# mpmath, floor of the unit-mass check); n = 2 and 4 (one and three rows) give
# the modulated integrand its narrowest width next to the tilt's nodes
_SADDLE_CASES = [
    (make_weibull(2.0), [(2, 3.0), (4, 3.0), (16, 3.0), (32, 16.0), (128, 30.0)], 1e-14, 1e-12),
    (make_weibull(4.0), [(2, 1.5), (4, 1.5), (16, 3.0), (128, 5.0), (1024, 9.0)], 1e-14, 1e-12),
    (make_exp_exponential(), [(2, 3.0), (4, 3.0), (16, 3.0), (128, 4.0), (1024, 6.0)], 1e-14, 1e-12),
    (make_half_gaussian(), [(2, 3.0), (4, 3.0), (16, 3.0), (32, 16.0), (128, 30.0)], 1e-14, 1e-12),
    # p(y) ~ y^0.5 at 0: the Gauss-Legendre panels needed 1e-9 and 1e-7 here; the
    # double-exponential rule takes the endpoint
    (make_weibull(1.5), [(2, 3.0), (4, 3.0), (16, 3.0), (32, 16.0), (128, 30.0)], 1e-14, 1e-12),
]


@pytest.mark.parametrize("model,levels,rel,floor", _SADDLE_CASES, ids=[c[0].name for c in _SADDLE_CASES])
class TestModulatedSaddle:
    """The modulated normalizer is a sum over the nodes of the tilt's own
    quadrature at tp.t, with no root-find and no quadrature of its own:
    against mpmath, as a unit mass, and in its cost per joint level."""

    def test_no_peak_search_with_a_given_tilt(self, model, levels, rel, floor, monkeypatch):
        tps = [(n, a, solve_tilt(model, a)) for n, a in levels]
        calls = []
        real = quad._locate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quad, "_locate", counting)
        for n, a, tp in tps:
            fast_growth_params(model, n, a, tp=tp)
        assert calls == []

    def test_log_c_matches_peak_search_reference(self, model, levels, rel, floor):
        for n, a in levels:
            tp = solve_tilt(model, a)
            assert classify_regime(model, n, a).kind == "fast"
            fp = fast_growth_params(model, n, a, tp=tp)
            ref = _mp_log_c(model, fp.alpha * fp.beta + a, fp.beta, lambda y: y, a)
            assert abs(fp.logC - ref) <= rel * abs(ref), (n, a, fp.logC, ref)

    def test_unit_mass(self, model, levels, rel, floor):
        for n, a in levels:
            fp = fast_growth_params(model, n, a)
            res = log_integral(
                lambda y: log_fast_growth(fp, model, y), center=a, scale=fp.tp.s, lo=model.support_lo
            )
            # the exponent is formed in absolute terms, so it carries a rounding of a few eps * |logC|
            assert abs(res.log_value) <= floor + 4.0 * np.finfo(float).eps * abs(fp.logC), (n, a)

    def test_a_new_joint_level_costs_only_its_solve(self, model, levels, rel, floor, monkeypatch):
        # the normalizer adds no quadrature and no root-find to the solve,
        # whose first evaluation is centred at the level, without psi
        counts = _spy_costs(monkeypatch)
        n, a = levels[-1]
        level = a * (1.0 + 1e-3)  # a level no other test has solved
        tilt._solve(model, level)
        solve = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        _fast_factor.cache_clear()
        _fast_factor(model, n - 1, level, a)
        assert counts == solve
        assert counts["log_integral"] == counts["_mgf_quad"] and counts["_locate"] == 0
        assert counts["psi"] == counts["_mgf_quad"] - 1
        assert counts["_invert_slope"] == (0 if model.psi_closed is not None else counts["psi"])


def _spy_costs(monkeypatch) -> dict:
    """Calls of the tilt's evaluation, the quadrature, the locator, psi and
    the slope inversion, counted from here on."""
    counts = {}

    def spy(owner, name):
        real, counts[name] = getattr(owner, name), 0

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in [(tilt, "_mgf_quad"), (quad, "log_integral"), (quad, "_locate"), (DensityModel, "psi")]:
        spy(owner, name)
    spy(model_module, "_invert_slope")
    return counts


def test_a_joint_level_takes_two_evaluations_and_one_psi(weibull2, monkeypatch):
    # the second factor of joint_fast_approx(weibull2, 32, 16, [y1, y2]):
    # one root-find (psi at the second evaluation) and two quadratures, where
    # the normalizer's own saddle root-find and quadrature made three of each
    assert not hasattr(gibbs, "_invert_slope")
    counts = _spy_costs(monkeypatch)
    _fast_factor.cache_clear()
    _fast_factor(weibull2, 31, (32 * 16.0 - 16.5) / 31, 16.0)
    assert counts == {"_mgf_quad": 2, "log_integral": 2, "_locate": 0, "psi": 1, "_invert_slope": 1}


_PARITY_MODELS = [make_weibull(1.5), make_weibull(2.0), make_weibull(4.0), make_exp_exponential(), make_half_gaussian()]


@pytest.mark.parametrize("model", _PARITY_MODELS, ids=[m.name for m in _PARITY_MODELS])
def test_normalizer_on_the_tilt_nodes_matches_its_own_quadrature(model, saddle_normalizer):
    # logC of fast_growth_params and of a joint factor against the root-found
    # quadrature of p(y) N(mu, beta)(y) that the tilt's nodes replaced; a
    # level that fails must fail with the same error type
    def outcomes():
        out = {}
        for n in (2, 4, 16, 128, 1024):
            for a in (1.5, 3.0, 16.0, 30.0):
                for name, call in (("params", fast_growth_params), ("factor", lambda m, n, a: _fast_factor(m, n - 1, a, a))):
                    try:
                        out[n, a, name] = call(model, n, a).logC
                    except ExtremeGibbsError as err:
                        out[n, a, name] = type(err)
        return out

    after = outcomes()
    with saddle_normalizer():
        before = outcomes()
    for key, old in before.items():
        new = after[key]
        if isinstance(old, type) or isinstance(new, type):
            assert new is old, (key, old, new)
        else:
            assert abs(new - old) <= 1e-14 * abs(old), (key, old, new)


class TestJointBlocks:
    def test_block_length_guard(self, weibull2):
        with pytest.raises(DomainError):
            joint_moderate_approx(weibull2, 8, 3.0, [3.0, 3.0, 3.0])

    def test_common_tilt_k1_equals_marginal(self, weibull2):
        tp = solve_tilt(weibull2, 3.0)
        val = joint_moderate_approx(weibull2, 16, 3.0, [2.7], mode="common_tilt")
        assert val == pytest.approx(float(tilted_density(weibull2, tp, 2.7)), rel=1e-12)

    def test_equal_coordinates_collapse_the_modes(self, weibull2):
        # when every y equals a_n each running level stays at a_n
        ys = [3.0, 3.0, 3.0]
        common = joint_moderate_approx(weibull2, 16, 3.0, ys, mode="common_tilt")
        per_index = joint_moderate_approx(weibull2, 16, 3.0, ys, mode="per_index_tilt")
        assert per_index == pytest.approx(common, rel=1e-9)

    def test_per_index_levels(self, weibull2):
        # n = 8, a = 3, ys = (2, 3): levels are 22/7 then 19/6
        val = joint_moderate_approx(weibull2, 8, 3.0, [2.0, 3.0], mode="per_index_tilt")
        tp1 = solve_tilt(weibull2, 22.0 / 7.0)
        tp2 = solve_tilt(weibull2, 19.0 / 6.0)
        expect = float(tilted_density(weibull2, tp1, 2.0)) * float(
            tilted_density(weibull2, tp2, 3.0)
        )
        assert val == pytest.approx(expect, rel=1e-10)

    def test_fast_k1_reduces_to_marginal(self, weibull2):
        # the k = 1 factor uses n rows, which is the marginal at row size n+1
        n, a = 16, 3.0
        joint = joint_fast_approx(weibull2, n, a, [2.8])
        params = fast_growth_params(weibull2, n + 1, a)
        marginal = fast_growth_approx(params, weibull2, 2.8)
        assert joint == pytest.approx(marginal, rel=1e-12)

    def test_fast_factors_are_normalized(self, weibull2):
        from extreme_gibbs.gibbs import _fast_factor

        fp = _fast_factor(weibull2, 15, 3.0, 3.0)
        res = log_integral(
            lambda y: np.log(np.maximum(fast_growth_approx(fp, weibull2, y), 1e-300)),
            center=3.0,
            scale=fp.tp.s,
            lo=0.0,
        )
        assert math.exp(res.log_value) == pytest.approx(1.0, abs=1e-8)

    def test_joint_tv_decreases_with_n(self, weibull2):
        tvs = []
        for n in (8, 16):
            orc = get_oracle(weibull2, n, 3.0)
            s = orc.tp.s
            grid = np.arange(max(0.0, 3.0 - 8 * s), 3.0 + 8 * s, 0.02)
            exact = orc.joint2_grid(grid, grid)
            marg = tilted_approx(weibull2, n, 3.0, grid, tp=orc.tp)
            prod = np.outer(marg, marg)
            from extreme_gibbs.oracle import tv_from_values

            tvs.append(tv_from_values(exact.ravel(), prod.ravel(), 0.02**2))
        assert tvs[1] < tvs[0]

    def test_fast_joint_beats_common_tilt_in_fast_regime(self, weibull2):
        # k = 2 at a fast-growth level: the coupled modulated product tracks
        # the exact joint at least as well as the independence product
        from extreme_gibbs.gibbs import _fast_factor
        from extreme_gibbs.oracle import tv_from_values
        from extreme_gibbs.tilt import log_tilted_density

        n, a_n = 32, 16.0
        orc = get_oracle(weibull2, n, a_n)
        s = orc.tp.s
        step = 0.02
        grid = np.arange(a_n - 7 * s, a_n + 7 * s, step)
        exact = orc.joint2_grid(grid, grid)

        fp1 = _fast_factor(weibull2, n, a_n, a_n)
        log_g1 = np.log(np.maximum(fast_growth_approx(fp1, weibull2, grid), 1e-300))
        fast_prod = np.empty((len(grid), len(grid)))
        for i, y1 in enumerate(grid):
            m2 = (n * a_n - y1) / (n - 1)
            fp2 = _fast_factor(weibull2, n - 1, m2, a_n)
            fast_prod[i] = np.exp(log_g1[i] + np.log(np.maximum(fast_growth_approx(fp2, weibull2, grid), 1e-300)))

        tp = solve_tilt(weibull2, a_n)
        marg = np.exp(log_tilted_density(weibull2, tp, grid))
        common = np.outer(marg, marg)

        cell = step**2
        tv_fast = tv_from_values(exact.ravel(), fast_prod.ravel(), cell)
        tv_common = tv_from_values(exact.ravel(), common.ravel(), cell)
        assert tv_fast <= tv_common + 0.01

    def test_moderate_tv_decay_rapidly_varying_model(self, exp_exp):
        tvs = []
        for n in (8, 16, 32, 64):
            orc = get_oracle(exp_exp, n, 3.0)
            ys = orc.default_ygrid()
            tvs.append(tv_distance(orc.conditional_curve(ys), tilted_approx(exp_exp, n, 3.0, ys, tp=orc.tp), ys).tv)
        assert all(b < a for a, b in zip(tvs, tvs[1:]))


class TestFMean:
    def test_identity_is_bitwise_compatible(self, weibull2):
        ys = np.array([2.4, 3.0, 3.6])
        via_f = f_tilted_approx(weibull2, identity, 16, 3.0, ys)
        direct = tilted_approx(weibull2, 16, 3.0, ys)
        assert np.array_equal(via_f, direct)
        via_none = f_tilted_approx(weibull2, None, 16, 3.0, ys)
        assert np.array_equal(via_none, direct)

    def test_identity_fast_variant_delegates(self, weibull2):
        val = f_tilted_approx(weibull2, identity, 16, 3.0, 2.9, variant="gaussian_modulated")
        params = fast_growth_params(weibull2, 16, 3.0)
        assert val == fast_growth_approx(params, weibull2, 2.9)

    def test_square_statistic_closed_form(self, weibull2):
        # X^2 is standard exponential here, so the f-tilt at t has mean
        # m = 1/(1 - t), variance m^2, third moment 2 m^3 and Phi_f = m
        for a in (0.5, 1.5, 3.0, 10.0, 100.0):
            tp = solve_tilt(weibull2, a, f=lambda x: x * x)
            assert tp.t == pytest.approx(1.0 - 1.0 / a, rel=1e-10)
            assert tp.s2 == pytest.approx(a * a, rel=1e-9)
            assert tp.mu3 == pytest.approx(2.0 * a**3, rel=1e-8)
            assert tp.log_phi == pytest.approx(math.log(a), abs=1e-10)
            assert math.isnan(tp.psi_val) and math.isnan(tp.psi_d1) and math.isnan(tp.psi_d2)

    def test_zero_and_negative_targets(self, weibull2):
        # E log X = -gamma/2 here; an f-target can sit at 0 or below it
        for a in (0.0, -0.5):
            tp = solve_tilt(weibull2, a, f=np.log)
            assert abs(tp.a - a) <= 1e-11 * max(abs(a), 1.0)

    def test_square_statistic_concentrates_at_root(self, weibull2):
        a_n = 3.0
        s_f = solve_tilt(weibull2, a_n, f=lambda x: x * x).s
        xs = np.arange(0.0, 12.0, 1e-3)
        vals = f_tilted_approx(weibull2, lambda x: x * x, 32, a_n, xs)
        total = np.trapezoid(vals, xs)
        lo, hi = math.sqrt(a_n) - 3 * s_f, math.sqrt(a_n) + 3 * s_f
        sel = (xs >= lo) & (xs <= hi)
        assert np.trapezoid(vals[sel], xs[sel]) / total >= 0.95

    def test_unattainable_target_rejected(self, weibull2):
        # f >= 0 makes every pushforward mean positive
        with pytest.raises(DomainError):
            solve_tilt(weibull2, -1.0, f=lambda x: x * x)

    def test_unknown_variant_rejected(self, weibull2):
        for f in (None, identity, lambda x: x * x):
            with pytest.raises(DomainError):
                f_tilted_approx(weibull2, f, 16, 3.0, 2.9, variant="bogus")

    def test_square_statistic_modulated_keeps_the_peak_search(self, weibull2):
        # a statistic f other than the identity is centred by the locator; its normalizer matches mpmath
        sq = lambda x: x * x  # noqa: E731
        grid = np.linspace(1e-3, 200.0, 200_000)
        # at n = 32, a_n = 16 the normalizer peaks at y = 60 with sd 0.74
        for n, a_n in [(32, 3.0), (32, 16.0), (128, 5.0)]:
            tp = solve_tilt(weibull2, a_n, f=sq)
            alpha = tp.t + tp.mu3 / (2.0 * (n - 1) * tp.s2)
            beta = (n - 1) * tp.s2
            log_f = _log_modulated_ref(weibull2, alpha * beta + a_n, beta, sq)
            y0 = grid[np.argmax(log_f(grid))]
            log_c = _mp_log_c(weibull2, alpha * beta + a_n, beta, sq, y0)
            xs = np.linspace(0.0, 1.5 * y0, 61)
            got = f_tilted_approx(weibull2, sq, n, a_n, xs, variant="gaussian_modulated")
            # the exponent is formed in absolute terms: a few eps * |logC| of rounding
            np.testing.assert_allclose(got, np.exp(log_f(xs) + log_c), rtol=1e-14 * max(1.0, abs(log_c)), atol=0)

    def test_modulated_variant_is_normalized(self, weibull2):
        xs = np.arange(0.0, 12.0, 1e-3)
        vals = f_tilted_approx(
            weibull2, lambda x: x * x, 32, 3.0, xs, variant="gaussian_modulated"
        )
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)


class TestDiagnostics:
    def test_concentration_summary(self, weibull2):
        # X_1 concentrates at a_n with the tilted sd: 1/sqrt(h'(psi)) -> 1/sqrt(2)
        assert solve_tilt(weibull2, 1000.0).s == pytest.approx(math.sqrt(0.5), rel=1e-5)

    def test_concentration_summary_half_gaussian(self, half_gauss):
        assert solve_tilt(half_gauss, 10.0).s == pytest.approx(1.0, abs=1e-6)

    def test_z_statistics_vanish_on_flat_block(self, weibull2):
        zs = z_statistics(weibull2, 64, 3.0, np.full(8, 3.0))
        assert float(np.max(zs**2)) < 1.0 / math.sqrt(64)

    def test_z_statistics_detect_imbalance(self, weibull2):
        zs = z_statistics(weibull2, 64, 3.0, np.array([4.0, 2.0]))
        assert np.any(zs != 0.0)
