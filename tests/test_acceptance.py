"""Acceptance suite: one test per criterion, each printing a PASS line.

Property- and oracle-based at desk scale.  Every criterion carries its own
tolerance and a wall-clock budget; the budgets are generous on purpose, they
guard against algorithmic regressions rather than machine speed.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from extreme_gibbs.edgeworth import edgeworth_error_curve
from extreme_gibbs.exceedance import (
    ExceedanceMixture,
    tail_probability,
    window_tail_masses,
)
from extreme_gibbs.gibbs import (
    f_tilted_approx,
    fast_growth_approx,
    fast_growth_params,
    identity,
    tilted_approx,
    variance_power_fit,
)
from extreme_gibbs.oracle import (
    ConditionalOracle,
    ConvolutionTable,
    discretize,
    get_oracle,
    ks_statistic,
    mc_conditional_sample,
    tv_distance,
    tv_from_values,
    tv_histogram,
)
from extreme_gibbs.tilt import log_mgf, skewness_ratio, solve_tilt, tilt_moments


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {self.elapsed:.1f}s"
            )
        return False


def _report(name: str, budget: _Budget, detail: str) -> None:
    print(f"PASS {name} [{budget.elapsed:.1f}s] {detail}")


def test_criterion_01_solver_round_trip(weibull2, half_gauss, exp_exp):
    # the tilt integrates offsets from the saddle, so t*x no longer cancels:
    # exp_exponential reaches a = 300 (t = e^299) and Weibull k=2 a = 1e8
    with _Budget("criterion 1", 10.0) as budget:
        worst = 0.0
        for model, hi in ((weibull2, 1e8), (half_gauss, 1e3), (exp_exp, 300.0)):
            m0 = tilt_moments(model, 0.0).a
            for a in np.geomspace(2.0 * m0, hi, 20):
                tp = solve_tilt(model, float(a))
                worst = max(worst, abs(tp.a - a) / a)
        assert worst <= 1e-9
    _report("criterion 1 (solver round-trip)", budget, f"max rel err {worst:.2e}")


def test_criterion_02_half_gaussian_closed_forms(half_gauss):
    with _Budget("criterion 2", 5.0) as budget:
        cf = half_gauss.closed_forms
        worst = 0.0
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            worst = max(worst, abs(log_mgf(half_gauss, t) - cf.log_mgf(t)))
            tp = tilt_moments(half_gauss, t)
            worst = max(worst, abs(tp.a - cf.mean(t)), abs(tp.s2 - cf.variance(t)))
        assert worst <= 1e-8
    _report("criterion 2 (closed-form oracle)", budget, f"max abs err {worst:.2e}")


def test_criterion_03_asymptotic_moment_trend(weibull2, exp_exp):
    with _Budget("criterion 3", 30.0) as budget:
        final = {}
        for model in (weibull2, exp_exp):
            errs = {"m": [], "s2": [], "mu3": []}
            for t in (10.0, 1e2, 1e3):
                tp = tilt_moments(model, t)
                errs["m"].append(abs(tp.a / tp.psi_val - 1.0))
                errs["s2"].append(abs(tp.s2 / tp.psi_d1 - 1.0))
                errs["mu3"].append(abs(tp.mu3 / tp.psi_d2 - 1.0))
            for key, seq in errs.items():
                assert seq[0] > seq[1] > seq[2], f"{model.name} {key} not monotone"
                assert seq[2] <= 0.15, f"{model.name} {key} outside the band at t=1e3"
            final[model.name] = errs["m"][2]
        assert final
    _report("criterion 3 (moment equivalents)", budget, f"band errors at t=1e3: {final}")


def test_criterion_04_skewness_decays(weibull2, exp_exp):
    with _Budget("criterion 4", 30.0) as budget:
        for model in (weibull2, exp_exp):
            mags = [abs(skewness_ratio(model, t)) for t in (10.0, 1e2, 1e3)]
            assert mags[0] > mags[1] > mags[2], f"{model.name} skewness not decreasing"
    _report("criterion 4 (skewness decay)", budget, f"weibull chain {mags}")


def test_criterion_05_edgeworth_vs_convolution(weibull2):
    with _Budget("criterion 5", 120.0) as budget:
        curve = edgeworth_error_curve(weibull2, 10.0, [16, 64], step=1e-3)
        gaps = {n: (ge, gg) for n, ge, gg in curve}
        for n, (ge, gg) in gaps.items():
            assert ge <= 1.05 * gg, f"correction does not help at n={n}"
        assert gaps[64][0] < gaps[16][0]
    _report("criterion 5 (edgeworth)", budget, f"gaps {gaps}")


def test_criterion_06_moderate_gibbs_tv_decay(weibull2):
    with _Budget("criterion 6", 180.0) as budget:
        tvs = []
        for n in (8, 16, 32, 64):
            orc = get_oracle(weibull2, n, 3.0)
            ys = orc.default_ygrid()
            tvs.append(
                tv_distance(orc.conditional_curve(ys), tilted_approx(weibull2, n, 3.0, ys, tp=orc.tp), ys).tv
            )
        assert all(b < a for a, b in zip(tvs, tvs[1:])), f"TV not decreasing: {tvs}"
        assert tvs[-1] <= tvs[0] / 2.0
    _report("criterion 6 (moderate regime TV)", budget, f"TVs {['%.4f' % v for v in tvs]}")


def test_criterion_07_fast_regime(weibull2):
    with _Budget("criterion 7", 120.0) as budget:
        rho = variance_power_fit(weibull2)
        a_n = 0.5 * 32 ** (1.0 / (1.0 + rho))
        orc = get_oracle(weibull2, 32, a_n)
        ys = orc.default_ygrid()
        params = fast_growth_params(weibull2, 32, a_n, tp=orc.tp)
        exact = orc.conditional_curve(ys)
        tv_mod = tv_distance(exact, fast_growth_approx(params, weibull2, ys), ys).tv
        tv_til = tv_distance(exact, tilted_approx(weibull2, 32, a_n, ys, tp=orc.tp), ys).tv
        assert tv_mod <= tv_til + 0.01

        params64 = fast_growth_params(weibull2, 64, 2.0)
        xs = np.arange(0.0, 6.0 + 0.5e-3, 1e-3)
        consistency = tv_distance(
            fast_growth_approx(params64, weibull2, xs), tilted_approx(weibull2, 64, 2.0, xs), xs
        ).tv
        assert consistency < 0.05
    _report(
        "criterion 7 (fast regime)",
        budget,
        f"rho {rho:.3f}, TV(g) {tv_mod:.4f} vs TV(pi) {tv_til:.4f}, consistency {consistency:.4f}",
    )


def test_criterion_08_joint_independence_trend(weibull2):
    with _Budget("criterion 8", 180.0) as budget:
        tvs = []
        for n in (8, 16, 32):
            orc = get_oracle(weibull2, n, 3.0)
            s = orc.tp.s
            grid = np.arange(max(0.0, 3.0 - 8 * s), 3.0 + 8 * s, 0.02)
            exact = orc.joint2_grid(grid, grid)
            marg = tilted_approx(weibull2, n, 3.0, grid, tp=orc.tp)
            prod = np.outer(marg, marg)
            tvs.append(tv_from_values(exact.ravel(), prod.ravel(), 0.02**2))
        assert all(b < a for a, b in zip(tvs, tvs[1:])), f"joint TV not decreasing: {tvs}"
    _report("criterion 8 (k=2 independence)", budget, f"TVs {['%.4f' % v for v in tvs]}")


def test_criterion_09_tail_formula(weibull2):
    with _Budget("criterion 9", 120.0) as budget:
        ratios = []
        for n in (16, 32, 64):
            orc = get_oracle(weibull2, n, 2.0)
            ratios.append(math.exp(tail_probability(weibull2, n, 2.0) - orc.log_tail()))
        assert 0.7 <= ratios[-1] <= 1.4
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2], f"tail ratio not tightening: {ratios}"
    _report("criterion 9 (tail formula)", budget, f"ratios {['%.4f' % r for r in ratios]}")


def test_criterion_10_exceedance_mixture(weibull2):
    with _Budget("criterion 10", 120.0) as budget:
        tvs = []
        for n in (8, 16, 32):
            orc = get_oracle(weibull2, n, 2.0)
            mix = ExceedanceMixture(weibull2, n, 2.0)
            ys = orc.default_ygrid()
            tvs.append(tv_distance(orc.exceedance_curve(ys), mix.density(ys), ys).tv)
        assert all(b < a for a, b in zip(tvs, tvs[1:])), f"exceedance TV not decreasing: {tvs}"
        lp1, lp2 = window_tail_masses(weibull2, 64, 2.0)
        mass_ratio = math.exp(lp2 - lp1)
        assert mass_ratio < 0.01
    _report(
        "criterion 10 (exceedance)",
        budget,
        f"TVs {['%.4f' % v for v in tvs]}, window spill {mass_ratio:.2e}",
    )


def test_criterion_11_concentration(weibull2):
    with _Budget("criterion 11", 60.0) as budget:
        tp = solve_tilt(weibull2, 3.0)
        eps = tp.s / (2.0 * math.sqrt(64))
        mc = mc_conditional_sample(weibull2, 64, 3.0, eps, 40_000, seed=7)
        assert len(mc.x1) >= 10_000
        ks = ks_statistic((mc.x1 - 3.0) / tp.s, norm.cdf)
        assert ks < 0.05
    _report("criterion 11 (concentration)", budget, f"KS {ks:.4f} on {len(mc.x1)} draws")


def test_criterion_12_cross_oracle_agreement(weibull2):
    with _Budget("criterion 12", 60.0) as budget:
        orc = get_oracle(weibull2, 32, 3.0)
        eps = orc.tp.s / (2.0 * math.sqrt(32))
        mc = mc_conditional_sample(weibull2, 32, 3.0, eps, 100_000, seed=11)
        s = orc.tp.s
        tv = tv_histogram(
            mc.x1, lambda y: orc.conditional_curve(y), max(0.0, 3.0 - 5 * s), 3.0 + 5 * s, 50
        )
        assert tv < 0.05
    _report("criterion 12 (cross-oracle)", budget, f"TV {tv:.4f}")


def test_criterion_13_general_mean_statistic(weibull2):
    with _Budget("criterion 13", 60.0) as budget:
        # identity statistic must reduce to the plain tilted path bit for bit
        for n in (8, 16, 32, 64):
            ys = get_oracle(weibull2, n, 3.0).default_ygrid()
            assert np.array_equal(
                f_tilted_approx(weibull2, identity, n, 3.0, ys),
                tilted_approx(weibull2, n, 3.0, ys),
            )

        a_n = 3.0
        square = lambda x: x * x
        tp_f = solve_tilt(weibull2, a_n, f=square)
        s_f = tp_f.s
        xs = np.arange(0.0, 12.0, 1e-3)
        vals = f_tilted_approx(weibull2, square, 32, a_n, xs)
        total = np.trapezoid(vals, xs)
        lo, hi = math.sqrt(a_n) - 3 * s_f, math.sqrt(a_n) + 3 * s_f
        sel = (xs >= max(lo, 0.0)) & (xs <= hi)
        mass = np.trapezoid(vals[sel], xs[sel]) / total
        assert mass >= 0.95

        # oracle for the squared statistic: X^2 is standard exponential, so
        # condition exponential sums on the y-grid and map back to x
        lam = tp_f.t
        y_lo = max(0.0, a_n - 14.0 * s_f)
        y_hi = a_n + 14.0 * s_f

        def tilted_push(y):
            arr = np.asarray(y, dtype=float)
            with np.errstate(over="ignore"):
                return np.exp(lam * arr - arr - tp_f.log_phi)

        table = ConvolutionTable(discretize(tilted_push, y_lo, y_hi, 1e-3))
        f31 = table.power(31)
        f32 = table.power(32)
        target = 32 * a_n

        def exact_x_conditional(x):
            arr = np.asarray(x, dtype=float)
            logs = lam * arr**2 + weibull2._log_density_clipped(arr) - tp_f.log_phi
            rest = np.maximum(f31.interp(target - arr**2), 0.0)
            full = f32.interp(np.asarray([target]))[0]
            return np.exp(logs) * rest / full

        xs = np.arange(0.0, 8.0 + 0.5e-3, 1e-3)
        res = tv_distance(exact_x_conditional(xs), f_tilted_approx(weibull2, square, 32, a_n, xs), xs)
        assert res.tv < 0.1
    _report(
        "criterion 13 (general mean statistic)",
        budget,
        f"band mass {mass:.4f}, TV vs pushforward oracle {res.tv:.4f}",
    )
