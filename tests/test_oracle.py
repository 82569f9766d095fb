"""Convolution grids, exact conditional laws, Monte Carlo conditioning."""

import copy
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad
from scipy.signal import fftconvolve
from scipy.special import erf
from scipy.stats import norm

from extreme_gibbs.errors import DomainError, NumericError, RangeError, ResourceError
from extreme_gibbs.oracle import (
    ConditionalOracle,
    ConvolutionTable,
    GridDensity,
    discretize,
    get_oracle,
    ks_statistic,
    mc_conditional_sample,
    tv_distance,
    tv_from_values,
    tv_histogram,
)
from extreme_gibbs.model import make_weibull, model_from_spec
from extreme_gibbs.tilt import solve_tilt, tilted_density


class TestDiscretize:
    def test_half_gaussian_clipping_is_tiny(self, half_gauss):
        grid = discretize(half_gauss, 0.0, 12.0, 1e-3)
        assert grid.clipped < 1e-20

    def test_unit_mass_after_renormalization(self, half_gauss):
        grid = discretize(half_gauss, 0.0, 12.0, 1e-3)
        assert grid.trapz_mass() == pytest.approx(1.0, rel=1e-12)

    def test_weibull_grid_mean_matches_quadrature(self, weibull2):
        grid = discretize(weibull2, 0.0, 8.0, 1e-3)
        val, _ = sp_quad(lambda x: x * weibull2.density(x), 0.0, 8.0, epsabs=1e-13)
        assert grid.mean() == pytest.approx(val, abs=1e-5)

    def test_tight_bounds_rejected(self, half_gauss):
        with pytest.raises(RangeError):
            discretize(half_gauss, 0.0, 1.0, 1e-3)

    def test_memory_guard(self, half_gauss):
        with pytest.raises(ResourceError):
            discretize(half_gauss, 0.0, 1e3, 1e-8)


class TestSelfConvolve:
    def test_identity(self, half_gauss):
        grid = discretize(half_gauss, 0.0, 12.0, 1e-3)
        assert ConvolutionTable(grid).power(1) is grid

    def test_two_fold_closed_form(self, half_gauss):
        # density of X1 + X2 is (2/sqrt(pi)) erf(s/2) exp(-s^2/4)
        grid = discretize(half_gauss, 0.0, 12.0, 1e-3)
        c2 = ConvolutionTable(grid).power(2)
        xs = np.arange(0.25, 10.0, 0.25)
        closed = (2.0 / math.sqrt(math.pi)) * erf(xs / 2.0) * np.exp(-(xs**2) / 4.0)
        assert float(np.max(np.abs(c2.interp(xs) - closed))) < 1e-6

    def test_moment_linearity(self, weibull2):
        grid = discretize(weibull2, 0.0, 9.0, 1e-3)
        for n in (6, 64):
            cn = ConvolutionTable(grid).power(n)
            assert cn.mean() == pytest.approx(n * grid.mean(), rel=1e-4)
            assert cn.var() == pytest.approx(n * grid.var(), rel=1e-4)

    def test_step_mismatch_rejected(self, half_gauss):
        a = discretize(half_gauss, 0.0, 12.0, 1e-3)
        b = discretize(half_gauss, 0.0, 12.0, 2e-3)
        from extreme_gibbs.oracle import _convolve_pair

        with pytest.raises(DomainError):
            _convolve_pair(a, b)


class TestExactConditional:
    def test_two_variable_direct_formula(self, weibull2):
        # n = 2: p(y | S2 = 2a) = p(y) p(2a - y) / f2(2a), no convolution chain
        a = 3.0
        f2, _ = sp_quad(
            lambda u: weibull2.density(u) * weibull2.density(2 * a - u), 0.0, 2 * a, epsabs=1e-14
        )
        for y in (2.0, 3.0, 3.7):
            direct = weibull2.density(y) * weibull2.density(2 * a - y) / f2
            got = get_oracle(weibull2, 2, a).conditional_curve(np.array([y]))[0]
            assert got == pytest.approx(direct, rel=1e-4)

    def test_exchangeability_symmetry(self, weibull2):
        orc = get_oracle(weibull2, 2, 3.0)
        for y in (2.2, 2.8, 3.4):
            got, mirror = orc.conditional_curve(np.array([y, 6.0 - y]))
            assert got == pytest.approx(mirror, rel=1e-6)

    def test_unit_mass(self, weibull2):
        orc = get_oracle(weibull2, 16, 3.0)
        ys = orc.default_ygrid()
        assert np.trapezoid(orc.conditional_curve(ys), ys) == pytest.approx(1.0, abs=1e-5)

    def test_against_monte_carlo(self, weibull2):
        # two independent oracles: window-accepted sampling vs grid evaluation
        orc = get_oracle(weibull2, 16, 3.0)
        eps = orc.tp.s / (2.0 * 4.0)
        mc = mc_conditional_sample(weibull2, 16, 3.0, eps, 1_000_000, seed=3)
        width = 0.2
        hist = np.mean(np.abs(mc.x1 - 3.0) <= width / 2) / width
        ys = np.linspace(3.0 - width / 2, 3.0 + width / 2, 41)
        bin_avg = np.trapezoid(orc.conditional_curve(ys), ys) / width
        assert hist == pytest.approx(bin_avg, rel=0.01)

    def test_far_argument_gives_zero(self, weibull2):
        orc = get_oracle(weibull2, 8, 3.0)
        assert orc.conditional_curve(np.array([23.9]))[0] == 0.0

    def test_joint2_marginalizes_to_k1(self, weibull2):
        orc = get_oracle(weibull2, 16, 3.0)
        s = orc.tp.s
        grid = np.arange(max(0.0, 3.0 - 9 * s), 3.0 + 9 * s, 5e-3)
        joint = orc.joint2_grid(grid, grid)
        marginal = np.trapezoid(joint, grid, axis=1)
        exact = orc.conditional_curve(grid)
        assert float(np.max(np.abs(marginal - exact))) < 1e-3


def _full_grid_pair(a, b):
    """Untrimmed convolution: every node of the full output grid, clipped at zero."""
    av, bv = a.values.copy(), b.values.copy()
    av[[0, -1]] *= 0.5
    bv[[0, -1]] *= 0.5
    vals = np.maximum(fftconvolve(av, bv) * a.step, 0.0)
    lo = a.lo + b.lo
    hi = lo + a.step * (len(vals) - 1)
    return GridDensity(lo, hi, a.step, vals, float(np.trapezoid(vals, dx=a.step))).normalized()


class _FullGridTable:
    """Convolution powers by the same binary splits, without the trim."""

    def __init__(self, base):
        self._powers = {1: base}

    def power(self, j):
        got = self._powers.get(j)
        if got is None:
            half = 1 << (j.bit_length() - 1)
            if half == j:
                got = _full_grid_pair(self.power(j // 2), self.power(j // 2))
            else:
                got = _full_grid_pair(self.power(half), self.power(j - half))
            self._powers[j] = got
        return got


def _assert_rel(got, want, tol):
    assert np.all(np.abs(got - want) <= tol * want), float(np.max(np.abs(got - want) / want))


class TestTrimmedPowers:
    @pytest.mark.parametrize(
        "spec, a, whole_tol",
        [
            ("weibull:k=2", 2.0, 1e-12),
            ("weibull:k=2", 3.0, 1e-12),
            ("half_gaussian", 3.0, 1e-10),
            ("exp_exponential", 4.0, 1e-10),
        ],
    )
    def test_trimmed_agree_with_full_grid_powers(self, spec, a, whole_tol):
        model = model_from_spec(spec)
        full = None
        for n in (8, 64, 256):
            orc = ConditionalOracle(model, n, a)
            if full is None:
                full = _FullGridTable(orc.table.power(1))
            ref = copy.copy(orc)
            ref.table = full
            ref._suffix_cache = {}
            ys = orc.default_ygrid()
            got, want = orc.conditional_curve(ys), ref.conditional_curve(ys)
            core = want >= 1e-6 * want.max()
            _assert_rel(got[core], want[core], 1e-12)
            _assert_rel(got, want, whole_tol)
            _assert_rel(orc.exceedance_curve(ys), ref.exceedance_curve(ys), 1e-10)
            assert abs(orc.log_tail() - ref.log_tail()) <= 1e-10

    def test_powers_stay_on_the_base_lattice(self, weibull2):
        table = ConditionalOracle(weibull2, 64, 3.0).table
        base = table.power(1)
        for j in (2, 63, 64):
            grid = table.power(j)
            offset = (grid.lo - j * base.lo) / base.step
            assert abs(offset - round(offset)) < 1e-6
            assert len(grid.values) < j * (len(base.values) - 1) + 1


class TestSharedTables:
    def test_levels_share_one_table_across_n(self, weibull2):
        assert get_oracle(weibull2, 32, 3.0).table is get_oracle(weibull2, 128, 3.0).table

    def test_live_oracle_keeps_its_table_past_other_levels(self):
        # seventeen other tables are built between two lookups at one level
        model = make_weibull(2.0)
        first = get_oracle(model, 16, 3.0)
        others = [ConditionalOracle(model, 8, 3.0 + 0.01 * i, step=0.02) for i in range(1, 18)]
        assert len({id(orc.table) for orc in others}) == 17
        assert get_oracle(model, 32, 3.0).table is first.table

    def test_threaded_build_matches_serial(self):
        # the powers are computed on first use, so each worker convolves;
        # more workers than cores and a short switch interval mix their steps
        def build(model, n):
            orc = ConditionalOracle(model, n, 3.0)
            return orc, orc.conditional_curve(orc.default_ygrid())

        ns = (32, 33, 128, 512)
        serial_model, threaded_model = make_weibull(2.0), make_weibull(2.0)
        serial = [build(serial_model, n) for n in ns]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda n: build(threaded_model, n), ns, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len({id(orc.table) for orc, _ in threaded}) == 1
        for (_, want), (_, got) in zip(serial, threaded):
            assert np.array_equal(got, want)

    def test_large_n_fits_the_memory_guard(self):
        orc = ConditionalOracle(make_weibull(2.0), 4096, 3.0)
        assert math.isfinite(orc.log_tail())


class TestExceedanceConditional:
    def test_unit_mass(self, weibull2):
        orc = get_oracle(weibull2, 16, 3.0)
        ys = orc.default_ygrid()
        assert np.trapezoid(orc.exceedance_curve(ys), ys) == pytest.approx(1.0, abs=1e-5)

    def test_far_argument_gives_zero(self, weibull2):
        assert get_oracle(weibull2, 8, 3.0).exceedance_curve(np.array([30.0]))[0] == 0.0

    def test_low_level_recovers_unconditional(self, weibull2):
        # conditioning on an almost-sure event changes nothing
        orc = ConditionalOracle(weibull2, 32, 0.45)
        for y in (0.5, 1.0, 2.0):
            assert orc.exceedance_curve(np.array([y]))[0] == pytest.approx(
                weibull2.density(y), rel=0.05
            )

    def test_tail_against_two_fold_closed_form(self, half_gauss):
        # P(S2 >= 2a) from the closed-form convolution density
        a = 3.0
        orc = ConditionalOracle(half_gauss, 2, a)
        closed, _ = sp_quad(
            lambda s: (2.0 / math.sqrt(math.pi)) * erf(s / 2.0) * math.exp(-(s**2) / 4.0),
            2 * a,
            40.0,
            epsabs=1e-16,
        )
        assert math.exp(orc.log_tail()) == pytest.approx(closed, rel=1e-4)


class TestMonteCarlo:
    def test_seeded_determinism(self, weibull2):
        mc1 = mc_conditional_sample(weibull2, 8, 3.0, 0.3, 20000, seed=42)
        mc2 = mc_conditional_sample(weibull2, 8, 3.0, 0.3, 20000, seed=42)
        assert np.array_equal(mc1.x1, mc2.x1)
        mc3 = mc_conditional_sample(weibull2, 8, 3.0, 0.3, 20000, seed=43)
        assert not np.array_equal(mc1.x1, mc3.x1)

    def test_accepted_mean_concentrates(self, weibull2):
        tp = solve_tilt(weibull2, 3.0)
        mc = mc_conditional_sample(weibull2, 32, 3.0, tp.s / (2 * math.sqrt(32)), 50000, seed=5)
        n_acc = len(mc.x1)
        assert abs(mc.x1.mean() - 3.0) <= 3.0 * tp.s / math.sqrt(n_acc)

    def test_tilted_proposal_beats_raw(self, weibull2):
        # at n = 16, a = 3 the raw-proposal acceptance is exponentially small
        eps = solve_tilt(weibull2, 3.0).s / 8.0
        tilted = mc_conditional_sample(weibull2, 16, 3.0, eps, 30000, seed=1)
        raw = mc_conditional_sample(weibull2, 16, 3.0, eps, 30000, seed=1, proposal="raw")
        assert tilted.acceptance_rate > 0.1
        assert raw.acceptance_rate == 0.0

    def test_unknown_proposal_rejected(self, weibull2):
        with pytest.raises(DomainError, match="proposal"):
            mc_conditional_sample(weibull2, 8, 3.0, 0.3, 1000, seed=1, proposal="tilded")

    def test_wide_window_recovers_tilted_density(self, weibull2):
        tp = solve_tilt(weibull2, 3.0)
        mc = mc_conditional_sample(weibull2, 8, 3.0, np.inf, 100_000, seed=9)
        assert mc.acceptance_rate == 1.0
        tv = tv_histogram(
            mc.x1, lambda y: tilted_density(weibull2, tp, y), max(0.0, 3 - 5 * tp.s), 3 + 5 * tp.s, 60
        )
        assert tv < 0.02

    def test_tiny_window_aborts_with_guidance(self, weibull2):
        with pytest.raises(NumericError, match="enlarge epsilon"):
            mc_conditional_sample(weibull2, 64, 3.0, 1e-9, 50000, seed=0)

    def test_memory_does_not_grow_with_proposals(self, weibull2):
        # only accepted draws are kept; a chunk of proposals is freed once
        # its accepted rows are copied out.  The bound is on the working
        # memory, the peak less the returned sample (1.2 MB at 400k
        # proposals): with 2^14-draw chunks the working memory is about
        # 1.7 MB, close to the sample's size, so a ratio of bare peaks would
        # mostly measure the sample (6.2 MB with 2^17-draw chunks)
        eps = solve_tilt(weibull2, 3.0).s / (2 * math.sqrt(32))
        working = []
        for n_draws in (200_000, 400_000):
            tracemalloc.start()
            try:
                x1 = mc_conditional_sample(weibull2, 32, 3.0, eps, n_draws, seed=4).x1
                working.append(tracemalloc.get_traced_memory()[1] - x1.nbytes)
            finally:
                tracemalloc.stop()
        assert working[1] <= 1.2 * working[0], working
        assert working[1] < 3e6, working


class TestDistances:
    def test_self_distance_is_zero(self, half_gauss):
        grid = discretize(half_gauss, 0.0, 12.0, 1e-3)
        assert tv_distance(grid.values, grid.values, grid.x()).tv == 0.0

    def test_disjoint_supports(self):
        xs = np.arange(0.0, 3.0 + 0.5e-3, 1e-3)
        res = tv_distance(np.where(xs < 1.0, 1.0, 0.0), np.where(xs >= 2.0, 1.0, 0.0), xs)
        assert res.tv == pytest.approx(1.0, abs=1e-3)

    def test_shifted_normals_closed_form(self):
        xs = np.arange(-8.0, 8.1 + 0.5e-3, 1e-3)
        res = tv_distance(norm.pdf(xs), norm.pdf(xs, loc=0.1), xs)
        assert res.tv == pytest.approx(2.0 * norm.cdf(0.05) - 1.0, abs=2e-4)

    @given(st.floats(min_value=0.05, max_value=2.0))
    def test_symmetry_and_range(self, shift):
        xs = np.arange(-10.0, 10.0 + shift + 0.5 * 0.01, 0.01)
        f, g = norm.pdf(xs), norm.pdf(xs, loc=shift)
        a = tv_distance(f, g, xs)
        b = tv_distance(g, f, xs)
        assert a.tv == pytest.approx(b.tv, abs=1e-12)
        assert 0.0 <= a.tv <= 1.0

    def test_tv_from_values_matches_grid_path(self):
        xs = np.arange(-8.0, 8.0, 1e-3)
        f, g = norm.pdf(xs), norm.pdf(xs, loc=0.1)
        assert tv_from_values(f, g, 1e-3) == pytest.approx(2.0 * norm.cdf(0.05) - 1.0, abs=2e-4)

    def test_ks_statistic_sanity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20000)
        assert ks_statistic(x, norm.cdf) < 0.02
        assert ks_statistic(x + 1.0, norm.cdf) > 0.3

    def test_values_off_the_grid_rejected(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            tv_distance(np.ones(11), np.ones(10), xs)


class TestGridDensityIO:
    def test_layout_invariant(self):
        with pytest.raises(DomainError):
            GridDensity(0.0, 1.0, 0.3, np.ones(5), 1.0)
