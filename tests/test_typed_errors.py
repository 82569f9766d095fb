"""Every public entry point that takes a count n, a level a or a tilt t, and
with them a block ys, a point y or a window eta, ends in a result or in an
``ExtremeGibbsError`` subclass, with no RuntimeWarning, whatever number or
array it is given; so do the oracles, the exceedance mixture and the
Monte Carlo sampler, and ``solve_tilt_many`` gives each level the result or
the error of ``solve_tilt``.  scipy is not used."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import extreme_gibbs as eg
from extreme_gibbs.cli import main
from extreme_gibbs.errors import ExtremeGibbsError, RegimeWarning

MODELS = [eg.make_weibull(2.0), eg.make_weibull(4.0), eg.make_half_gaussian(), eg.make_exp_exponential()]
_EDGES = [0.0, -0.0, -1.0, -2.5, 2.5, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]
reals = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True))
counts = st.one_of(st.sampled_from([0, -3, 1, 2.5, *_EDGES]), st.integers(-5, 10**6))

ENTRY_POINTS = {
    "tilt_moments": lambda model, n, v: eg.tilt_moments(model, v),
    "log_mgf": lambda model, n, v: eg.log_mgf(model, v),
    "solve_tilt": lambda model, n, v: eg.solve_tilt(model, v),
    "rate_function": lambda model, n, v: eg.rate_function(model, v),
    "fast_growth_params": eg.fast_growth_params,
    "classify_regime": eg.classify_regime,
    "tilted_approx": lambda model, n, v: eg.tilted_approx(model, n, v, np.array([0.0, 1.0, v])),
    "eta_window": eg.eta_window,
    "tail_probability": eg.tail_probability,
    "sum_density": eg.sum_density,
}


# blocks and points: empty, 2-D, and holding NaN, +-inf and +-1e300
_ODD_BLOCKS = [[], [[3.0, 3.0]], [[3.0], [3.0]], [math.nan], [math.inf, 3.0], [-math.inf], [1e300], [-1e300, 3.0]]
blocks = st.one_of(
    st.sampled_from(_ODD_BLOCKS),
    st.lists(reals, max_size=3),
    st.lists(st.lists(reals, min_size=2, max_size=2), min_size=1, max_size=2),
)
points = st.one_of(reals, blocks)
windows = st.one_of(st.none(), reals)

BLOCK_ENTRY_POINTS = {
    "joint_fast_approx": eg.joint_fast_approx,
    "joint_moderate_approx": eg.joint_moderate_approx,
    "joint_moderate_approx_per_index": lambda model, n, v, w: eg.joint_moderate_approx(model, n, v, w, mode="per_index_tilt"),
    "z_statistics": eg.z_statistics,
    "exceedance_approx": eg.exceedance_approx,
}
WINDOW_ENTRY_POINTS = {
    "exceedance_approx_eta": lambda model, n, v, w: eg.exceedance_approx(model, n, v, np.array([v, v + 0.1]), eta=w),
    "window_tail_masses": eg.window_tail_masses,
}


# the oracles' grids grow with n, so their counts stay small
oracle_counts = st.one_of(st.sampled_from([0, -3, 1, 2.5, *_EDGES]), st.integers(-5, 12))


def _oracle(model, n, v):
    return eg.ConditionalOracle(model, n, v, step=0.02)


ORACLE_ENTRY_POINTS = {
    "ConditionalOracle": lambda model, n, v, w: _oracle(model, n, v),
    "conditional_curve": lambda model, n, v, w: _oracle(model, n, v).conditional_curve(w),
    "joint2_grid": lambda model, n, v, w: _oracle(model, n, v).joint2_grid(w, w),
    "exceedance_curve": lambda model, n, v, w: _oracle(model, n, v).exceedance_curve(w),
}
MIXTURE_ENTRY_POINTS = {
    "ExceedanceMixture": lambda model, n, v, w: eg.ExceedanceMixture(model, n, v, eta=w),
    "ExceedanceMixture_modulated": lambda model, n, v, w: eg.ExceedanceMixture(model, n, v, "gaussian_modulated", w),
    # an epsilon in place of the window
    "mc_conditional_sample": lambda model, n, v, w: eg.mc_conditional_sample(model, n, v, 0.3 if w is None else w, 500, 7),
}


def _quietly(call, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", RegimeWarning)
        return call(*args, **kwargs)


def _returns_or_raises_a_typed_error(call, *args):
    try:
        _quietly(call, *args)
    except ExtremeGibbsError:
        pass


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=counts, v=reals)
def test_entry_point_returns_or_raises_a_typed_error(name, model, n, v):
    _returns_or_raises_a_typed_error(ENTRY_POINTS[name], model, n, v)


@pytest.mark.parametrize("name", sorted(BLOCK_ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=counts, v=reals, w=points)
def test_block_entry_point_returns_or_raises_a_typed_error(name, model, n, v, w):
    _returns_or_raises_a_typed_error(BLOCK_ENTRY_POINTS[name], model, n, v, w)


@pytest.mark.parametrize("name", sorted(WINDOW_ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=counts, v=reals, w=windows)
def test_window_entry_point_returns_or_raises_a_typed_error(name, model, n, v, w):
    _returns_or_raises_a_typed_error(WINDOW_ENTRY_POINTS[name], model, n, v, w)


@pytest.mark.parametrize("name", sorted(ORACLE_ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=oracle_counts, v=reals, w=points)
def test_oracle_returns_or_raises_a_typed_error(name, model, n, v, w):
    _returns_or_raises_a_typed_error(ORACLE_ENTRY_POINTS[name], model, n, v, w)


@pytest.mark.parametrize("name", sorted(MIXTURE_ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=oracle_counts, v=reals, w=windows)
def test_mixture_and_sampler_return_or_raise_a_typed_error(name, model, n, v, w):
    _returns_or_raises_a_typed_error(MIXTURE_ENTRY_POINTS[name], model, n, v, w)


_LEVEL_EDGES = [0.0, -0.0, -1.0, 1e-200, 1e300, -1e300, math.nan, math.inf, -math.inf, 0.5, 2.0, 40.0, 1e5]
# the levels also draw from ``reals``, the values every entry point above takes
levels = st.lists(st.one_of(st.sampled_from(_LEVEL_EDGES), reals), max_size=6)


@given(model=st.sampled_from(MODELS), levels=levels)
def test_solve_tilt_many_gives_each_level_what_solve_tilt_gives(model, levels):
    rows = _quietly(eg.solve_tilt_many, model, levels)
    assert len(rows) == len(levels)
    for a, row in zip(levels, rows):
        try:
            want = _quietly(eg.solve_tilt, model, a)
        except ExtremeGibbsError as err:
            assert type(row) is type(err) and str(row) == str(err)
            continue
        assert isinstance(row, eg.TiltParams)
        for field in ("t", "a", "s2", "log_phi"):
            assert getattr(row, field) == pytest.approx(getattr(want, field), rel=1e-14, abs=1e-300), field


def test_solve_tilt_many_of_no_levels_is_empty():
    assert eg.solve_tilt_many(eg.make_weibull(2.0), []) == []


def test_an_infinite_window_is_a_domain_error_that_names_it():
    # the end solve at a_n + eta raised "target mean inf outside the image of m"
    with pytest.raises(eg.DomainError, match="window width eta"):
        eg.ExceedanceMixture(eg.make_weibull(2.0), 16, 3.0, eta=math.inf)


def test_huge_half_gaussian_level_warns_nothing(tmp_path):
    # g(xhat) = xhat^2 / 2 overflowed with a RuntimeWarning before the typed error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(eg.NumericError):
            eg.tilt_moments(eg.make_half_gaussian(), 1e300)
        assert main(["tilt", "--model", "half_gaussian", "--a-grid", "1e299:1e300:2:log", "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    statuses = [row.split(",")[-1] for row in (tmp_path / "tilt.csv").read_text().splitlines()[2:]]
    assert len(statuses) == 2 and all(s.startswith("error") for s in statuses)


def test_a_coordinate_far_out_has_density_zero():
    # (y - mu)^2 overflowed in the modulated factor, and t y - g(y) was inf - inf in the tilted one
    weibull2 = eg.make_weibull(2.0)
    assert _quietly(eg.joint_fast_approx, weibull2, 16, 3.0, [1e300]) == 0.0
    assert _quietly(eg.joint_moderate_approx, weibull2, 16, 1e8, [1e300]) == 0.0
    assert _quietly(eg.exceedance_approx, weibull2, 16, 3.0, 1e300, variant="gaussian_modulated") == 0.0


@pytest.mark.parametrize("entry", [eg.joint_fast_approx, eg.joint_moderate_approx, eg.z_statistics])
def test_a_two_dimensional_block_is_a_domain_error(entry):
    with pytest.raises(eg.DomainError, match="one-dimensional"):
        entry(eg.make_weibull(2.0), 16, 3.0, [[3.0, 3.0]])


def test_exceedance_at_nan_is_nan():
    assert math.isnan(_quietly(eg.exceedance_approx, eg.make_weibull(2.0), 16, 3.0, math.nan))


@pytest.mark.parametrize("lo,hi,step", [(0.0, math.inf, 1e-3), (-math.inf, 5.0, 1e-3), (0.0, 5.0, math.inf), (0.0, 5.0, math.nan)])
def test_discretize_needs_a_finite_range_and_step(lo, hi, step):
    with pytest.raises(eg.DomainError, match="finite"):
        eg.discretize(eg.make_weibull(2.0), lo, hi, step)


@pytest.mark.parametrize("mode", ["common_tilt", "per_index_tilt"])
def test_a_joint_density_beyond_float_range_is_a_numeric_error(mode):
    # a normal of sd 1e-6 peaks at 4e5, so 64 coordinates at its mean make 1e358
    model = eg.model_from_spec("kind = custom\ng = 5e11*x**2\nsupport_lo = -inf\nvariation = regular:1")
    assert _quietly(eg.joint_moderate_approx, model, 256, 1e-3, [1e-3] * 50, mode=mode) > 1e280
    with pytest.raises(eg.NumericError, match="beyond float range"):
        _quietly(eg.joint_moderate_approx, model, 256, 1e-3, [1e-3] * 64, mode=mode)
