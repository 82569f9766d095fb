"""``solve_tilt_many`` against the scalar solver it batches.

The batch runs the saddle quadrature of ``tilt_moments`` and the Newton steps
of ``solve_tilt`` over many levels at once; a level it cannot finish by the
scalar path's own steps and checks goes to ``solve_tilt``.  Held here: the
built-ins on the benchmark's ``tilt`` grids to 1e-14 relative (the batch sums
masked columns, so only the pairwise-sum grouping differs), the scalar errors
unchanged, bitwise scalar results where the batch does not apply, and the
``tilt`` command's rows.  scipy is not used.
"""

import dataclasses
import math

import numpy as np
import pytest

from extreme_gibbs import (
    ExtremeGibbsError,
    TiltParams,
    make_exp_exponential,
    make_half_gaussian,
    make_weibull,
    model_from_spec,
    solve_tilt,
    solve_tilt_many,
    tilt_moments,
)
from extreme_gibbs.cli import cmd_tilt
from extreme_gibbs.config import AGrid, ExperimentConfig
from extreme_gibbs.tilt import _moments_many

# the level grids of the tilt sweep, by model spec
GRIDS = {
    "weibull:k=2": AGrid(2.0, 1e6, 200, "log"),
    "weibull:k=4": AGrid(2.0, 1e6, 100, "log"),
    "exp_exponential": AGrid(2.0, 60.0, 100, "lin"),
    "half_gaussian": AGrid(1.0, 1e4, 100, "log"),
}
MODELS = {
    "weibull:k=2": make_weibull(2.0),
    "weibull:k=4": make_weibull(4.0),
    "exp_exponential": make_exp_exponential(),
    "half_gaussian": make_half_gaussian(),
}
RTOL = 1e-14
FIELDS = ("t", "a", "s2", "psi_val", "psi_d1", "log_phi")


def _scalar(model, a):
    try:
        return solve_tilt(model, a)
    except ExtremeGibbsError as err:
        return err


def _bits(tp):
    return [v.hex() for v in dataclasses.astuple(tp)]


def _assert_close(got, want):
    """A batch row against the scalar one: the same error, or the fields within RTOL."""
    if isinstance(want, ExtremeGibbsError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, TiltParams)
    for field in FIELDS:
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=RTOL, abs=0.0), field
    assert abs(got.mu3 - want.mu3) <= RTOL * want.s2**1.5


@pytest.mark.parametrize("spec", sorted(GRIDS))
def test_batch_matches_scalar_on_the_sweep_grids(spec):
    model, levels = MODELS[spec], GRIDS[spec].values()
    rows = solve_tilt_many(model, levels)
    assert len(rows) == levels.size
    for a, got in zip(levels.tolist(), rows):
        _assert_close(got, _scalar(model, a))


@pytest.mark.parametrize("spec", sorted(MODELS))
def test_levels_the_scalar_solver_refuses_give_its_errors(spec):
    model = MODELS[spec]
    levels = [1e-200, model.support_lo, model.support_lo - 1.0, math.nan, math.inf, -math.inf, 3.0]
    rows = solve_tilt_many(model, levels)
    for a, got in zip(levels, rows):
        want = _scalar(model, a)
        _assert_close(got, want)
    assert sum(isinstance(row, ExtremeGibbsError) for row in rows) >= 5


def test_whole_line_support_is_bitwise_the_scalar_solver():
    # support_lo = -inf leaves the batch: every level is solved by solve_tilt itself
    model = model_from_spec("kind = custom\ng = 0.5*x**2\nsupport_lo = -inf\nvariation = regular:1")
    levels = [-3.0, -0.5, 0.0, 0.7, 2.0, 10.0, math.nan]
    for a, got in zip(levels, solve_tilt_many(model, levels)):
        want = _scalar(model, a)
        if isinstance(want, ExtremeGibbsError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("spec", sorted(MODELS))
def test_a_lone_level_is_bitwise_the_scalar_solver(spec):
    # a batch of one costs more than the scalar path, so one level takes solve_tilt
    model = MODELS[spec]
    assert [_bits(tp) for tp in solve_tilt_many(model, [31.7])] == [_bits(solve_tilt(model, 31.7))]


def test_a_model_function_that_takes_only_scalars_leaves_the_batch():
    # a conditional expression takes one level, not a row of them: solve_tilt takes every level
    model = model_from_spec("kind = custom\ng = x**2\nh = 2*x if x > 0 else 0*x\nsupport_lo = 0\nvariation = regular:1")
    levels = [0.5, 3.0, 40.0]
    assert [_bits(tp) for tp in solve_tilt_many(model, levels)] == [_bits(solve_tilt(model, a)) for a in levels]


def test_tilts_outside_the_batch_get_the_scalar_moments():
    # the exceedance nodes of a whole-line model: each tilt goes to tilt_moments as it is
    model = model_from_spec("kind = custom\ng = 0.5*x**2\nsupport_lo = -inf\nvariation = regular:1")
    ts = [-1.0, 0.5, 2.0]
    assert [_bits(tp) for tp in _moments_many(model, ts)] == [_bits(tilt_moments(model, t)) for t in ts]


def test_custom_model_on_a_half_line_matches_scalar():
    # no closed-form psi: the batch inverts the slope by its masked Newton
    model = model_from_spec("kind = custom\ng = x**3 - log(x)\nsupport_lo = 0\nvariation = regular:2")
    levels = np.geomspace(1.0, 1e3, 12)
    for a, got in zip(levels.tolist(), solve_tilt_many(model, levels)):
        _assert_close(got, _scalar(model, a))


def test_more_levels_than_one_batch_keep_their_order():
    model = MODELS["weibull:k=2"]
    levels = np.geomspace(2.0, 1e4, 300)[::-1]
    rows = solve_tilt_many(model, levels)
    assert [row.a for row in rows] == pytest.approx(levels.tolist(), rel=1e-12)


@pytest.mark.parametrize(
    "spec, grid",
    # the sweep grids, and error rows: h(800) overflows for exp_exponential, the rule fails at 1e80
    [
        *sorted(GRIDS.items()),
        ("exp_exponential", AGrid(2.0, 800.0, 3, "log")),
        ("weibull:k=4", AGrid(1e60, 1e80, 3, "log")),
    ],
)
def test_tilt_command_rows_match_the_scalar_rows(spec, grid, tmp_path):
    model = MODELS[spec]
    rows = cmd_tilt(ExperimentConfig(model=spec, a_grid=grid, out=str(tmp_path)))
    for row, a in zip(rows, grid.values().tolist()):
        assert row[0] == a
        want = _scalar(model, a)
        try:
            if isinstance(want, ExtremeGibbsError):
                raise want
            skew = want.skew
        except ExtremeGibbsError as err:
            assert all(math.isnan(v) for v in row[1:9])
            assert row[-1] == "error: " + str(err).replace(",", ";").replace("\n", " ")
            continue
        assert row[-1] == "ok"
        t, m, s2, mu3, skew_ratio, psi, psi_d1, v = row[1:9]
        expected = (want.t, want.a, want.s2, want.psi_val, want.psi_d1, want.s2)
        assert [t, m, s2, psi, psi_d1, v] == pytest.approx(expected, rel=RTOL, abs=0.0)
        assert abs(mu3 - want.mu3) <= RTOL * want.s2**1.5
        assert abs(skew_ratio - skew) <= RTOL * (1.0 + 2.0 * abs(skew))
