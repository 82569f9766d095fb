"""The exact k = 2 joint grid and its scoring.

``ConditionalOracle.joint2_grid`` fills uniform grids of one step from the
2G - 1 anti-diagonal sums (a Hankel matrix) and every other grid from the
outer sum of all G^2 points; the outer sum is the reference here, forced by
making ``oracle._antidiagonal_sums`` find no shared step.  ``_joint_tv``
scores the grid against the product of the marginals in row blocks.
Convolution squarings take one transform, bitwise equal to two, and a
power keeps the run between its first and last node above the round-off
floor, and transform lengths from the bounded 2^i 3^j 5^k search are those
of the unbounded one.  scipy is not used.
"""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from extreme_gibbs import cli, oracle, tilt
from extreme_gibbs.config import ApproxReport, ARule, ExperimentConfig
from extreme_gibbs.errors import ExtremeGibbsError, NumericError
from extreme_gibbs.model import make_exp_exponential, make_half_gaussian, make_weibull

MODELS = [make_weibull(2.0), make_half_gaussian(), make_exp_exponential()]


def _grid(model, orc, a_n, step=0.01):
    """The grid ``cmd_gibbs`` scores the joint on."""
    s = orc.tp.s
    return np.arange(max(model.support_lo, a_n - 8 * s), a_n + 8 * s, step)


@pytest.fixture
def outer_sum(monkeypatch):
    """Call ``fn(*args)`` with every grid taking the outer-sum form."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_antidiagonal_sums", lambda y1, y2: None)
            return fn(*args)

    return call


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("model", MODELS, ids=[m.name for m in MODELS])
def test_hankel_form_matches_outer_sum(model, n, outer_sum):
    orc = oracle.ConditionalOracle(model, n, 3.0)
    grid = _grid(model, orc, 3.0)
    # the same grid twice (as cmd_gibbs passes it), and a shorter grid of the same step
    for y1, y2 in ((grid, grid), (grid[7:], grid[:-11])):
        assert oracle._antidiagonal_sums(y1, y2) is not None
        now, ref = orc.joint2_grid(y1, y2), outer_sum(orc.joint2_grid, y1, y2)
        assert now.shape == ref.shape == (len(y1), len(y2))
        np.testing.assert_array_equal(now == 0.0, ref == 0.0)
        big = ref >= 1e-6 * ref.max()
        np.testing.assert_allclose(now[big], ref[big], rtol=1e-13, atol=0.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExtremeGibbsError as err:
        return type(err), str(err)


_GRID = 3.0 + 0.01 * np.arange(-40, 41)
_OTHER_GRIDS = {
    "different steps": (_GRID, _GRID[::2]),
    "non-uniform": (_GRID, np.concatenate((_GRID[:40], _GRID[40:] + 1e-9))),
    "geometric": (np.geomspace(2.0, 4.0, 50), np.geomspace(2.0, 4.0, 50)),
    "empty": (np.array([]), _GRID),
    "both empty": (np.array([]), np.array([])),
    "one node": (np.array([3.0]), _GRID),
    "nan": (np.array([math.nan, 3.0]), np.array([math.nan, 3.0])),
    "nan inside": (np.concatenate((_GRID[:5], [math.nan], _GRID[6:])), _GRID),
    "inf": (np.array([math.inf, 3.0]), _GRID),
    "-inf": (np.array([-math.inf]), np.array([-math.inf, 3.0])),
    "overflowing span": (np.array([-1e308, 1e308]), np.array([-1e308, 1e308])),
}


@pytest.mark.parametrize("name", sorted(_OTHER_GRIDS))
def test_other_grids_take_the_outer_sum_bitwise(name, outer_sum):
    y1, y2 = _OTHER_GRIDS[name]
    orc = oracle.ConditionalOracle(make_weibull(2.0), 16, 3.0, step=0.02)
    with np.errstate(all="ignore"):
        assert oracle._antidiagonal_sums(y1, y2) is None
        now, ref = _outcome(orc.joint2_grid, y1, y2), _outcome(outer_sum, orc.joint2_grid, y1, y2)
    if isinstance(ref, tuple):
        assert now == ref
    else:
        assert now.dtype == ref.dtype and now.shape == ref.shape
        assert now.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("model", MODELS, ids=[m.name for m in MODELS])
def test_row_blocks_score_like_the_flat_product(model, n):
    orc = oracle.ConditionalOracle(model, n, 3.0)
    grid = _grid(model, orc, 3.0)
    joint = orc.joint2_grid(grid, grid)
    marg = np.exp(tilt.log_tilted_density(model, orc.tp, grid))
    prod = np.outer(marg, marg)
    tv = oracle.tv_from_values(joint.ravel(), prod.ravel(), 1e-4)
    gap = float(np.max(np.abs(joint - prod)))
    assert len(grid) % ((1 << 15) // len(grid)) != 0  # several blocks, the last one short
    got = oracle._joint_tv(joint, marg, 1e-4)
    assert got.sup_gap == gap
    assert got.tv == pytest.approx(tv, rel=1e-13, abs=0.0)


def test_scoring_rejects_massless_grids():
    with pytest.raises(ExtremeGibbsError, match="positive mass"):
        oracle._joint_tv(np.zeros((3, 3)), np.ones(3), 1.0)


def test_joint_row_memory_is_bounded():
    # one joint_common_k2 row as cmd_gibbs builds it, with the powers taken:
    # the grid itself and row-block temporaries, no G^2 temporaries
    model, n, a_n = make_weibull(2.0), 32, 3.0
    orc = oracle.ConditionalOracle(model, n, a_n)
    orc.table.power(n - 2)
    orc.table.power(n)
    grid = _grid(model, orc, a_n)
    tracemalloc.start()
    try:
        joint = orc.joint2_grid(grid, grid)
        marg = np.exp(tilt.log_tilted_density(model, orc.tp, grid))
        oracle._joint_tv(joint, marg, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(grid) ** 2 * 8, peak


def test_joint_row_times_its_own_work(monkeypatch, tmp_path):
    pause = 0.3
    grid_of = oracle.ConditionalOracle.joint2_grid

    def slow(self, y1, y2):
        time.sleep(pause)
        return grid_of(self, y1, y2)

    monkeypatch.setattr(oracle.ConditionalOracle, "joint2_grid", slow)
    cfg = ExperimentConfig(n=(16,), a=ARule("fixed", value=3.0), joint_k=2, out=str(tmp_path))
    rows = {r.name: r for r in cli.cmd_gibbs(cfg)}
    assert rows["joint_common_k2"].runtime_ms >= 1e3 * pause


def test_squares_take_one_transform_bitwise():
    # every power of the table against the two-transform form of the same pair:
    # a copy of the squared operand is not the operand, so it is transformed again
    base = oracle.ConditionalOracle(make_weibull(2.0), 32, 3.0).table.power(1)
    table = oracle.ConvolutionTable(base)
    for j in (32, 31, 30, 128, 127, 126):
        table.power(j)
    squares = 0
    for j, got in sorted(table._powers.items()):
        if j == 1 or j & (j - 1):
            continue
        part = table.power(j // 2)
        want = oracle._convolve_pair(part, dataclasses.replace(part))
        assert (got.lo, got.hi, got.step, got.mass) == (want.lo, want.hi, want.step, want.mass)
        assert got.values.tobytes() == want.values.tobytes()
        squares += 1
    assert squares == 7


@pytest.mark.parametrize(
    "av, bv, kept, offset",
    [
        ([1.0, 1.0], [1.0, 1.0], [0.25, 0.5, 0.25], 0),
        ([0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 1.0], 2),
        ([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], [0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.25], 0),
        ([1.0, 0.0], [1.0, 0.0], None, None),
        ([0.0, 1.0], [1.0, 0.0], None, None),
        ([0.0, 0.0], [1.0, 1.0], None, None),
    ],
)
def test_powers_drop_the_zero_runs_at_both_ends(av, bv, kept, offset):
    # the kept run starts at the first node above the round-off floor and
    # ends at the last; fewer than two such nodes is a NumericError
    step = 0.5
    a, b = (oracle.GridDensity(1.0, 1.0 + step * (len(v) - 1), step, np.array(v), 1.0) for v in (av, bv))
    if kept is None:
        with pytest.raises(NumericError, match="fewer than two nodes"):
            oracle._convolve_pair(a, b)
        return
    got = oracle._convolve_pair(a, b)
    kept = np.array(kept) * step
    np.testing.assert_array_equal(got.values, kept / np.trapezoid(kept, dx=step))
    assert (got.lo, got.hi) == (2.0 + step * offset, 2.0 + step * (offset + len(kept) - 1))


def test_joint_tv_of_a_disjoint_product_is_at_most_one():
    # the joint sits where the product of the marginals is 0; the two
    # normalizations lifted the TV to 1.0000000000000002, which ApproxReport
    # rejected as a config error
    marg = np.zeros(7)
    marg[:3] = 0.7
    joint = np.zeros((7, 7))
    joint[3:, 3:] = 1.0 / 3.0
    got = oracle._joint_tv(joint, marg, 0.1)
    assert got.tv == 1.0
    ApproxReport("joint_common_k2", "fast", 32, 3.0, got.tv, got.sup_gap)


def _unbounded_fast_len(n):
    """``oracle._fast_len`` with its exponents bounded by n's bit length only."""
    odd = (3**j * 5**k for j in range(n.bit_length()) for k in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def test_fast_len_matches_the_unbounded_search():
    for n in [*range(1, 20_001), 700_000, 10**7 + 1, 4 * 10**7, 3**20, 3**20 + 1, 5**15 + 1, 2**40 + 3]:
        assert oracle._fast_len(n) == _unbounded_fast_len(n), n


def test_powers_are_bitwise_equal_under_the_unbounded_fast_len(monkeypatch):
    base = oracle.ConditionalOracle(make_weibull(2.0), 32, 3.0).table.power(1)
    table = oracle.ConvolutionTable(base)
    monkeypatch.setattr(oracle, "_fast_len", _unbounded_fast_len)
    reference = oracle.ConvolutionTable(base)
    for j in (2, 3, 31, 32, 127):
        got, want = table.power(j), reference.power(j)
        assert (got.lo, got.hi, got.step, got.mass) == (want.lo, want.hi, want.step, want.mass)
        assert got.values.tobytes() == want.values.tobytes()
