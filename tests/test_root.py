"""The safeguarded Newton root-finder ``quad._root`` and the slope inverse
psi(t) = h^-1(t) it serves.

``_root`` is the bracketed Newton-bisection hybrid of Press et al.,
*Numerical Recipes*, 3rd ed., sec. 9.4; it serves ``solve_tilt``, ``psi``,
the modulated normalizer's saddle and the custom-model ``h_zero`` probe.
These tests hold psi to closed forms and to mpmath (skipped when mpmath is
not installed), and the routine to its typed errors.  scipy is not used.
"""

import math

import numpy as np
import pytest

from extreme_gibbs import quad
from extreme_gibbs.cli import main
from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import make_weibull, model_from_spec


def _weibull2_psi(t: float) -> float:
    """Root of h(x) = 2x - 1/x = t; the form for t < 0 does not cancel."""
    if t >= 0.0:
        return (t + math.sqrt(t * t + 8.0)) / 4.0
    return 2.0 / (math.sqrt(t * t + 8.0) - t)


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want)


def test_weibull2_psi_within_8_ulp_of_its_closed_form():
    # brentq's absolute xtol of 2e-12 left psi(-8.1e5) = 2.5e-6 off by 1.85e-7 relative
    model = make_weibull(2.0)
    mags = np.geomspace(1e-3, 1e6, 300)
    ts = np.concatenate([-mags, mags, np.geomspace(1e6, 1e8, 40), [-8.1e5]])
    worst = max(_ulps(model.psi(float(t)), _weibull2_psi(float(t))) for t in ts)
    assert worst <= 8.0


@pytest.mark.parametrize("t", [-1e100, 1e100])
def test_weibull2_psi_at_extreme_slopes(t):
    # x = 1e-100 is 330 halvings from the start: the search shrinks toward 0 by squared ratios
    assert _ulps(make_weibull(2.0).psi(t), _weibull2_psi(t)) <= 8.0


def test_custom_identity_slope_inverts_to_itself():
    # h = x has psi(t) = t; the spec goes through the general inversion
    model = model_from_spec("kind = custom\ng = 0.5*x**2\nh = x\nh_prime = 1 + 0*x\nvariation = regular:1")
    assert model.psi_closed is None
    for t in np.geomspace(1e-6, 1e12, 91):
        assert _ulps(model.psi(float(t)), float(t)) <= 4.0


def test_golden_tilt_psi_column_matches_mpmath(tmp_path):
    mp = pytest.importorskip("mpmath")
    assert main(["tilt", "--model", "weibull:k=4", "--a-grid", "2:1e4:20:log", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "tilt.csv").read_text().splitlines() if not line.startswith("#")]
    head, rows = rows[0], rows[1:]
    t_col, psi_col = head.index("t"), head.index("psi")
    with mp.workdps(40):
        for row in rows:
            t, psi = float(row[t_col]), float(row[psi_col])
            root = mp.findroot(lambda x: 4 * x**3 - 3 / x - mp.mpf(t), mp.mpf(psi))
            assert _ulps(psi, float(root)) <= 4.0, (t, psi)


def test_custom_model_h_zero_probe_survives_a_failed_root_find():
    # h < 0 everywhere: the sign-change search finds no root, and h_zero falls back to support_lo
    model = model_from_spec("kind = custom\ng = x**2\nh = -1 + 0*x\nvariation = regular:1")
    assert model.h_zero == 0.0
    assert model.h_min == -1.0


def test_custom_model_h_zero_is_the_sign_change_of_h():
    model = model_from_spec("kind = custom\ng = x**2 - log(x)\nh = 2*x - 1/x\nh_prime = 2 + 1/x**2\nvariation = regular:1")
    assert _ulps(model.h_zero, math.sqrt(0.5)) <= 4.0


# -- the routine itself ----------------------------------------------------------


def _newton(fn, dfn):
    return lambda x: (fn(x), x - fn(x) / dfn(x))


def test_newton_converges_quadratically():
    calls = []

    def step(x):
        calls.append(x)
        return x * x - 2.0, x - (x * x - 2.0) / (2.0 * x)

    assert _ulps(quad._root(step, 1.0), math.sqrt(2.0)) <= 1.0
    assert len(calls) <= 7


def test_a_nan_residual_raises():
    with pytest.raises(NumericError, match="NaN residual"):
        quad._root(lambda x: (math.nan if x > 1.0 else -1.0, x + 10.0), 0.0)


def test_the_start_must_evaluate():
    def step(x):
        raise NumericError("no value here")

    with pytest.raises(NumericError, match="no value here"):
        quad._root(step, 0.0)


def test_a_failed_evaluation_bounds_the_bracket():
    # F = x - 0.25 is undefined beyond x = 0.3, where the first Newton step lands
    def step(x):
        if x > 0.3:
            raise NumericError("undefined")
        return x - 0.25, 0.25 if x > 0.0 else 0.5

    assert quad._root(step, 0.0, ftol=1e-15) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize(
    "step, x, lo, ftol",
    [
        (_newton(lambda x: math.exp(x) + 1.0, math.exp), 0.0, -math.inf, 1e-12),  # F > 1 everywhere
        (lambda x: (1.0, math.nan), 0.5, 0.0, None),  # F > 0 down to the finite end
    ],
    ids=["residual-stops-moving", "shrinks-to-the-end"],
)
def test_a_function_that_never_brackets_a_root_raises(step, x, lo, ftol):
    with pytest.raises(DomainError, match="has no root"):
        quad._root(step, x, lo=lo, ftol=ftol)


def test_a_stall_raises_and_names_the_residual():
    # F jumps by 2e-3 across its root, so |F| <= 1e-6 is out of reach
    def step(x):
        f = (x - 0.3) + math.copysign(1e-3, x - 0.3)
        return f, x - f

    with pytest.raises(NumericError, match=r"stalled at \|residual\| = 1\.000e-03"):
        quad._root(step, 0.0, ftol=1e-6)


def test_running_out_of_steps_raises():
    with pytest.raises(NumericError, match="did not converge in 5 steps"):
        quad._root(_newton(lambda x: x**3 - 2.0, lambda x: 3.0 * x * x), 100.0, max_iter=5)
