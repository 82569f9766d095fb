"""Log-domain panel quadrature against analytic integrals."""

import math
from functools import partial

import numpy as np
import pytest

from extreme_gibbs import gibbs, oracle, quad
from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import (
    make_exp_exponential,
    make_half_gaussian,
    make_weibull,
    model_diagnostics,
    model_from_spec,
)
from extreme_gibbs.quad import find_peak, log_integral
from extreme_gibbs.tilt import log_tilted_density, solve_tilt, tilt_moments


def test_gaussian_full_line():
    res = log_integral(lambda x: -0.5 * x**2, center=0.0, scale=1.0)
    assert res.log_value == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-13)


def test_gaussian_half_line():
    res = log_integral(lambda x: -0.5 * x**2, center=0.0, scale=1.0, lo=0.0)
    assert res.log_value == pytest.approx(0.5 * math.log(2 * math.pi) - math.log(2), abs=1e-13)


def test_shifted_narrow_gaussian():
    # the integrand's own (x - mu) cancellation at mu = 500 caps the accuracy
    mu, sig = 500.0, 1e-3
    res = log_integral(lambda x: -0.5 * ((x - mu) / sig) ** 2, center=mu, scale=sig, lo=0.0)
    assert res.log_value == pytest.approx(0.5 * math.log(2 * math.pi) + math.log(sig), abs=1e-9)


def test_exponential_tail():
    # int_0^inf e^(-3x) dx = 1/3; peak sits at the boundary
    res = log_integral(lambda x: -3.0 * x, center=0.0, scale=1.0 / 3.0, lo=0.0)
    assert res.log_value == pytest.approx(-math.log(3.0), abs=1e-12)


def test_moments_from_nodes():
    mu, sig = 2.5, 0.7
    res = log_integral(lambda x: -0.5 * ((x - mu) / sig) ** 2, center=mu, scale=sig)
    p = np.exp(res.log_terms - res.log_value)
    u = res.offsets
    u_mean = np.sum(p * u)
    mean = res.center + res.scale * u_mean
    var = res.scale**2 * np.sum(p * (u - u_mean) ** 2)
    mu3 = res.scale**3 * np.sum(p * (u - u_mean) ** 3)
    assert mean == pytest.approx(mu, abs=1e-12)
    assert var == pytest.approx(sig**2, rel=1e-12)
    assert abs(mu3) < 1e-14


def test_divergent_integrand_raises():
    with pytest.raises(NumericError):
        log_integral(lambda x: 0.1 * x, center=0.0, scale=1.0, lo=0.0)


def test_find_peak_interior():
    xhat, sigma = find_peak(lambda x: -0.5 * ((x - 7.0) / 0.3) ** 2, lo=0.0)
    assert xhat == pytest.approx(7.0, abs=1e-6)
    assert sigma == pytest.approx(0.3, rel=1e-3)


def test_find_peak_at_boundary():
    xhat, sigma = find_peak(lambda x: -2.0 * x, lo=0.0)
    assert xhat < 1e-6
    assert 0.1 < sigma < 1.0


# -- the batched walk against a one-panel-per-call walk -------------------------
#
# ``log_integral`` evaluates 12 panels per ``log_f`` call and replays the
# stopping rule on their sums.  The reference below evaluates one panel per
# call and applies the rule as it goes; every field of the two results, and
# every raised message, must be bitwise equal.


def _reference_walk(log_f, center, scale, lo=-np.inf, hi=np.inf):
    if not np.isfinite(scale) or scale <= 0.0:
        raise NumericError(f"invalid quadrature scale {scale!r}")
    if hi <= lo:
        raise NumericError(f"empty integration range [{lo}, {hi}]")
    x01, w01 = quad._legendre_rule()
    c = float(min(max(center, lo), hi)) if np.isfinite(center) else lo
    w0 = quad._PANEL_WIDTH * scale
    all_x, all_u, all_terms = [], [], []
    running = -np.inf
    n_panels = 0
    for direction in (+1, -1):
        edge = c
        width = w0
        small_run = 0
        pads_left = quad._TAIL_PAD
        k = 0
        while True:
            if direction > 0:
                a, b = edge, min(edge + width, hi)
            else:
                a, b = max(edge - width, lo), edge
            if b - a <= 0.0:
                break
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            x = mid + half * x01
            terms = np.asarray(log_f(x), dtype=float) + np.log(w01 * half)
            all_x.append(x)
            all_u.append((x - c) / scale)
            all_terms.append(terms)
            top = np.max(terms)
            contrib = float(top + np.log(np.sum(np.exp(terms - top)))) if np.isfinite(top) else float(top)
            running = np.logaddexp(running, contrib)
            n_panels += 1
            edge = b if direction > 0 else a
            k += 1
            if k >= quad._GROW_AFTER:
                width = min(width * quad._GROWTH, quad._MAX_WIDTH * scale)
            at_boundary = (direction > 0 and edge >= hi) or (direction < 0 and edge <= lo)
            if contrib < running + quad._LOG_REL_TOL or contrib == -np.inf:
                small_run += 1
            else:
                small_run = 0
            if small_run >= 2:
                if pads_left <= 0:
                    break
                pads_left -= 1
            if at_boundary:
                break
            if n_panels >= quad._MAX_PANELS:
                raise NumericError(
                    "panel budget exhausted; integrand decays too slowly or diverges "
                    f"(center={c!r}, scale={scale!r})"
                )
    log_terms = np.concatenate(all_terms)
    top = np.max(log_terms)
    log_value = float(top + np.log(np.sum(np.exp(log_terms - top)))) if np.isfinite(top) else float(top)
    return quad.LogQuad(log_value, np.concatenate(all_x), np.concatenate(all_u), log_terms, c, scale, n_panels)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericError as exc:
        return exc


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _assert_same(got, ref):
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert got.panels == ref.panels
    assert (_bits(got.center), _bits(got.scale)) == (_bits(ref.center), _bits(ref.scale))
    for field in ("log_value", "nodes", "offsets", "log_terms"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field


@pytest.fixture
def twin(monkeypatch):
    """Route every ``quad.log_integral`` call through both walks; count the calls."""
    real = quad.log_integral
    calls = []

    def both(log_f, center, scale, lo=-np.inf, hi=np.inf):
        got = _outcome(real, log_f, center, scale, lo, hi)
        _assert_same(got, _outcome(_reference_walk, log_f, center, scale, lo, hi))
        calls.append(got)
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(quad, "log_integral", both)
    return calls


_MODELS = {
    "weibull:k=1.5": make_weibull(1.5),
    "weibull:k=2": make_weibull(2.0),
    "weibull:k=4": make_weibull(4.0),
    "weibull:k=10": make_weibull(10.0),
    "exp_exponential": make_exp_exponential(),
    "half_gaussian": make_half_gaussian(),
}
_TS = [0.0] + np.geomspace(0.01, 1e6, 13).tolist()


@pytest.mark.parametrize("spec", sorted(_MODELS))
def test_batched_walk_is_bitwise_the_per_panel_walk_over_t(twin, spec):
    model = _MODELS[spec]
    for t in _TS:
        try:
            tilt_moments(model, t)
        except (NumericError, DomainError):
            pass
    assert len(twin) >= len(_TS)


@pytest.mark.parametrize("spec", sorted(_MODELS))
def test_batched_walk_is_bitwise_on_clipped_ranges(spec):
    model = _MODELS[spec]
    for t in (0.0, 0.5, 5.0, 300.0):
        tp = _outcome(tilt_moments, model, t)
        if isinstance(tp, Exception) or not tp.s2 > 0:
            continue
        center, scale = tp.a, tp.s

        def log_f(x):
            return t * x + model._log_density_clipped(x)

        for lo, hi in [
            (center + 0.5 * scale, np.inf),  # peak clipped away at lo
            (max(center - 40.0 * scale, model.support_lo), np.inf),  # lo reached by the walk
            (model.support_lo, center - scale),  # peak clipped away at hi
            (model.support_lo, center + 3.0 * scale),
            (center - 2.0 * scale, center + 3.0 * scale),
            (center - 1e-3 * scale, center + 1e-3 * scale),  # narrower than one panel
        ]:
            lo = max(lo, model.support_lo)
            if hi <= lo:
                continue
            _assert_same(_outcome(log_integral, log_f, center, scale, lo, hi), _reference_walk(log_f, center, scale, lo, hi))


@pytest.mark.parametrize("spec", ["weibull:k=2", "weibull:k=4", "exp_exponential", "half_gaussian"])
def test_batched_walk_is_bitwise_in_callers(twin, spec):
    model = _MODELS[spec]
    # the oracle's one-sided tails, of the density and of a tilted density
    tp = solve_tilt(model, 3.0)
    for lo, hi in [(0.5, 4.0), (model.support_lo, 2.0), (1.0, 9.0)]:
        oracle._tail_mass(model._log_density_clipped, partial(oracle._edge_scale, model), model.support_lo, lo, hi)
        oracle._tail_mass(partial(log_tilted_density, model, tp), lambda x: tp.s, model.support_lo, lo, hi)
    # the f = x^2 tilt, the modulated normalizers and the model normalizer
    for t in (0.0, 0.05, 0.3):
        tilt_moments(model, t, f=np.square)
    for n, a in [(4, 2.0), (32, 16.0), (128, 5.0)]:
        gibbs.fast_growth_params(model, n, a)
        gibbs.f_tilted_approx(model, np.square, n, a, np.array([1.0, 2.0]), variant="gaussian_modulated")
    model_diagnostics(model)
    assert len(twin) > 20


def test_model_normalizers_are_bitwise(twin):
    make_exp_exponential()
    model_from_spec("kind = custom\ng = x**2 - log(x)\nvariation = regular:1")
    assert len(twin) == 2


def test_divergent_integrand_raises_the_same_message():
    got = _outcome(log_integral, lambda x: 0.1 * x, 0.0, 1.0, 0.0)
    assert "panel budget exhausted" in str(got)
    _assert_same(got, _outcome(_reference_walk, lambda x: 0.1 * x, 0.0, 1.0, 0.0))
    # a budget spent on both sides, and integrands that are NaN below zero
    slow = lambda x: -1e-4 * np.abs(x)  # noqa: E731
    _assert_same(_outcome(log_integral, slow, 0.0, 1.0), _outcome(_reference_walk, slow, 0.0, 1.0))
    with np.errstate(invalid="ignore"):
        for log_f in (np.sqrt, lambda x: -np.sqrt(x)):
            _assert_same(_outcome(log_integral, log_f, 1.0, 1.0, -5.0), _outcome(_reference_walk, log_f, 1.0, 1.0, -5.0))


def test_row_logsumexp_equals_the_1d_one_on_each_row():
    rng = np.random.default_rng(5)
    rows = np.vstack(
        [
            rng.normal(scale=300.0, size=(40, 32)),
            np.full((1, 32), -np.inf),
            np.r_[np.inf, np.zeros(31)][None, :],
            np.r_[np.nan, np.zeros(31)][None, :],
            np.r_[-np.inf, rng.normal(size=31)][None, :],
        ]
    )
    got = quad._logsumexp(rows)
    assert got.shape == (rows.shape[0],)
    for row, value in zip(rows, got):
        one = quad._logsumexp(row)
        assert isinstance(one, float)
        assert _bits(value) == _bits(one)
    assert quad._logsumexp(np.empty(0)) == -np.inf
