"""The double-exponential quadrature rule against analytic integrals and the
one-panel reference walk it replaced."""

import math
from functools import partial

import numpy as np
import pytest

from extreme_gibbs import gibbs, oracle, quad, tilt
from extreme_gibbs.cli import main
from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import (
    make_exp_exponential,
    make_half_gaussian,
    make_weibull,
    model_diagnostics,
    model_from_spec,
)
from extreme_gibbs.quad import log_integral
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


# -- the rule against the one-panel reference walk ------------------------------
#
# Until the double-exponential rule replaced it, ``log_integral`` walked
# 32-node Gauss-Legendre panels outward from the peak, one panel at a time,
# until two panels in a row added less than 1e-12 of the running total and
# four padding panels followed (400 panels at most).  That walk is kept here
# as the reference for what the rule moved; with ``relative=True`` it feeds
# the offsets of its nodes from the centre to ``log_f``, as ``tilt._saddle``
# does to the tilt's log integrand.

_WALK_X01, _WALK_W01 = np.polynomial.legendre.leggauss(32)


def _reference_walk(log_f, center, scale, lo=-np.inf, hi=np.inf, relative=False):
    if not np.isfinite(scale) or scale <= 0.0:
        raise NumericError(f"invalid quadrature scale {scale!r}")
    if hi <= lo:
        raise NumericError(f"empty integration range [{lo}, {hi}]")
    c = float(min(max(center, lo), hi)) if np.isfinite(center) else lo
    all_x, all_terms = [], []
    running = -np.inf
    n_panels = 0
    for direction in (+1, -1):
        edge, width, k = c, 1.5 * scale, 0
        small_run, pads_left = 0, 4
        while True:
            if direction > 0:
                a, b = edge, min(edge + width, hi)
            else:
                a, b = max(edge - width, lo), edge
            if b - a <= 0.0:
                break
            half = 0.5 * (b - a)
            x = 0.5 * (a + b) + half * _WALK_X01
            with np.errstate(over="ignore", invalid="ignore"):
                terms = np.asarray(log_f(x - c if relative else x), dtype=float) + np.log(_WALK_W01 * half)
            all_x.append(x)
            all_terms.append(terms)
            contrib = quad._logsumexp(terms)
            running = np.logaddexp(running, contrib)
            n_panels += 1
            edge = b if direction > 0 else a
            k += 1
            if k >= 10:
                width = min(width * 1.4, 60.0 * scale)
            small_run = small_run + 1 if contrib < running + math.log(1e-12) or contrib == -np.inf else 0
            if small_run >= 2:
                if pads_left <= 0:
                    break
                pads_left -= 1
            if (direction > 0 and edge >= hi) or (direction < 0 and edge <= lo):
                break
            if n_panels >= 400:
                raise NumericError("panel budget exhausted")
    nodes, log_terms = np.concatenate(all_x), np.concatenate(all_terms)
    return quad.LogQuad(quad._logsumexp(log_terms), nodes, (nodes - c) / scale, log_terms, c, scale, n_panels)


def _saddle_walk(model, t, x, hp, kernel=tilt._saddle):
    """``tilt._saddle``'s outputs at one level from the reference walk over
    offsets from x; a batch's columns go to ``kernel``."""
    if np.ndim(x):
        return kernel(model, t, x, hp)
    q0, slope = model.q(x), t - model.h(x)

    def log_rel(d):
        return slope * d - model.remainder(x, d) + (model.q(x + d) - q0)

    walk = _reference_walk(log_rel, x, math.sqrt(1.0 / hp), lo=model.support_lo, relative=True)
    log_phi = t * x - model.g(x) + q0 + model.log_norm + walk.log_value
    return walk.scale, walk.nodes, walk.offsets, walk.log_terms, walk.log_value, False, log_phi


def _saddle_quad(saddle, model, t, x, hp):
    """A ``_saddle``-shaped result at one level as its LogQuad, or as the
    NumericError its flag or the walk raises."""
    try:
        scale, nodes, u, log_terms, total, bad, _ = saddle(model, t, x, hp)
    except NumericError as exc:
        return exc
    if bad:
        return NumericError("flagged by the saddle rule")
    return quad.LogQuad(float(total), nodes, u, log_terms, x, scale, 1)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericError as exc:
        return exc


@pytest.fixture
def twin(monkeypatch):
    """Route every ``quad.log_integral`` call through the rule and the
    reference walk, and every one-level ``tilt._saddle`` call also through
    the walk over offsets; record (rule, walk) pairs of results and errors."""
    real, kernel = quad.log_integral, tilt._saddle
    calls = []

    def both(log_f, center, scale, lo=-np.inf, hi=np.inf):
        got = _outcome(real, log_f, center, scale, lo, hi)
        calls.append((got, _outcome(_reference_walk, log_f, center, scale, lo, hi)))
        if isinstance(got, Exception):
            raise got
        return got

    def saddle(model, t, x, hp):
        if not np.ndim(x):
            calls.append((_saddle_quad(kernel, model, t, x, hp), _saddle_quad(_saddle_walk, model, t, x, hp)))
        return kernel(model, t, x, hp)

    monkeypatch.setattr(quad, "log_integral", both)
    monkeypatch.setattr(tilt, "_saddle", saddle)
    return calls


def _assert_close(pairs, rel):
    """Each rule result within ``rel`` of the walk's, relative to max(1, |log
    value|), where both evaluate; returns the number compared.  (The walk
    returns a finite value for the divergent f = x^2 tilt of Weibull k=2 at
    t >= 1, where the rule raises.)"""
    compared = 0
    for got, ref in pairs:
        if isinstance(ref, Exception) or isinstance(got, Exception):
            continue
        assert abs(got.log_value - ref.log_value) <= rel * max(1.0, abs(ref.log_value)), (got.log_value, ref.log_value)
        compared += 1
    return compared


_MODELS = {
    "weibull:k=1.5": make_weibull(1.5),
    "weibull:k=2": make_weibull(2.0),
    "weibull:k=4": make_weibull(4.0),
    "weibull:k=10": make_weibull(10.0),
    "exp_exponential": make_exp_exponential(),
    "half_gaussian": make_half_gaussian(),
}
_TS = [0.0] + np.geomspace(0.01, 1e6, 13).tolist()
# the walk's Gauss-Legendre panels lose about 4e-6 on the y^(1/2) endpoint of
# Weibull k=1.5 (the rule is held to mpmath there, in test_saddle_rule.py)
_WALK_REL = {"weibull:k=1.5": 5e-6}


@pytest.mark.parametrize("spec", sorted(_MODELS))
def test_rule_matches_reference_walk_over_t(twin, spec):
    model = _MODELS[spec]
    for t in _TS:
        try:
            tilt_moments(model, t)
        except (NumericError, DomainError):
            pass
    assert _assert_close(twin, _WALK_REL.get(spec, 1e-10)) >= len(_TS) - 1


@pytest.mark.parametrize("spec", sorted(_MODELS))
def test_rule_matches_reference_walk_on_clipped_ranges(spec):
    model = _MODELS[spec]
    pairs = []
    for t in (0.0, 0.5, 5.0, 300.0):
        tp = _outcome(tilt_moments, model, t)
        if isinstance(tp, Exception) or not tp.s2 > 0:
            continue
        center, scale = tp.a, tp.s

        def log_f(x):
            return t * x + model._log_density_clipped(x)

        for lo, hi in [
            (center + 0.5 * scale, np.inf),  # peak clipped away at lo
            (max(center - 40.0 * scale, model.support_lo), np.inf),  # lo far from the peak
            (model.support_lo, center - scale),  # peak clipped away at hi
            (model.support_lo, center + 3.0 * scale),
            (center - 2.0 * scale, center + 3.0 * scale),
            (center - 1e-3 * scale, center + 1e-3 * scale),  # narrower than the peak
        ]:
            lo = max(lo, model.support_lo)
            if hi <= lo or center + scale == center:
                continue
            pairs.append((_outcome(log_integral, log_f, center, scale, lo, hi), _outcome(_reference_walk, log_f, center, scale, lo, hi)))
    assert _assert_close(pairs, _WALK_REL.get(spec, 1e-12)) >= 6


@pytest.mark.parametrize("spec", ["weibull:k=2", "weibull:k=4", "exp_exponential", "half_gaussian"])
def test_rule_matches_reference_walk_in_callers(twin, spec):
    model = _MODELS[spec]
    # the oracle's tails beyond a grid's edges, of the density and of a tilted
    # density; the rule takes the edge for the peak, as the oracle's grids
    # reach far enough out that the integrand decays from the edge
    raw, tp = tilt_moments(model, 0.0), solve_tilt(model, 3.0)
    for sd in (4.0, 8.0):
        for log_f, edge_scale, m in [
            (model._log_density_clipped, partial(oracle._edge_scale, model), raw),
            (partial(log_tilted_density, model, tp), lambda x: tp.s, tp),
        ]:
            lo, hi = max(m.a - sd * m.s, model.support_lo), m.a + sd * m.s
            oracle._tail_mass(log_f, edge_scale, model.support_lo, lo, hi)
    # the f = x^2 tilt, the modulated normalizers and the model normalizer
    for t in (0.0, 0.05, 0.3):
        tilt_moments(model, t, f=np.square)
    for n, a in [(4, 2.0), (32, 16.0), (128, 5.0)]:
        gibbs.fast_growth_params(model, n, a)
        gibbs.f_tilted_approx(model, np.square, n, a, np.array([1.0, 2.0]), variant="gaussian_modulated")
    model_diagnostics(model)
    assert _assert_close(twin, 1e-10) > 20


def test_model_normalizers_match_reference_walk(twin):
    make_exp_exponential()
    model_from_spec("kind = custom\ng = x**2 - log(x)\nvariation = regular:1")
    assert _assert_close(twin, 1e-13) == 2


def test_divergent_and_nan_integrands_raise():
    for log_f, lo in [
        (lambda x: 0.1 * x, 0.0),
        (lambda x: -1e-4 * np.abs(x), -np.inf),  # decays too slowly on both sides
        (lambda x: 1e-3 * x, 0.0),  # the 1e-16 test must not round away at a large total
        (np.sqrt, -5.0),  # NaN below zero
        (lambda x: -np.sqrt(x), -5.0),
    ]:
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="decays too slowly"):
            log_integral(log_f, 1.0, 1.0, lo)


# -- the move of the golden digests ----------------------------------------------
#
# The runs of tests/test_golden.py, once on the rule and once on the reference
# walk (which then also takes the tilt's saddle-offset integrand at one level).


def _tables(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    tables = {}
    for path in sorted(out.iterdir()):
        rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
        tables[path.name] = (rows[0], rows[1:])
    return tables


def _rule_and_walk(argv, tmp_path, monkeypatch):
    rule = _tables(argv, tmp_path / "rule")
    monkeypatch.setattr(quad, "log_integral", _reference_walk)
    monkeypatch.setattr(tilt, "_saddle", _saddle_walk)
    return rule, _tables(argv, tmp_path / "walk")


def _column(rows, j):
    return np.array([float(row[j]) for row in rows])


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["gibbs", "--n", "16,32", "--a", "fixed:3", "--joint-k", "2"], id="gibbs"),
        pytest.param(["exceed", "--n", "8,16", "--a", "fixed:2"], id="exceed"),
    ],
)
def test_golden_curves_and_reports_move_within_1e10(argv, tmp_path, monkeypatch):
    rule, walk = _rule_and_walk(argv, tmp_path, monkeypatch)
    assert rule.keys() == walk.keys()
    for name, (head, rows) in rule.items():
        ref = walk[name][1]
        assert walk[name][0] == head and len(ref) == len(rows)
        for j, col in enumerate(head):
            try:
                got, want = _column(rows, j), _column(ref, j)
            except ValueError:  # names and regimes
                assert [row[j] for row in rows] == [row[j] for row in ref], (name, col)
                continue
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0, err_msg=f"{name}:{col}")


def test_golden_tilt_table_moves_within_1e9_and_its_moments_match_mpmath(tmp_path, monkeypatch, mp_moments):
    rule, walk = _rule_and_walk(["tilt", "--model", "weibull:k=4", "--a-grid", "2:1e4:20:log"], tmp_path, monkeypatch)
    head, rows = rule["tilt.csv"]
    ref = walk["tilt.csv"][1]
    assert {row[-1] for row in rows} == {"ok"}
    for col in ("a", "t", "m", "psi", "psi_d1"):
        j = head.index(col)
        np.testing.assert_allclose(_column(rows, j), _column(ref, j), rtol=1e-9, atol=0, err_msg=col)
    # s2 (and V, the same number), mu3 and mu3 / s^3 are held to mpmath, not
    # to the walk: the panel walk was off by up to 342% in s2 at a = 1e4
    col = {name: head.index(name) for name in head}
    for row in (rows[0], rows[10], rows[-1]):
        s2, mu3 = mp_moments("weibull:k=4", float(row[col["t"]]), float(row[col["psi"]]))
        assert float(row[col["s2"]]) == pytest.approx(s2, rel=1e-9)
        assert float(row[col["V"]]) == pytest.approx(s2, rel=1e-9)
        assert float(row[col["mu3"]]) == pytest.approx(mu3, rel=1e-6)
        assert float(row[col["skew_ratio"]]) == pytest.approx(mu3 / s2**1.5, rel=1e-6)


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
