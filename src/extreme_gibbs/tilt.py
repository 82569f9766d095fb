"""Exponential tilting engine.

The tilted density with parameter t is ``pi_t(x) = e^(t x) p(x) / Phi(t)``
where ``Phi(t)`` is the moment generating function of the model.  Everything
here is computed by saddle-centered quadrature in log space:

* ``_saddle``, the one kernel of one level and of an array of levels, integrates
  over offsets d = x - xhat from the inverse slope xhat at t, with R(xhat, d) =
  g(xhat + d) - g(xhat) - h(xhat) d in place of t x - g(x), so nothing cancels
  however large t gets; the rule has width 1/sqrt(h'(xhat)).
* ``tilt_moments`` extracts the tilted mean, variance and third centered
  moment from the same node set rather than by differencing ``log Phi``,
  which would amplify quadrature noise.  Its psi fields reuse the one slope
  inversion that centres the quadrature.
* ``solve_tilt`` inverts the mean function m(t) = a by Newton steps on
  m'(t) = s^2(t) from ``t0 = h(a)``, the asymptotically exact inverse, kept
  inside the bracket their own iterates show (``quad._root``).

Conditioning on a general mean statistic ``sum f(X_i) = n a`` is the same
tilt applied to f(X): ``tilt_moments`` and ``solve_tilt`` take the statistic
as ``f`` (None is the identity), and the moments are those of f(X) under
``e^(t f(x)) p(x) / Phi_f(t)``.

All intermediate arithmetic stays in log space; densities are exponentiated
only at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quad
from .errors import DomainError, ExtremeGibbsError, NumericError
from .model import DensityModel, _slope_step

__all__ = [
    "TiltParams",
    "log_mgf",
    "tilt_moments",
    "solve_tilt",
    "solve_tilt_many",
    "solve_tilt_cached",
    "tilted_density",
    "log_tilted_density",
    "normalized_tilted_density",
    "asymptotic_moments",
    "gaussian_moment",
    "skewness_ratio",
]


@dataclass(frozen=True)
class TiltParams:
    """A solved tilt: parameter, matched mean, and tilted moments.

    ``psi_val``, ``psi_d1`` and ``psi_d2`` are the asymptotic equivalents of
    the mean, variance and third moment (NaN when the inverse slope is not
    defined at this t, and for a statistic f other than the identity).
    """

    t: float
    a: float
    s2: float
    mu3: float
    log_phi: float
    psi_val: float
    psi_d1: float
    psi_d2: float

    @property
    def s(self) -> float:
        return math.sqrt(self.s2)

    @property
    def skew(self) -> float:
        """mu3 / s^3; NumericError when s^3 underflows to zero."""
        s3 = self.s2**1.5
        if s3 == 0.0:
            raise NumericError(f"tilted skewness undefined: s^3 underflows at s2 = {self.s2:.3e}")
        return self.mu3 / s3


def _saddle(model: DensityModel, t, x, hp):
    """The saddle rule of the tilt at t around x = psi(t), where h'(x) = hp, for floats or for columns with one row
    per t: the scale 1/sqrt(hp), the nodes, their offsets from x in units of the scale and the log terms of the log
    integrand ``(t - h(x)) d - R(x, d) + q(x + d) - q(x)`` over offsets d; then, one per row, their log-sum, whether
    it is +inf or NaN or fails the 1e-16 test at the infinite end, and log Phi(t)."""
    with np.errstate(over="ignore", invalid="ignore"):  # past float range: flagged, or a non-finite log Phi
        scale, q0, slope = np.sqrt(1.0 / hp), model.q(x), t - model.h(x)
        # t - h(x) is rounding noise once psi has converged
        slope = np.where(np.abs(slope) <= 64.0 * (hp * np.spacing(np.abs(x)) + np.spacing(np.abs(t))), 0.0, slope)
        nodes, d, log_w, ends = quad._rule(x, scale, model.support_lo, np.inf)
        log_terms = slope * d - model.remainder(x, d) + (model.q(x + d) - q0) + log_w
        lse = np.asarray(quad._logsumexp(log_terms))[..., None]  # the log-sum, with its node axis kept
        bad = np.any((np.take_along_axis(log_terms, np.asarray(ends), -1) - lse > quad._LOG_TAIL) | ~(lse < np.inf), -1)
        log_phi = (t * x - model.g(x) + q0 + model.log_norm + lse)[..., 0]
    return scale, nodes, d / scale, log_terms, lse[..., 0], bad, log_phi


def _mgf_quad(model: DensityModel, t: float, f=None, xhat=None):
    """Quadrature of e^(t f(x)) p(x), log Phi_f(t), and psi, psi', psi'' at its centre (NaN if undefined): for the
    identity at t in the range of h, ``_saddle`` at xhat = psi(t), taken as given when ``xhat`` is not None."""
    res, psi = None, (math.nan,) * 3
    if f is None and t >= model.h_min:
        try:
            xhat = model.psi(t) if xhat is None else xhat
            hp, h2 = float(model.h_prime(xhat)), float(model.h_second(xhat))
        except (DomainError, NumericError):
            hp = math.nan
        if 0.0 < hp < math.inf:
            d1 = 1.0 / hp
            psi = (xhat, d1, -h2 * d1**3)
            if d1 == math.inf:
                raise NumericError(f"invalid quadrature scale inf at center {xhat!r}")
            scale, nodes, u, log_terms, total, bad, log_phi = _saddle(model, t, xhat, hp)
            res, log_phi = quad.LogQuad(float(total), nodes, u, log_terms, xhat, float(scale), panels=1), float(log_phi)
            if bad:
                raise NumericError(
                    f"integrand decays too slowly, diverges or is not finite (center={xhat!r}, scale={res.scale!r})"
                )
    if res is None:

        def log_f(x):
            arr = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):  # t f(x) beyond float range is inf, not a warning
                stat = arr if f is None else np.asarray(f(arr), dtype=float)
                return t * stat + model._log_density_clipped(arr)

        center, scale = quad._locate(log_f, model.support_lo, max(model.h_zero, model.support_lo) + 1.0, 1.0)
        res = quad.log_integral(log_f, center=center, scale=scale, lo=model.support_lo)
        log_phi = res.log_value
    if not np.isfinite(log_phi):
        raise NumericError(f"mgf integral did not evaluate at t={t!r}")
    return res, log_phi, psi


def _moments(log_terms, log_value, u, shift, unit):
    """Mean, variance and third centred moment of shift + unit * u, for u over the last axis with the weights
    exp(log_terms - log_value)."""
    p = np.exp(log_terms - np.asarray(log_value)[..., None])
    mean = np.sum(p * u, axis=-1)
    du = u - mean[..., None]
    return shift + unit * mean, unit**2 * np.sum(p * du * du, axis=-1), unit**3 * np.sum(p * du * du * du, axis=-1)


def _saddle_many(model: DensityModel, t: np.ndarray):
    """``_saddle`` and ``tilt_moments``' moments over an array of t, the
    identity statistic: a mask of the rows that pass every check of the
    scalar path, and the fields of ``TiltParams`` as arrays."""
    lo, ok = model.support_lo, np.isfinite(model.support_lo) & (t >= model.h_min)
    none = np.zeros(t.shape, bool), (t, *(np.full(t.shape, math.nan),) * 7)
    if not np.any(ok):  # the whole line, or no t in the range of h
        return none
    try:
        with np.errstate(all="ignore"):
            if model.psi_closed is None:
                x0 = np.full(t.shape, max(model.h_zero, lo) + 1.0)
                x, found = quad._root_many(lambda i, x: _slope_step(model.h, model.h_prime, x, t[i], lo), x0, lo)
            else:
                x, found = np.asarray(model.psi_closed(t), dtype=float), True
            hp, h2 = model.h_prime(x), model.h_second(x)
            scale, _, u, log_terms, total, bad, log_phi = _saddle(model, t[:, None], x[:, None], hp[:, None])
            scale, d1 = scale[:, 0], 1.0 / hp
            mean, s2, mu3 = _moments(log_terms, total, u, x, scale)
            ok &= found & (0.0 < hp) & (hp < np.inf) & (scale < np.inf) & ~bad & np.isfinite(log_phi) & (s2 > 0.0)
            return ok, (t, mean, s2, mu3, log_phi, x, d1, -h2 * d1**3)
    except ExtremeGibbsError:  # a model function that takes only scalars: the scalar path takes every row
        return none


def _moments_many(model: DensityModel, ts) -> list[TiltParams]:
    """``tilt_moments`` at each t of ``ts`` in one batch; ``tilt_moments`` itself takes a row the batch cannot."""
    ok, cols = _saddle_many(model, np.asarray(ts, dtype=float))
    return [TiltParams(*row) if good else tilt_moments(model, row[0]) for good, row in zip(ok, np.array(cols).T.tolist())]


def log_mgf(model: DensityModel, t: float) -> float:
    """log E[e^(t X)] by saddle-centered quadrature."""
    return _mgf_quad(model, float(t))[1]


def _tilt_quad(model: DensityModel, t: float, f=None, xhat=None) -> tuple[TiltParams, quad.LogQuad]:
    """``tilt_moments`` and the quadrature it read them from; ``xhat`` as in ``_mgf_quad``."""
    res, log_phi, (psi_val, psi_d1, psi_d2) = _mgf_quad(model, t, f, xhat)
    u, shift, unit = (res.offsets, res.center, res.scale) if f is None else (np.asarray(f(res.nodes), float), 0.0, 1.0)
    mean, s2, mu3 = map(float, _moments(res.log_terms, res.log_value, u, shift, unit))
    if not (s2 > 0):
        raise NumericError(f"tilted variance not positive at t={t!r}")
    return TiltParams(t, mean, s2, mu3, log_phi, psi_val, psi_d1, psi_d2), res


def tilt_moments(model: DensityModel, t: float, f=None) -> TiltParams:
    """Mean, variance and third centered moment of the tilted density.

    Computed as weighted moments of the quadrature offsets from the peak,
    which avoids the catastrophic cancellation of forming central moments
    around a large mean.  With a statistic ``f`` they are the moments of
    f(X) under the f-tilt, taken from f at the same nodes.
    """
    return _tilt_quad(model, float(t), f)[0]


def solve_tilt(model: DensityModel, a: float, rtol: float = 1e-12, max_iter: int = 120, f=None) -> TiltParams:
    """Solve m(t) = a for the tilt parameter t.

    Newton steps on the exact derivative m'(t) = s^2(t), kept inside the
    bracket their own iterates show (``quad._root``), start at ``t0 = h(a)``
    (the asymptotically exact inverse).  The solve accepts the first t with
    ``|m(t) - a| <= rtol * a`` and raises :class:`NumericError` ("stalled")
    when the bracket closes first.

    With a statistic ``f`` the solve matches the mean of f(X) instead, from
    t = 0 with a unit first step, and the tolerance scales with ``max(|a|,
    1)``, because an f-target can be zero or negative.  A target outside the
    image of the mean of f is a :class:`DomainError`.
    """
    return _solve(model, a, rtol, max_iter, f)[0]


def _solve(model: DensityModel, a: float, rtol: float = 1e-12, max_iter: int = 120, f=None):
    """``solve_tilt`` and the quadrature of its accepted evaluation.  The
    first evaluation, at t0 = h(a), is centred at a itself where a lies on
    the branch of h that psi inverts (a >= h_zero): psi(t0) is a there."""
    a = float(a)
    if not np.isfinite(a) or (f is None and a <= model.support_lo):
        raise DomainError(f"target mean {a!r} outside the image of m for {model.name!r}")

    if f is None:
        try:
            t, xhat = float(model.h(a)), (a if a >= model.h_zero else None)
        except (ValueError, FloatingPointError):
            t, xhat = 0.0, None
        if not np.isfinite(t):
            raise DomainError(f"initial tilt guess h({a!r}) is not finite")
        if float(model.h_prime(a)) == math.inf:
            raise DomainError(f"h'({a!r}) overflows: the tilted width is below float range")
        scale = abs(a)
    else:
        t, scale, xhat = 0.0, max(abs(a), 1.0), None
    solved = []

    def step(t):
        solved.append(_tilt_quad(model, t, f, xhat if not solved else None))
        m, s2 = solved[-1][0].a, solved[-1][0].s2
        # with f the first move is a unit step: Newton's can land next to a pole of Phi_f
        # (for x^2 under the half-Gaussian it goes from 0 to (a - 1)/2, and the pole is at 1/2)
        return m - a, math.nan if f is not None and len(solved) == 1 else t + (a - m) / s2

    quad._root(step, t, ftol=rtol * scale, max_iter=max_iter, name=f"tilt solver for a = {a!r}")
    return solved[-1]


def solve_tilt_many(model: DensityModel, levels) -> list:
    """``solve_tilt`` at each level (the identity statistic): its Newton steps from t0 = h(a) on all unsolved levels at
    once.  A level the batch cannot finish by those steps, or a lone level, which is faster alone, goes to ``solve_tilt``.
    Returns one :class:`TiltParams`, or the :class:`ExtremeGibbsError` ``solve_tilt`` raises, per level."""
    a = np.asarray(levels, dtype=float).ravel()
    if a.size > 256:  # bounded memory: a batch holds arrays of 173 nodes a level
        return [tp for k in range(0, a.size, 256) for tp in solve_tilt_many(model, a[k : k + 256])]
    try:  # a model function that takes only scalars leaves every level to solve_tilt
        with np.errstate(all="ignore"):
            t0, hp0 = model.h(a), model.h_prime(a)
    except ExtremeGibbsError:
        t0 = hp0 = np.full(a.shape, math.nan)
    rows = np.flatnonzero((a.size > 1) & np.isfinite(a) & (a > model.support_lo) & np.isfinite(t0) & (hp0 < np.inf))
    cols = np.full((8, rows.size), math.nan)

    def step(i, t):
        ok, cols[:, i] = _saddle_many(model, t)
        m, s2 = cols[1, i], cols[2, i]
        return np.where(ok, m - a[rows[i]], math.nan), t + (a[rows[i]] - m) / s2

    _, found = quad._root_many(step, t0[rows], ftol=1e-12 * np.abs(a[rows]))
    solved, out = dict(zip(rows[found].tolist(), cols[:, found].T.tolist())), []
    for k, level in enumerate(a.tolist()):
        try:
            out.append(TiltParams(*solved[k]) if k in solved else solve_tilt(model, level))
        except ExtremeGibbsError as err:
            out.append(err)
    return out


@lru_cache(maxsize=4096)
def solve_tilt_cached(model: DensityModel, a: float) -> TiltParams:
    """Memoized solve_tilt; models hash by identity, levels by exact value."""
    return solve_tilt(model, a)


def log_tilted_density(model: DensityModel, tp: TiltParams, x) -> np.ndarray:
    """Vectorized log of pi_t; -inf below the support and where p is 0, NaN at NaN.  NumericError
    past t a = 1e18, where the rounding of t x alone passes 100."""
    if not abs(tp.t * tp.a) < 1e18:
        raise NumericError(f"tilted density at level {tp.a!r} is past float precision (t a = {tp.t * tp.a:.3e})")
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # t x = inf where p is 0: inf - inf
        out = tp.t * arr + model._log_density_clipped(arr)
    return np.where(np.isnan(out) & ~np.isnan(arr), -np.inf, out) - tp.log_phi


def tilted_density(model: DensityModel, tp: TiltParams, x):
    """pi_t(x) = e^(t x) p(x) / Phi(t); zero below the support."""
    arr = np.asarray(x, dtype=float)
    out = np.exp(log_tilted_density(model, tp, arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def normalized_tilted_density(model: DensityModel, tp: TiltParams, u):
    """Density of the standardized tilted variable (X_t - m) / s."""
    arr = np.asarray(u, dtype=float)
    s = tp.s
    x = s * arr + tp.a
    out = s * np.exp(log_tilted_density(model, tp, x))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def gaussian_moment(i: int) -> float:
    """i-th moment of the standard normal: 0 for odd i, (i-1)!! for even i."""
    if i < 0:
        raise DomainError("moment order must be nonnegative")
    if i % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(i - 1, 0, -2):
        out *= j
    return out


def asymptotic_moments(model: DensityModel, t: float, j: int) -> float:
    """Large-t equivalent of the j-th tilted cumulant/centered moment.

    j = 2 and j = 3 map to the first and second derivatives of the inverse
    slope; higher orders reduce to Gaussian moments scaled by powers of the
    tilted standard deviation, with an odd-order correction proportional to
    the third moment.
    """
    if j < 2:
        raise DomainError(f"moment order must be >= 2, got {j!r}")
    if j == 2:
        return model.psi_d1(t)
    if j == 3:
        return model.psi_d2(t)
    tp = tilt_moments(model, t)
    s = tp.s
    if j % 2 == 0:
        return gaussian_moment(j) * s**j
    coeff = (gaussian_moment(j + 3) - 3.0 * j * gaussian_moment(j - 1)) / 6.0
    return coeff * tp.mu3 * s ** (j - 3)


def skewness_ratio(model: DensityModel, t: float) -> float:
    """mu3(t) / s^3(t) of the tilted density; tends to zero for large t."""
    return tilt_moments(model, t).skew
