"""Exponential tilting engine.

The tilted density with parameter t is ``pi_t(x) = e^(t x) p(x) / Phi(t)``
where ``Phi(t)`` is the moment generating function of the model.  Everything
here is computed by saddle-centered quadrature in log space:

* ``log_mgf`` integrates ``e^(t x) p(x)`` after substituting
  ``x = xhat + sigma u`` with ``xhat`` the inverse slope at t and
  ``sigma = 1/sqrt(h'(xhat))``, so the integrand is an O(1)-width bump in u
  no matter how large t gets.
* ``tilt_moments`` extracts the tilted mean, variance and third centered
  moment from the same node set rather than by differencing ``log Phi``,
  which would amplify quadrature noise.  Its psi fields reuse the one slope
  inversion that centres the quadrature.
* ``solve_tilt`` inverts the mean function m(t) = a with a safeguarded
  Newton iteration started at ``t0 = h(a)`` (the asymptotically exact
  inverse) and a geometric bracket fallback.

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
from .errors import DomainError, NumericError
from .model import DensityModel

__all__ = [
    "TiltParams",
    "log_mgf",
    "tilt_moments",
    "solve_tilt",
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


def _mgf_quad(model: DensityModel, t: float, f=None):
    """Quadrature of e^(t f(x)) p(x), and psi, psi', psi'' at its centre (NaN if undefined)."""

    def log_f(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # t f(x) beyond float range is inf, not a warning
            stat = arr if f is None else np.asarray(f(arr), dtype=float)
            return t * stat + model._log_density_clipped(arr)

    # the inverse slope locates the peak of e^(t x) p(x) only for the identity
    center = scale = None
    psi = (math.nan,) * 3
    if f is None and t >= model.h_min:
        try:
            xhat = model.psi(t)
            hp = float(model.h_prime(xhat))
            if hp > 0:
                center, scale = xhat, 1.0 / math.sqrt(hp)
                d1 = 1.0 / hp
                psi = (xhat, d1, -float(model.h_second(xhat)) * d1**3)
        except (DomainError, NumericError):
            pass
    if center is None:
        center, scale = quad.find_peak(log_f, lo=model.support_lo, scale_hint=1.0)
    res = quad.log_integral(log_f, center=center, scale=scale, lo=model.support_lo)
    if not np.isfinite(res.log_value):
        raise NumericError(f"mgf integral did not evaluate at t={t!r}")
    return res, psi


def log_mgf(model: DensityModel, t: float) -> float:
    """log E[e^(t X)] by saddle-centered quadrature."""
    return _mgf_quad(model, float(t))[0].log_value


def tilt_moments(model: DensityModel, t: float, f=None) -> TiltParams:
    """Mean, variance and third centered moment of the tilted density.

    Computed as weighted moments of the quadrature nodes in peak-scaled
    coordinates, which avoids the catastrophic cancellation of forming
    central moments around a large mean.  With a statistic ``f`` they are
    the moments of f(X) under the f-tilt, taken from f at the same nodes.
    """
    t = float(t)
    res, (psi_val, psi_d1, psi_d2) = _mgf_quad(model, t, f=f)
    p = np.exp(res.log_terms - res.log_value)
    if f is None:
        u, shift, unit = res.offsets, res.center, res.scale
    else:
        u, shift, unit = np.asarray(f(res.nodes), dtype=float), 0.0, 1.0
    u_mean = float(np.sum(p * u))
    du = u - u_mean
    var_u = float(np.sum(p * du * du))
    mu3_u = float(np.sum(p * du * du * du))
    mean = shift + unit * u_mean
    s2 = unit**2 * var_u
    mu3 = unit**3 * mu3_u
    if not (s2 > 0):
        raise NumericError(f"tilted variance not positive at t={t!r}")
    return TiltParams(
        t=t,
        a=mean,
        s2=s2,
        mu3=mu3,
        log_phi=res.log_value,
        psi_val=psi_val,
        psi_d1=psi_d1,
        psi_d2=psi_d2,
    )


def _expand(model: DensityModel, a: float, edge: float, m_edge: float, step: float, sign: float, f):
    """One bracket expansion from ``edge``: the new edge, its mean, the next step.

    Phi_f can be finite on a half-line only (x^2 under Weibull k=2 diverges
    at t >= 1), so for a statistic f a failed quadrature halves the step
    instead of ending the solve.  A step that collapses, or a mean that stops
    moving, puts the target outside the image of the mean of f.
    """
    while True:
        cand = edge + sign * step
        try:
            m = tilt_moments(model, cand, f).a
        except NumericError:
            if f is None:
                raise
            step *= 0.5
            if step < 1e-12:
                raise DomainError(f"target {a!r} outside the image of the mean of f") from None
            continue
        if f is not None and abs(m - m_edge) < 1e-12 * max(abs(a), 1.0):
            raise DomainError(f"target {a!r} outside the image of the mean of f")
        return cand, m, 2.0 * step


def solve_tilt(
    model: DensityModel,
    a: float,
    rtol: float = 1e-12,
    max_iter: int = 120,
    f=None,
) -> TiltParams:
    """Solve m(t) = a for the tilt parameter t.

    Newton steps use the exact derivative m'(t) = s^2(t) and are confined to
    a monotone bracket that is expanded geometrically from the initial guess
    ``t0 = h(a)`` when needed.  The iteration accepts a solution when
    ``|m(t) - a| <= rtol * a``, with a relaxed floor when quadrature noise
    prevents further progress.

    With a statistic ``f`` the solve matches the mean of f(X) instead.  The
    start is t = 0, Newton begins at the middle of the bracket, and the
    tolerance scales with ``max(|a|, 1)``, because an f-target can be zero or
    negative.
    """
    a = float(a)
    if not np.isfinite(a) or (f is None and a <= model.support_lo):
        raise DomainError(f"target mean {a!r} outside the image of m for {model.name!r}")

    if f is None:
        try:
            t = float(model.h(a))
        except (ValueError, FloatingPointError):
            t = 0.0
        if not np.isfinite(t):
            raise DomainError(f"initial tilt guess h({a!r}) is not finite")
        scale = abs(a)
    else:
        t = 0.0
        scale = max(abs(a), 1.0)

    tp = tilt_moments(model, t, f)
    tol = rtol * scale

    # establish a bracket [t_lo, t_hi] with m(t_lo) <= a <= m(t_hi)
    t_lo = t_hi = t
    m_lo = m_hi = tp.a
    step = max(abs(t), 1.0)
    expansions = 0
    while m_hi < a:
        t_lo, m_lo = t_hi, m_hi
        t_hi, m_hi, step = _expand(model, a, t_hi, m_hi, step, 1.0, f)
        expansions += 1
        if expansions > 80:
            raise DomainError(f"could not bracket m(t) = {a!r} from above")
    step = max(abs(t), 1.0)
    while m_lo > a:
        t_hi, m_hi = t_lo, m_lo
        t_lo, m_lo, step = _expand(model, a, t_lo, m_lo, step, -1.0, f)
        expansions += 1
        if expansions > 160:
            raise DomainError(f"could not bracket m(t) = {a!r} from below")

    if f is not None or not (t_lo <= t <= t_hi):
        t = 0.5 * (t_lo + t_hi)
        tp = tilt_moments(model, t, f)

    best = tp
    best_err = abs(tp.a - a)
    stall = 0
    for _ in range(max_iter):
        err = tp.a - a
        if abs(err) <= tol:
            return tp
        if abs(err) < best_err:
            best, best_err, stall = tp, abs(err), 0
        else:
            stall += 1
            if stall >= 4:
                break
        if err > 0:
            t_hi = min(t_hi, tp.t)
        else:
            t_lo = max(t_lo, tp.t)
        t_new = tp.t - err / tp.s2
        if not (t_lo < t_new < t_hi) or not np.isfinite(t_new):
            t_new = 0.5 * (t_lo + t_hi)
        if t_new == tp.t:
            break
        tp = tilt_moments(model, t_new, f)

    if best_err <= max(tol, 1e-9 * scale):
        return best
    raise NumericError(
        f"tilt solver stalled at |m - a| = {best_err:.3e} for a = {a!r} "
        f"(tolerance {tol:.3e})"
    )


@lru_cache(maxsize=4096)
def solve_tilt_cached(model: DensityModel, a: float) -> TiltParams:
    """Memoized solve_tilt; models hash by identity, levels by exact value."""
    return solve_tilt(model, a)


def log_tilted_density(model: DensityModel, tp: TiltParams, x) -> np.ndarray:
    """Vectorized log of pi_t; -inf below the support."""
    arr = np.asarray(x, dtype=float)
    return tp.t * arr + model._log_density_clipped(arr) - tp.log_phi


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
