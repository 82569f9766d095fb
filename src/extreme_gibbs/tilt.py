"""Exponential tilting engine.

The tilted density with parameter t is ``pi_t(x) = e^(t x) p(x) / Phi(t)``
where ``Phi(t)`` is the moment generating function of the model.  Everything
here is computed by saddle-centered quadrature in log space:

* ``log_mgf`` integrates over offsets d = x - xhat from the inverse slope
  xhat at t, with the remainder R(xhat, d) = g(xhat + d) - g(xhat) - h(xhat) d
  in place of t x - g(x), so nothing cancels however large t gets; the rule
  has width 1/sqrt(h'(xhat)).
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
    """Quadrature of e^(t f(x)) p(x), log Phi_f(t), and psi, psi', psi'' at
    its centre (NaN if undefined).  For the identity at t in the range of h
    the rule runs over offsets d from xhat = psi(t), on the log integrand
    ``(t - h(xhat)) d - R(xhat, d) + q(xhat + d) - q(xhat)``."""
    res, psi = None, (math.nan,) * 3
    if f is None and t >= model.h_min:
        try:
            xhat = model.psi(t)
            hp, h2 = float(model.h_prime(xhat)), float(model.h_second(xhat))
        except (DomainError, NumericError):
            hp = math.nan
        if 0.0 < hp < math.inf:
            d1 = 1.0 / hp
            psi = (xhat, d1, -h2 * d1**3)
            # t - h(xhat) is rounding noise once psi has converged
            slope = t - float(model.h(xhat))
            if abs(slope) <= 64.0 * (hp * math.ulp(xhat) + math.ulp(t)):
                slope = 0.0
            q0 = float(model.q(xhat))

            def log_rel(d):
                return slope * d - model.remainder(xhat, d) + (model.q(xhat + d) - q0)

            res = quad.log_integral(log_rel, xhat, math.sqrt(d1), lo=model.support_lo, relative=True)
            with np.errstate(over="ignore", invalid="ignore"):  # g past float range: a NumericError below
                log_phi = t * xhat - float(model.g(xhat)) + q0 + model.log_norm + res.log_value
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


def log_mgf(model: DensityModel, t: float) -> float:
    """log E[e^(t X)] by saddle-centered quadrature."""
    return _mgf_quad(model, float(t))[1]


def tilt_moments(model: DensityModel, t: float, f=None) -> TiltParams:
    """Mean, variance and third centered moment of the tilted density.

    Computed as weighted moments of the quadrature offsets from the peak,
    which avoids the catastrophic cancellation of forming central moments
    around a large mean.  With a statistic ``f`` they are the moments of
    f(X) under the f-tilt, taken from f at the same nodes.
    """
    t = float(t)
    res, log_phi, (psi_val, psi_d1, psi_d2) = _mgf_quad(model, t, f=f)
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
        log_phi=log_phi,
        psi_val=psi_val,
        psi_d1=psi_d1,
        psi_d2=psi_d2,
    )


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
        if float(model.h_prime(a)) == math.inf:
            raise DomainError(f"h'({a!r}) overflows: the tilted width is below float range")
        scale = abs(a)
    else:
        t, scale = 0.0, max(abs(a), 1.0)
    solved = []

    def step(t):
        solved.append(tilt_moments(model, t, f))
        m, s2 = solved[-1].a, solved[-1].s2
        # with f the first move is a unit step: Newton's can land next to a pole of Phi_f
        # (for x^2 under the half-Gaussian it goes from 0 to (a - 1)/2, and the pole is at 1/2)
        return m - a, math.nan if f is not None and len(solved) == 1 else t + (a - m) / s2

    quad._root(step, t, ftol=rtol * scale, max_iter=max_iter, name=f"tilt solver for a = {a!r}")
    return solved[-1]


@lru_cache(maxsize=4096)
def solve_tilt_cached(model: DensityModel, a: float) -> TiltParams:
    """Memoized solve_tilt; models hash by identity, levels by exact value."""
    return solve_tilt(model, a)


def log_tilted_density(model: DensityModel, tp: TiltParams, x) -> np.ndarray:
    """Vectorized log of pi_t; -inf below the support and where p is 0, NaN at NaN."""
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
