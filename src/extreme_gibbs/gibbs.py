"""Conditional-law approximations for one coordinate under a sum constraint.

Two approximating families are implemented, selected by how fast the
conditioning level grows relative to the fluctuation scale ``s sqrt(n)``:

* moderate growth: the conditional law of X_1 given S_n = n a_n is close to
  the plain tilted density at level a_n;
* fast growth: a Gaussian modulation survives in the limit and the
  approximation becomes ``C p(y) N(alpha beta + a_n, beta)(y)`` with
  ``alpha = t + mu3 / (2 (n-1) s^2)`` and ``beta = (n-1) s^2``.

Joint k-block products, conditioning on a general mean statistic
``sum f(X_i) = n a_n``, and the diagnostic z statistics of the sequential
Bayes factorization live here too.  Everything evaluates in log space and
normalizing constants are always computed by quadrature, never taken from
an asymptotic equivalent, so the returned objects are true densities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quad
from .errors import DomainError, NumericError, RegimeWarning, _count
from .model import DensityModel
from .tilt import TiltParams, _mgf_quad, _solve, log_tilted_density, solve_tilt, solve_tilt_cached

__all__ = [
    "Regime",
    "FastGrowthParams",
    "classify_regime",
    "tilted_approx",
    "fast_growth_params",
    "fast_growth_approx",
    "joint_moderate_approx",
    "joint_fast_approx",
    "identity",
    "f_tilted_approx",
    "z_statistics",
    "variance_power_fit",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

REGIME_THETA_LO = 0.1
REGIME_THETA_HI = 10.0


@dataclass(frozen=True)
class Regime:
    """Growth classification of one (n, a_n) pair.

    ``ratio`` is a_n / (s sqrt(n)); small ratios behave like the classical
    tilted regime, order-one ratios need the Gaussian modulation, and very
    large ratios are outside the covered theory.
    """

    kind: str
    ratio: float
    tp: TiltParams


def classify_regime(model: DensityModel, n: int, a_n: float) -> Regime:
    n = _count("n", n, 2)
    tp = solve_tilt_cached(model, float(a_n))
    ratio = a_n / (tp.s * math.sqrt(n))
    if ratio < REGIME_THETA_LO:
        kind = "moderate"
    elif ratio <= REGIME_THETA_HI:
        kind = "fast"
    else:
        kind = "out_of_scope"
    return Regime(kind=kind, ratio=float(ratio), tp=tp)


def _warn_if_fast(model: DensityModel, n: int, a_n: float, tp: TiltParams) -> None:
    ratio = a_n / (tp.s * math.sqrt(n))
    if ratio >= REGIME_THETA_LO:
        warnings.warn(
            f"tilted approximation evaluated at growth ratio {ratio:.3g} "
            "(outside the moderate regime); result may need the Gaussian modulation",
            RegimeWarning,
            stacklevel=3,
        )


def tilted_approx(model: DensityModel, n: int, a_n: float, y, tp: TiltParams | None = None):
    """Tilted-density approximation of X_1 given S_n = n a_n (moderate growth)."""
    n = _count("n", n, 2)
    if tp is None:
        tp = solve_tilt_cached(model, float(a_n))
    _warn_if_fast(model, n, a_n, tp)
    arr = np.asarray(y, dtype=float)
    out = np.exp(log_tilted_density(model, tp, arr))
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# fast growth: Gaussian-modulated density
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastGrowthParams:
    """Parameters of the Gaussian-modulated conditional approximation."""

    alpha: float
    beta: float
    logC: float
    n: int
    a_n: float
    tp: TiltParams


def _log_normal_pdf(mu: float, var: float, y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # -inf far out
        return -0.5 * (_LOG_2PI + math.log(var)) - (arr - mu) ** 2 / (2.0 * var)


def _log_modulated(model: DensityModel, mu: float, var: float, y, f=None) -> np.ndarray:
    """log of p(y) N(mu, var)(f(y)); f is the identity when None."""
    arr = np.asarray(y, dtype=float)
    stat = arr if f is None else np.asarray(f(arr), dtype=float)
    return model._log_density_clipped(arr) + _log_normal_pdf(mu, var, stat)


def _modulated_params(
    model: DensityModel, tp: TiltParams, rows: int, a_n: float, f=None, evaluation=None
) -> FastGrowthParams:
    """alpha, beta = rows s^2 and the quadrature normalizer of the modulated
    density ``C p(y) N(alpha beta + a_n, beta)(f(y))`` tilted by ``tp``.

    For the identity the normalizer is a sum over the nodes of the tilt's own
    quadrature at tp.t: ``evaluation``, the solve's accepted (LogQuad, log
    Phi), or else one taken anew, centred at tp.psi_val.  Completing the
    square, ``e^(-t y) N(mu, beta)(y) = N(a_n + mu3/2, beta)(y) e^(beta t^2/2
    - mu t)``, so C^-1 is the tilt's integral of that Gaussian.  A statistic
    f has its own quadrature, centred by ``quad._locate``."""
    alpha = tp.t + tp.mu3 / (2.0 * rows * tp.s2)
    beta = rows * tp.s2
    mu = alpha * beta + a_n
    if f is None:
        res, log_phi = evaluation or _mgf_quad(model, tp.t, xhat=tp.psi_val if np.isfinite(tp.psi_val) else None)[:2]
        with np.errstate(over="ignore", invalid="ignore"):  # past float range: a NumericError below
            log_terms = res.log_terms + _log_normal_pdf(a_n + 0.5 * tp.mu3, beta, res.nodes)
            log_value = log_phi - res.log_value + quad._logsumexp(log_terms) + 0.5 * beta * tp.t * tp.t - mu * tp.t
    else:
        log_f = lambda y: _log_modulated(model, mu, beta, y, f)  # noqa: E731
        peak = quad._locate(log_f, model.support_lo, max(model.h_zero, model.support_lo) + 1.0, 1.0)
        log_value = quad.log_integral(log_f, center=peak[0], scale=peak[1], lo=model.support_lo).log_value
    if not np.isfinite(log_value):
        raise NumericError("normalization integral of the modulated density failed")
    return FastGrowthParams(alpha, beta, -log_value, rows + 1, float(a_n), tp)


def fast_growth_params(
    model: DensityModel, n: int, a_n: float, tp: TiltParams | None = None
) -> FastGrowthParams:
    """Solve the tilt at a_n and assemble alpha, beta and the normalizer."""
    n = _count("n", n, 2)
    if tp is None:
        tp = solve_tilt_cached(model, float(a_n))
    return _modulated_params(model, tp, n - 1, a_n)


def log_fast_growth(params: FastGrowthParams, model: DensityModel, y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    mu = params.alpha * params.beta + params.a_n
    return params.logC + model._log_density_clipped(arr) + _log_normal_pdf(mu, params.beta, arr)


def fast_growth_approx(params: FastGrowthParams, model: DensityModel, y):
    """Gaussian-modulated approximation C p(y) N(alpha beta + a_n, beta)(y)."""
    arr = np.asarray(y, dtype=float)
    out = np.exp(log_fast_growth(params, model, arr))
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# joint blocks of fixed length
# ---------------------------------------------------------------------------


def _joint_value(log_value: float) -> float:
    """exp of a log joint density; NumericError beyond float range."""
    if log_value > _LOG_FLOAT_MAX:
        raise NumericError(f"joint density exp({float(log_value)!r}) is beyond float range")
    return math.exp(log_value)


def _block(ys) -> np.ndarray:
    """``ys`` as a 1-D float array; DomainError for any other shape."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if ys.ndim != 1:
        raise DomainError(f"block must be one-dimensional, got shape {ys.shape}")
    return ys


def _check_block(n: int, ys) -> tuple[int, np.ndarray]:
    n, ys = _count("n", n, 2), _block(ys)
    k = len(ys)
    if k < 1:
        raise DomainError("block must contain at least one coordinate")
    if k > n // 4:
        raise DomainError(f"block length k={k} must satisfy k <= n/4 (n={n})")
    return n, ys


def joint_moderate_approx(
    model: DensityModel, n: int, a_n: float, ys, mode: str = "common_tilt"
) -> float:
    """Product approximation of a k-block under moderate growth.

    ``common_tilt`` multiplies marginal tilted densities at the common level
    a_n (the asymptotic-independence form).  ``per_index_tilt`` re-solves the
    level after each coordinate: the i-th factor is tilted at
    ``m_i = (n a_n - (y_1 + ... + y_i)) / (n - i)``.
    """
    n, ys = _check_block(n, ys)
    if mode == "common_tilt":
        tp = solve_tilt_cached(model, float(a_n))
        return _joint_value(np.sum(log_tilted_density(model, tp, ys)))
    if mode == "per_index_tilt":
        total = 0.0
        partial = 0.0
        for i, y in enumerate(ys, start=1):
            partial += float(y)
            m_i = (n * a_n - partial) / (n - i)
            tp_i = solve_tilt_cached(model, m_i)
            total += float(log_tilted_density(model, tp_i, np.asarray([y]))[0])
        return _joint_value(total)
    raise DomainError(f"unknown mode {mode!r}; use 'common_tilt' or 'per_index_tilt'")


@lru_cache(maxsize=4096)
def _fast_factor(model: DensityModel, rows: int, level: float, a_n: float) -> FastGrowthParams:
    """One factor of the fast-growth joint product, memoized on its level; its
    normalizer is summed on the nodes of the solve's accepted quadrature."""
    tp, res = _solve(model, level)
    return _modulated_params(model, tp, rows, a_n, evaluation=(res, tp.log_phi))


def joint_fast_approx(model: DensityModel, n: int, a_n: float, ys) -> float:
    """Fast-growth joint approximation: product of modulated factors.

    The i-th factor recenters at ``m_i = (n a_n - s_1^(i-1)) / (n - i + 1)``
    and modulates with ``alpha_i beta_i + a_n`` and ``beta_i = (n-i+1) s_i^2``.
    Unlike the moderate product the factors are coupled through a_n, which is
    exactly the failure of asymptotic independence at fast growth.
    """
    n, ys = _check_block(n, ys)
    total = 0.0
    partial = 0.0
    for i, y in enumerate(ys, start=1):
        rows = n - i + 1
        m_i = (n * a_n - partial) / rows
        fp = _fast_factor(model, rows, m_i, float(a_n))
        total += float(log_fast_growth(fp, model, np.asarray([y]))[0])
        partial += float(y)
    return _joint_value(total)


# ---------------------------------------------------------------------------
# conditioning on a general mean statistic
# ---------------------------------------------------------------------------


def identity(x):
    """Identity map; passing it (or None) routes f-conditioning through the
    plain tilted machinery, bit for bit."""
    return x


def f_tilted_approx(
    model: DensityModel,
    f,
    n: int,
    a_n: float,
    x,
    variant: str = "tilted",
):
    """Conditional approximation of X_1 given sum f(X_i) = n a_n.

    ``variant="tilted"`` returns the f-tilted density
    ``e^(t f(x)) p(x) / Phi_f(t)``, with t from ``solve_tilt(..., f=f)``.
    ``variant="gaussian_modulated"`` applies the fast-growth Gaussian
    modulation in f-space and renormalizes over x; the pushforward density
    cancels in that product so no Jacobian appears.  ``f=None`` or the
    exported ``identity`` delegates to the plain tilted machinery so the
    reduction is exact, not merely approximate.
    """
    n = _count("n", n, 2)
    if variant not in ("tilted", "gaussian_modulated"):
        raise DomainError(f"unknown variant {variant!r}")
    if f is None or f is identity:
        if variant == "tilted":
            return tilted_approx(model, n, a_n, x)
        params = fast_growth_params(model, n, a_n)
        return fast_growth_approx(params, model, x)

    tp = solve_tilt(model, float(a_n), f=f)
    arr = np.asarray(x, dtype=float)
    if variant == "tilted":
        logs = tp.t * np.asarray(f(arr), dtype=float) + model._log_density_clipped(arr) - tp.log_phi
    else:
        fp = _modulated_params(model, tp, n - 1, a_n, f)
        logs = _log_modulated(model, fp.alpha * fp.beta + fp.a_n, fp.beta, arr, f) + fp.logC
    out = np.exp(logs)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def z_statistics(model: DensityModel, n: int, a_n: float, ys) -> np.ndarray:
    """Standardized residual levels of the sequential Bayes factorization.

    With partial sums s_1^i, the i-th conditioning level is
    ``m_i = (n a_n - s_1^i)/(n - i)`` and the statistic is
    ``z_i = (m_i - y_(i+1)) / (s_i sqrt(n - i - 1))`` for i = 0..k-1.
    All z_i vanish when every coordinate equals a_n.
    """
    n, ys = _count("n", n, 2), _block(ys)
    k = len(ys)
    if k >= n - 1:
        raise DomainError("need k < n - 1 for the z statistics")
    out = np.empty(k)
    partial = 0.0
    for i in range(k):
        m_i = (n * a_n - partial) / (n - i)
        tp_i = solve_tilt_cached(model, m_i)
        with np.errstate(over="ignore"):  # +-inf for a coordinate far out
            out[i] = (m_i - ys[i]) / (tp_i.s * math.sqrt(n - i - 1))
        partial += float(ys[i])
    return out


def variance_power_fit(model: DensityModel, xs=(10.0, 31.622776601683793, 100.0)) -> float:
    """Least-squares exponent rho in V(x) ~ x^(2 rho) over probe levels."""
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray([solve_tilt_cached(model, float(x)).s2 for x in xs])
    slope = np.polyfit(np.log(xs), np.log(vs), 1)[0]
    return float(slope / 2.0)
