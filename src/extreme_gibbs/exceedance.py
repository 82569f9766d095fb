"""Rate function, saddlepoint tail formulas, and exceedance conditionals.

The rate function ``I(x) = x m^{-1}(x) - log Phi(m^{-1}(x))`` is the Legendre
transform of the log-MGF and governs the exponential decay of tail events.
Two saddlepoint formulas built on it are exposed in log scale:

* ``tail_probability``: log P(S_n >= n a) ~ -n I(a) - log(sqrt(2 pi n) t s).
* ``sum_density``: the sample-mean density at tau,
  log ~ 0.5 log n - n I(tau) - 0.5 log(2 pi) - log s(t_tau).

Conditioning on the exceedance event {S_n >= n a_n} mixes point conditionals
over a thin window [a_n, a_n + eta_n] of levels: the weight of level tau is
proportional to ``exp(-n I(tau)) / s(t_tau)``, which decays like
``exp(-n t (tau - a_n))``.  The window is integrated over the tilt: with
tau = m(t), d tau = s^2(t) dt and I(m(t)) = t m(t) - log Phi(t) (Daniels
1954), so a node costs one ``tilt_moments`` call and no solve.  Nodes are
packed against a_n by ``t = t_a + (t_e - t_a) u^2``, t_e the tilt at a_n +
eta.  The mixture is renormalized to unit mass; the raw prefactor of the
asymptotic formula is kept as a diagnostic (it is not itself a probability
normalization at finite n).

The mass beyond the window, t >= t_e, decays like ``exp(-v)`` in
v = n t_e s^2(t_e) (t - t_e), the Gauss-Laguerre weight (Abramowitz and
Stegun 25.4.45), so a fixed 24-node Laguerre rule in v takes it with one
``tilt_moments`` call per node.  Against ``quad.log_integral`` over t it
agrees to 1e-10 relative, 4.5e-11 at worst for n = 2 just above the mean
(20 nodes: 1e-9), except Weibull k=1.5 at n = 2, a = 1.2 (2.7e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quad
from .errors import DomainError, NumericError, _count
from .gibbs import fast_growth_params, log_fast_growth
from .model import DensityModel
from .tilt import log_tilted_density, solve_tilt_cached, tilt_moments

__all__ = [
    "RatePoint",
    "rate_function",
    "tail_probability",
    "sum_density",
    "eta_window",
    "ExceedanceMixture",
    "exceedance_approx",
    "window_tail_masses",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RatePoint:
    """Rate function value and its companions at one level x."""

    x: float
    t: float
    I: float
    s: float


def rate_function(model: DensityModel, x: float) -> RatePoint:
    """Legendre-transform rate I(x) = x t - log Phi(t) with m(t) = x."""
    tp = solve_tilt_cached(model, float(x))
    return RatePoint(x=float(x), t=tp.t, I=float(x) * tp.t - tp.log_phi, s=tp.s)


def tail_probability(model: DensityModel, n: int, a_n: float) -> float:
    """log P(S_n >= n a_n) by the saddlepoint tail formula."""
    n = _count("n", n, 2)
    rp = rate_function(model, a_n)
    if not (rp.t * rp.s > 0):
        raise DomainError(
            f"tail formula needs a level above the mean (t s = {rp.t * rp.s!r})"
        )
    return -n * rp.I - 0.5 * math.log(2.0 * math.pi * n) - math.log(rp.t * rp.s)


def sum_density(model: DensityModel, n: int, tau: float) -> float:
    """log density of the sample mean S_n / n at tau (saddlepoint form)."""
    n = _count("n", n, 2)
    rp = rate_function(model, tau)
    return 0.5 * math.log(n) - n * rp.I - 0.5 * _LOG_2PI - math.log(rp.s)


def eta_window(model: DensityModel, n: int, a_n: float) -> float:
    """Window width eta_n = log(n) / (sqrt(n) t) for the exceedance mixture.

    Vanishes as n grows while n * t * eta = sqrt(n) log(n) still diverges,
    which is exactly what the mixture construction requires.
    """
    n = _count("n", n, 2)
    t = solve_tilt_cached(model, float(a_n)).t
    if not (t > 0):
        raise DomainError("window needs a level above the mean (t > 0)")
    return math.log(n) / (math.sqrt(n) * t)


# The window's Gauss-Legendre rule and the Gauss-Laguerre rule of the tail
# beyond it, built on first use (importing numpy.polynomial takes about 5 ms)
@lru_cache(maxsize=None)
def _window_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(32)


@lru_cache(maxsize=None)
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(24)


def _node_moments(model: DensityModel, n: int, ts: np.ndarray, I_a: float):
    """Moments at the tilts ``ts``, with the levels tau = m(t), s^2(t) and the
    log weight -n (I(tau) - I_a) - log s(t) of each level, one call per node."""
    tps = [tilt_moments(model, t) for t in ts.tolist()]
    taus, s2, log_phi = np.array([(q.a, q.s2, q.log_phi) for q in tps]).T
    return tps, taus, s2, -n * (taus * ts - log_phi - I_a) - 0.5 * np.log(s2)


class ExceedanceMixture:
    """Renormalized mixture approximating X_1 given S_n >= n a_n.

    ``variant="tilted"`` mixes plain tilted densities over the window levels
    (the literal reading of the defining formula, whose two growth clauses
    then coincide); ``variant="gaussian_modulated"`` mixes fast-growth
    modulated densities instead, the reading suggested by the fast-growth
    point theorem.  ``raw_prefactor`` stores the mass the un-renormalized
    asymptotic formula would assign.
    """

    def __init__(
        self,
        model: DensityModel,
        n: int,
        a_n: float,
        variant: str = "tilted",
        eta: float | None = None,
    ):
        if variant not in ("tilted", "gaussian_modulated"):
            raise DomainError(f"unknown variant {variant!r}")
        self.model = model
        self.n = _count("n", n, 2)
        self.a_n = float(a_n)
        self.variant = variant
        self.tp = solve_tilt_cached(model, float(a_n))
        if not (self.tp.t > 0):
            raise DomainError("window needs a level above the mean (t > 0)")
        self.eta = eta_window(model, n, a_n) if eta is None else float(eta)
        if not (self.eta > 0):
            raise DomainError("window width must be positive")

        # a Newton step from each solve puts the ends at a_n and a_n + eta to second order
        self.tp_end = solve_tilt_cached(model, self.a_n + self.eta)
        t_a = self.tp.t + (self.a_n - self.tp.a) / self.tp.s2
        self.t_end = self.tp_end.t + (self.a_n + self.eta - self.tp_end.a) / self.tp_end.s2
        span = self.t_end - t_a
        if not span > 0:
            raise NumericError(f"window of width {self.eta!r} at {self.a_n!r} spans no tilt interval")
        u01, w01 = _window_rule()
        u = 0.5 * (u01 + 1.0)
        ts = t_a + span * u**2
        self.I_a = self.a_n * self.tp.t - self.tp.log_phi
        self._tps, self.taus, s2, self._log_w_plain = _node_moments(model, self.n, ts, self.I_a)
        # d tau = s^2 dt, and dt = 2 span u du
        log_w = self._log_w_plain + np.log(s2 * span * u * w01)
        if variant == "gaussian_modulated":
            self._fps = [fast_growth_params(model, self.n, q.a, tp=q) for q in self._tps]

        self.log_norm = quad._logsumexp(log_w)
        self.log_weights = log_w - self.log_norm
        # mass assigned by the literal asymptotic prefactor t s exp(n I(a))
        self.raw_prefactor = math.exp(math.log(self.tp.t * self.tp.s) + self.log_norm)

    def log_density(self, y) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        acc = np.full(arr.shape, -np.inf)
        for j, tp_j in enumerate(self._tps):
            if self.variant == "tilted":
                lk = log_tilted_density(self.model, tp_j, arr)
            else:
                lk = log_fast_growth(self._fps[j], self.model, arr)
            with np.errstate(invalid="ignore"):  # NaN at a NaN y
                acc = np.logaddexp(acc, self.log_weights[j] + lk)
        return acc

    def density(self, y):
        arr = np.asarray(y, dtype=float)
        out = np.exp(self.log_density(arr))
        out = out.reshape(arr.shape) if arr.ndim else out[0]
        return float(out) if np.isscalar(y) or arr.ndim == 0 else out

    def weight_values(self) -> np.ndarray:
        """Un-jacobianed weight integrand exp(-n I(tau))/s(t_tau), scaled."""
        return np.exp(self._log_w_plain - np.max(self._log_w_plain))


@lru_cache(maxsize=256)
def _mixture_cached(model: DensityModel, n: int, a_n: float, variant: str, eta: float | None) -> ExceedanceMixture:
    return ExceedanceMixture(model, n, a_n, variant=variant, eta=eta)


def exceedance_approx(
    model: DensityModel,
    n: int,
    a_n: float,
    y,
    variant: str = "tilted",
    eta: float | None = None,
):
    """Mixture approximation of the law of X_1 given S_n >= n a_n.

    Returns the renormalized mixture density at y.  The raw asymptotic
    prefactor is available as ``ExceedanceMixture(...).raw_prefactor``.
    """
    return _mixture_cached(model, _count("n", n, 2), float(a_n), variant, eta).density(y)


def window_tail_masses(model: DensityModel, n: int, a_n: float, eta: float | None = None) -> tuple[float, float]:
    """log masses of the mean density inside and beyond the mixing window.

    Returns (log P1, log P2) where P1 integrates exp(sum_density) over
    [a_n, a_n + eta] and P2 over [a_n + eta, infinity).  The mixture
    construction is sound when P2 is negligible against P1.  P1 is the window
    mass of the cached tilted mixture.  P2 is integrated over t >= t_e, where
    the integrand decays like exp(-v) in v = n t_e s_e^2 (t - t_e): a
    Gauss-Laguerre rule in v takes it.
    """
    n = _count("n", n, 2)
    mix = _mixture_cached(model, n, float(a_n), "tilted", eta)
    # log of sqrt(n / 2 pi) exp(-n I_a), a factor of both masses
    log_c = 0.5 * math.log(n) - 0.5 * _LOG_2PI - n * mix.I_a
    te = mix.tp_end
    rate = n * te.t * te.s2
    v, w = _tail_rule()
    _, _, s2, log_w = _node_moments(model, n, mix.t_end + v / rate, mix.I_a)
    # d tau = s^2 dt, and dt = dv / rate
    log_tail = quad._logsumexp(log_w + np.log(s2) + v + np.log(w)) - math.log(rate)
    return log_c + mix.log_norm, log_c + log_tail
