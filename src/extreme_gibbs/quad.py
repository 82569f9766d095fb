"""Log-domain quadrature for sharply peaked integrands.

Integrals of the form ``exp(log_f(x))`` over a half line are evaluated by
tiling the axis with Gauss-Legendre panels centered at the integrand's peak
and sized by its local width, accumulating everything as log-sum-exp.  The
exponent is never exponentiated globally, so integrands whose log values
reach hundreds of thousands remain exact to relative rounding.

Panels are added outward from the center until two consecutive panels each
contribute less than ``_REL_TOL`` (1e-12) of the running total; four padding
panels follow so that low-order moments of the integrand are converged as
well, not only its mass.  Panels have 32 nodes and start 1.5 scales wide;
after the tenth panel on a side each is 1.4 times wider than the last, up to
60 scales, which covers sub-Gaussian and exponential tails alike at modest
cost.  These settings are fixed: every integral in the package uses them,
and 400 panels is the budget before an integrand counts as divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError

__all__ = ["LogQuad", "log_integral", "find_peak"]

_REL_TOL = 1e-12
_LOG_REL_TOL = np.log(_REL_TOL)
_PANEL_WIDTH = 1.5
_GROWTH = 1.4
_GROW_AFTER = 10
_MAX_WIDTH = 60.0
_TAIL_PAD = 4
_MAX_PANELS = 400


@lru_cache(maxsize=None)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 32-node Gauss-Legendre rule of a panel, built on first use
    (importing numpy.polynomial takes about 5 ms)."""
    return np.polynomial.legendre.leggauss(32)


def _logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -np.inf
    top = np.max(values)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(values - top))))


@dataclass(frozen=True)
class LogQuad:
    """Result of a log-domain panel integration.

    ``logsumexp(log_terms)`` equals ``log_value``; ``nodes`` are the abscissas
    and ``offsets`` the same abscissas expressed in units of the panel scale
    relative to the center (kept for cancellation-free moment extraction).
    """

    log_value: float
    nodes: np.ndarray
    offsets: np.ndarray
    log_terms: np.ndarray
    center: float
    scale: float
    panels: int


def _panel_terms(log_f, a: float, b: float, center: float, scale: float):
    x01, w01 = _legendre_rule()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * x01
    vals = np.asarray(log_f(x), dtype=float)
    logw = np.log(w01 * half)
    return x, (x - center) / scale, vals + logw


def log_integral(
    log_f,
    center: float,
    scale: float,
    lo: float = -np.inf,
    hi: float = np.inf,
) -> LogQuad:
    """Integrate ``exp(log_f)`` over ``[lo, hi]`` around a peak at ``center``.

    ``scale`` sets the initial panel width (roughly the peak's standard
    deviation).  Raises :class:`NumericError` when the panel budget is
    exhausted before the tails stop contributing, which is the signature of a
    divergent or pathologically slow-decaying integrand.
    """
    if not np.isfinite(scale) or scale <= 0.0:
        raise NumericError(f"invalid quadrature scale {scale!r}")
    if hi <= lo:
        raise NumericError(f"empty integration range [{lo}, {hi}]")
    c = float(min(max(center, lo), hi)) if np.isfinite(center) else lo
    w0 = _PANEL_WIDTH * scale

    all_x: list[np.ndarray] = []
    all_u: list[np.ndarray] = []
    all_terms: list[np.ndarray] = []
    panel_logs: list[float] = []
    running = -np.inf
    n_panels = 0

    for direction in (+1, -1):
        edge = c
        width = w0
        small_run = 0
        pads_left = _TAIL_PAD
        k = 0
        while True:
            if direction > 0:
                a, b = edge, min(edge + width, hi)
            else:
                a, b = max(edge - width, lo), edge
            if b - a <= 0.0:
                break
            x, u, terms = _panel_terms(log_f, a, b, c, scale)
            all_x.append(x)
            all_u.append(u)
            all_terms.append(terms)
            contrib = _logsumexp(terms)
            panel_logs.append(contrib)
            running = np.logaddexp(running, contrib)
            n_panels += 1
            edge = b if direction > 0 else a
            k += 1
            if k >= _GROW_AFTER:
                width = min(width * _GROWTH, _MAX_WIDTH * scale)
            at_boundary = (direction > 0 and edge >= hi) or (direction < 0 and edge <= lo)
            if contrib < running + _LOG_REL_TOL or contrib == -np.inf:
                small_run += 1
            else:
                small_run = 0
            if small_run >= 2:
                if pads_left <= 0:
                    break
                pads_left -= 1
            if at_boundary:
                break
            if n_panels >= _MAX_PANELS:
                raise NumericError(
                    "panel budget exhausted; integrand decays too slowly or diverges "
                    f"(center={c!r}, scale={scale!r})"
                )

    nodes = np.concatenate(all_x) if all_x else np.empty(0)
    offsets = np.concatenate(all_u) if all_u else np.empty(0)
    log_terms = np.concatenate(all_terms) if all_terms else np.empty(0)
    return LogQuad(
        log_value=_logsumexp(log_terms),
        nodes=nodes,
        offsets=offsets,
        log_terms=log_terms,
        center=c,
        scale=scale,
        panels=n_panels,
    )


def _scalar(log_f, x: float) -> float:
    return float(np.asarray(log_f(np.asarray([x], dtype=float)))[0])


def find_peak(
    log_f,
    lo: float,
    x0: float | None = None,
    scale_hint: float = 1.0,
) -> tuple[float, float]:
    """Locate the maximum of ``log_f`` on ``[lo, inf)`` and its half width.

    Returns ``(xhat, sigma)`` where ``sigma`` is the distance at which the log
    integrand drops by one half from its peak (the standard deviation for a
    Gaussian peak).  Used when no analytic saddle point is available.
    """
    tiny = 1e-12 * max(1.0, abs(lo)) + 1e-300
    left = lo + tiny
    if x0 is None or not np.isfinite(x0) or not (left < x0):
        x0 = left + scale_hint
    step = max(scale_hint, 1e-8)
    xa, xb = x0, x0
    fa = f0 = fb = _scalar(log_f, x0)

    # walk uphill, doubling the step, until the maximum is bracketed
    for _ in range(500):
        xr = xb + step
        fr = _scalar(log_f, xr) if xr > xb else -np.inf
        if fr > fb and xr > xb:
            xa, fa = xb, fb
            xb, fb = xr, fr
            step *= 2.0
            continue
        xl = max(xa - step, left)
        fl = _scalar(log_f, xl) if xl < xa else -np.inf
        if fl > fa and xl < xa:
            xb, fb = xa, fa
            xa, fa = xl, fl
            step *= 2.0
            continue
        # bracketed: widen the span by one step on each side when possible
        xa = max(xa - step, left)
        xb = xb + step
        break
    else:
        raise NumericError("could not bracket the integrand peak")

    xhat, fneg = _fminbound(lambda x: -_scalar(log_f, x), xa, xb, 1e-10 * max(1.0, abs(xb)))
    xhat, fhat = float(xhat), -float(fneg)
    if not np.isfinite(fhat):
        raise NumericError("integrand peak is not finite")

    def drop_at(d: float, sign: int) -> float:
        x = xhat + sign * d
        if x <= left:
            # width not measurable past the boundary on this side
            return -np.inf
        return fhat - _scalar(log_f, x)

    def half_width(sign: int) -> float:
        d = max(1e-8, 1e-6 * max(1.0, abs(xhat)))
        for _ in range(200):
            dr = drop_at(d, sign)
            if dr == -np.inf:
                return np.inf
            if dr >= 0.5:
                break
            d *= 2.0
        else:
            return np.inf
        lo_d, hi_d = d / 2.0, d
        for _ in range(60):
            mid = 0.5 * (lo_d + hi_d)
            if drop_at(mid, sign) >= 0.5:
                hi_d = mid
            else:
                lo_d = mid
        return hi_d

    widths = [w for w in (half_width(+1), half_width(-1)) if np.isfinite(w)]
    if not widths:
        raise NumericError("integrand has no measurable width around its peak")
    return xhat, min(widths)


# Brent's scalar solvers (Brent 1973): line-for-line ports of scipy's brentq
# (Zeros/brentq.c) and bounded minimize_scalar, bitwise equal to both


def _brentq(f, xa: float, xb: float, xtol=2e-12, rtol=4 * 2.220446049250313e-16, maxiter=100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]``."""

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericError(f"root-finder met f({x!r}) = nan")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(f"root-finder bracket [{xa!r}, {xb!r}] has the same sign at both ends")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NumericError(f"root-finder did not converge in {maxiter} iterations (last x = {xcur!r})")


def _fminbound(func, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimum ``(xf, fx)`` of ``func`` on ``[a, b]`` by golden-section and parabolic steps."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    nfc = xf = fulc = a + golden_mean * (b - a)
    rat = e = 0.0
    fx, num = func(xf), 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = not abs(e) > tol1
        if not golden:  # parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter
            break
    return xf, fx
