"""Log-domain quadrature for sharply peaked integrands.

``exp(log_f)`` is integrated by one fixed double-exponential rule (Takahasi
& Mori, *Publ. RIMS* 9, 1974; Trefethen & Weideman, *SIAM Review* 56, 2014):
the trapezoid rule with 173 nodes at h = 0.07 in s, |s| <= 6.02, mapped
around the peak c of width sigma and summed as log-sum-exp.  On the whole
line ``x = c + sigma sinh(s)``.  With a finite end a nearest c, ``x - a =
L exp(tau sinh(s))`` with ``L = max(|c - a|, 4 sigma)`` and ``tau = sigma/L``,
which absorbs endpoint behaviour like ``(x - a)^(k - 1)``, and the offset
``x - c = L expm1(tau sinh(s))`` does not cancel; with two finite ends the
exponential becomes a logistic on the width.  An integral counts as
divergent when the outermost node of an infinite end carries more than
1e-16 of the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["LogQuad", "log_integral"]

# the rule's step and nodes in s; the largest exponent tau sinh(s) kept on
# a finite end; the largest log share of the outermost node of an infinite end;
# the rounds of nodes ``_locate`` takes before it gives up
_H = 0.07
_S = _H * np.arange(-86, 87)
_Z_MAX = 50.0
_LOG_TAIL = math.log(1e-16)
_ROUNDS = 12


def _logsumexp(values: np.ndarray):
    """log(sum(exp(values))) over the last axis: a float for a 1-D input, and
    for a 2-D input one value per row, bitwise equal to that row's float."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -np.inf
    top = np.max(values, axis=-1, keepdims=True)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # only in rows that return their top
        out = np.where(finite, shift + np.log(np.sum(np.exp(values - shift), axis=-1, keepdims=True)), top)
    return float(out[..., 0]) if out.ndim == 1 else out[..., 0]


@dataclass(frozen=True)
class LogQuad:
    """Result of a log-domain integration.

    ``logsumexp(log_terms)`` equals ``log_value``; ``offsets`` are the
    ``nodes`` less ``center`` in units of ``scale``, formed without
    cancellation.  ``panels`` is 1: the rule is one panel.
    """

    log_value: float
    nodes: np.ndarray
    offsets: np.ndarray
    log_terms: np.ndarray
    center: float
    scale: float
    panels: int


def _rule(c: float, scale: float, lo: float, hi: float):
    """Nodes x of the rule on [lo, hi], their offsets x - c and log weights,
    and the indices of the nodes at an infinite end.  Near a finite end x is
    formed from that end and x - c from c, so neither cancels."""
    sinh, log_cosh = np.sinh(_S), np.log(np.cosh(_S))
    if lo == -np.inf and hi == np.inf:
        return c + scale * sinh, scale * sinh, math.log(_H * scale) + log_cosh, [0, -1]
    # a is the finite end nearest the peak; sign points from a into the range
    a, sign = (lo, 1.0) if hi == np.inf or (lo > -np.inf and c - lo <= hi - c) else (hi, -1.0)
    width = hi - lo
    L = min(max(abs(c - a), 4.0 * scale), 0.5 * width)
    tau = min(scale / L, 0.25)
    z = tau * sinh[tau * sinh <= _Z_MAX]
    log_dz = math.log(_H * tau) + log_cosh[: z.size]
    if width == np.inf:  # x - a = L e^z; (a - c + sign L) is 0 when L = |c - a|
        d = (a - c + sign * L) + sign * L * np.expm1(z)
        return a + sign * L * np.exp(z), d, math.log(L) + z + log_dz, [-1]
    # x - a = W expit(zz), whose derivative is W expit(zz) expit(-zz)
    zz = z + math.log(L / (width - L))
    y = width / (1.0 + np.exp(-zz))
    log_w = math.log(width) - np.logaddexp(0.0, -zz) - np.logaddexp(0.0, zz) + log_dz
    return a + sign * y, (a - c) + sign * y, log_w, []


def log_integral(
    log_f, center: float, scale: float, lo: float = -np.inf, hi: float = np.inf, relative: bool = False
) -> LogQuad:
    """Integrate ``exp(log_f)`` over ``[lo, hi]`` around a peak at ``center``
    of width ``scale``; with ``relative=True``, ``log_f`` takes ``x - center``.

    Raises :class:`NumericError` when the scale is not resolvable at the
    center, when the integrand is NaN or +inf, or when it decays too slowly
    (or diverges) for the 1e-16 test at an infinite end.
    """
    if hi <= lo:
        raise NumericError(f"empty integration range [{lo}, {hi}]")
    c = float(min(max(center, lo), hi)) if np.isfinite(center) else lo
    if not np.isfinite(scale) or scale <= 0.0 or (not relative and c + scale == c):
        raise NumericError(f"invalid quadrature scale {scale!r} at center {c!r}")
    x, d, log_w, ends = _rule(c, scale, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        log_terms = np.asarray(log_f(d if relative else x), dtype=float) + log_w
    total = _logsumexp(log_terms)
    if not total < np.inf or (total > -np.inf and np.any(log_terms[ends] - total > _LOG_TAIL)):
        raise NumericError(f"integrand decays too slowly, diverges or is not finite (center={c!r}, scale={scale!r})")
    return LogQuad(total, x, d / scale, log_terms, c, scale, panels=1)


def _locate(log_f, lo: float, x0: float, scale: float) -> tuple[float, float]:
    """Centre and width of the mass of ``exp(log_f)`` on ``[lo, inf)``, for
    integrands without a known saddle: the weighted mean and standard
    deviation of the rule's nodes around ``(x0, scale)``.  While one node
    holds more than a quarter of the mass, or the outermost node more than
    1e-16 of it, the nodes are taken again around the heaviest node, with
    its spacing as the scale.  Raises :class:`NumericError` when the
    integrand is NaN or +inf on the nodes, vanishes on all of them, or is
    not resolved in ``_ROUNDS`` rounds (it diverges or decays too slowly)."""
    for _ in range(_ROUNDS):
        x, d, log_w, ends = _rule(x0, scale, lo, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            log_terms = np.asarray(log_f(x), dtype=float) + log_w
        total = _logsumexp(log_terms)
        if not -np.inf < total < np.inf:
            raise NumericError(f"integrand diverges, vanishes or is not finite on the nodes around {x0!r}")
        p = np.exp(log_terms - total)
        top = int(np.argmax(p))
        if p[top] <= 0.25 and not np.any(log_terms[ends] - total > _LOG_TAIL):
            mean = float(np.sum(p * d))
            return x0 + mean, math.sqrt(float(np.sum(p * (d - mean) ** 2)))
        x0, scale = float(x[top]), float(np.exp(log_w[top]))
    raise NumericError(f"integrand diverges or decays too slowly: its mass is not resolved around {x0!r}")


def _root(step, x: float, lo: float = -math.inf, ftol=None, max_iter: int = 100, name="root-finder") -> float:
    """Root of an increasing F on (lo, inf): the bracketed Newton-bisection
    hybrid "rtsafe" of Press et al., *Numerical Recipes*, 3rd ed., sec. 9.4.

    ``step(x)`` returns F(x) and the Newton iterate from x.  The iterate is
    taken when it lies strictly inside the bracket the iterates have shown
    and its step is at most half the larger of the last two; otherwise the
    bracket is bisected (geometrically about lo, or 0, when its ends are a
    factor 4 apart on one side), or the unshown side is grown: by doubling
    toward infinity, by squared ratios toward a finite lo.  The start must
    evaluate; a later NumericError counts as beyond the root.  The root is
    the first x with |F| <= ``ftol`` (a bracket that closes first is a
    stall) or, without ftol, F = 0, a step within four ulps or a closed
    bracket.  NaN F is a NumericError; a side grown past its end, or whose
    F moves by ftol or less, is a DomainError.
    """
    below, above = lo, math.inf  # an end is shown once an iterate lies on it
    dx = dx_old = math.inf
    shrink, width, f_grown = 0.5, 0.0, None
    for i in range(max_iter):
        try:
            f, x_new = step(x)
            x_good = x
        except NumericError:
            if i == 0:
                raise
            f, x_new = math.copysign(math.inf, x - x_good), math.nan
        if math.isnan(f):
            raise NumericError(f"{name} met a NaN residual at x = {x!r}")
        if f == 0.0 or (ftol is not None and abs(f) <= ftol):
            return x
        if f_grown is not None and abs(f - f_grown) <= ftol:
            raise DomainError(f"{name} has no root: the residual stops changing at x = {x!r}")
        below, above = (below, x) if f > 0.0 else (x, above)
        newton, f_grown = x_new - x, None
        if ftol is None and abs(newton) <= 4.0 * math.ulp(x):
            return x_new
        if below < x_new < above and abs(newton) <= 0.5 * max(abs(dx), abs(dx_old)):
            pass  # the Newton step
        elif lo < below and above < math.inf:  # bisect, geometrically when the ends are a factor 4 apart
            anchor = lo if lo > -math.inf else 0.0
            da, db = below - anchor, above - anchor
            if 0.0 < 4.0 * da < db or db < 0.0 and da < 4.0 * db:
                x_new = anchor + math.copysign(math.sqrt(abs(da)) * math.sqrt(abs(db)), db)
            else:
                x_new = below + 0.5 * (above - below)
            if x_new in (below, above):
                if ftol is None:
                    return x
                raise NumericError(f"{name} stalled at |residual| = {abs(f):.3e} (tolerance {ftol:.3e})")
        else:  # grow the side the root lies on
            if f < 0.0 or lo == -math.inf:
                width = max(2.0 * width, abs(x), 1.0)
                x_new = x - math.copysign(width, f)
            else:
                d = x - lo  # no further than the smallest normal float while d is above it
                x_new, shrink = lo + max(d * shrink, min(0.5 * d, np.finfo(float).tiny)), shrink * shrink
            if not below < x_new < above:
                raise DomainError(f"{name} has no root: the residual keeps its sign up to x = {x!r}")
            f_grown = f if ftol is not None else None
        dx_old, dx, x = dx, x_new - x, x_new
    raise NumericError(f"{name} did not converge in {max_iter} steps (last x = {x!r})")
