"""Third-order Edgeworth density for standardized sums of tilted variables.

For a row of n i.i.d. variables drawn from a tilted density with third
centered moment mu3 and standard deviation s, the standardized sum density
is approximated by

    phi(x) * (1 + mu3 / (6 sqrt(n) s^3) * (x^3 - 3 x))

The cubic Hermite correction integrates to zero and is mean and variance
neutral, so the approximation is an exact probability density in its first
two moments.  In far tails it can dip below zero; values are returned as-is
(clipping would silently break those integral identities) and the negative
mass is reported separately as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import DensityModel
from .oracle import ConvolutionTable, discretize
from .tilt import TiltParams, normalized_tilted_density, tilt_moments

__all__ = [
    "EdgeworthSpec",
    "edgeworth_density",
    "hermite3_factor",
    "edgeworth_negative_mass",
    "edgeworth_error_curve",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EdgeworthSpec:
    """Row size and tilt of the summands for an Edgeworth evaluation."""

    n: int
    tp: TiltParams

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"row size must be >= 2, got {self.n!r}")

    @property
    def skew_coeff(self) -> float:
        return self.tp.mu3 / (6.0 * math.sqrt(self.n) * self.tp.s2**1.5)


def _phi(x: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def edgeworth_density(spec: EdgeworthSpec, x):
    """Skew-corrected Gaussian density of the standardized sum."""
    arr = np.asarray(x, dtype=float)
    out = _phi(arr) * (1.0 + spec.skew_coeff * (arr**3 - 3.0 * arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def hermite3_factor(x):
    """(x^3 - 3x) phi(x), the kernel of the skew correction."""
    arr = np.asarray(x, dtype=float)
    out = (arr**3 - 3.0 * arr) * _phi(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def edgeworth_negative_mass(spec: EdgeworthSpec, lo: float = -12.0, hi: float = 12.0, step: float = 1e-3) -> float:
    """Total negative mass of the signed Edgeworth density on [lo, hi]."""
    x = np.arange(lo, hi + 0.5 * step, step)
    vals = edgeworth_density(spec, x)
    return float(-np.trapezoid(np.minimum(vals, 0.0), x))


def edgeworth_error_curve(
    model: DensityModel,
    t: float,
    ns: list[int],
    step: float = 1e-3,
    x_range: float = 4.0,
    u_max: float = 12.0,
) -> list[tuple[int, float, float]]:
    """Sup-norm gaps of the Edgeworth and plain Gaussian densities vs oracle.

    The oracle is the n-fold grid self-convolution of the standardized
    tilted density, rescaled back to unit variance.  Gaps are measured at the
    convolution grid nodes falling inside [-x_range, x_range], so no
    interpolation error enters the comparison.
    """
    if not ns or any(n < 2 for n in ns):
        raise DomainError("ns must be a nonempty list of integers >= 2")
    tp = tilt_moments(model, t)
    u_lo = max(-u_max, (model.support_lo - tp.a) / tp.s)
    table = ConvolutionTable(discretize(lambda u: normalized_tilted_density(model, tp, u), u_lo, u_max, step))

    out: list[tuple[int, float, float]] = []
    for n in ns:
        sum_grid = table.power(n)
        root_n = math.sqrt(n)
        xs = sum_grid.x() / root_n
        keep = np.abs(xs) <= x_range
        xs = xs[keep]
        rho = root_n * sum_grid.values[keep]
        spec = EdgeworthSpec(n=n, tp=tp)
        gap_edge = float(np.max(np.abs(rho - edgeworth_density(spec, xs))))
        gap_gauss = float(np.max(np.abs(rho - _phi(xs))))
        out.append((n, gap_edge, gap_gauss))
    return out
