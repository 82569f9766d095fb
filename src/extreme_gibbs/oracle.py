"""Ground-truth machinery: grid convolutions, exact conditionals, Monte Carlo.

The exact conditional law of one coordinate given a sum constraint follows
from the Bayes factorization

    p(X_1 = y | S_n = n a) = p(y) f_(n-1)(n a - y) / f_n(n a)

with f_j the j-fold convolution density.  Evaluated literally on the raw
density this is numerically hopeless at extreme levels: f_n(n a) sits
exp(-n I(a)) below the convolution peak, far under float precision.  The
factorization, however, is invariant under exponential tilting, so this
module convolves the *tilted* density at level a instead; the conditioning
point then lies at the center of every grid and all factors are O(1).  The
resulting values are mathematically identical to the raw formula.

Monte Carlo conditioning uses the same trick: proposals are drawn i.i.d.
from the tilted density, whose sample mean already concentrates at the
target level, so the acceptance window keeps a constant fraction of draws
instead of an exponentially small one.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, NumericError, RangeError, ResourceError, _count
from .gibbs import _block
from .model import DensityModel
from . import quad
from .tilt import TiltParams, log_tilted_density, solve_tilt_cached, tilt_moments, tilted_density

__all__ = [
    "GridDensity",
    "discretize",
    "ConvolutionTable",
    "ConditionalOracle",
    "get_oracle",
    "McSample",
    "mc_conditional_sample",
    "TVResult",
    "tv_distance",
    "tv_from_values",
    "tv_histogram",
    "ks_statistic",
]

_MAX_GRID_POINTS = 40_000_000

# Convolution values below this fraction of their peak are FFT round-off
# (untrimmed powers carry noise up to about 2e-15 of the peak).
_ROUNDOFF_FLOOR = 64 * np.finfo(float).eps


@dataclass
class GridDensity:
    """A density tabulated on a uniform grid, normalized to unit mass."""

    lo: float
    hi: float
    step: float
    values: np.ndarray
    mass: float
    clipped: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 2:
            raise DomainError("grid needs at least two nodes")
        span = (self.hi - self.lo) / self.step
        if abs(span - (n - 1)) > 1e-6:
            raise DomainError("(hi - lo)/step must match the node count")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    def x(self) -> np.ndarray:
        return self.lo + self.step * np.arange(len(self.values))

    def trapz_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def normalized(self) -> "GridDensity":
        m = self.trapz_mass()
        if not (m > 0):
            raise NumericError("cannot normalize a grid with nonpositive mass")
        return GridDensity(self.lo, self.hi, self.step, self.values / m, 1.0, self.clipped)

    def interp(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.x(), self.values, left=0.0, right=0.0)

    def mean(self) -> float:
        xs = self.x()
        return float(np.trapezoid(xs * self.values, dx=self.step) / self.trapz_mass())

    def var(self) -> float:
        xs = self.x()
        m = self.mean()
        return float(np.trapezoid((xs - m) ** 2 * self.values, dx=self.step) / self.trapz_mass())


def _tail_mass(log_f, edge_scale, support_lo: float, lo: float, hi: float) -> float:
    """Mass of exp(log_f) outside [lo, hi] by log-space tail quadrature;
    ``edge_scale(x)`` is the integrand's width at the edge x, which the
    quadrature takes for its peak."""
    total = 0.0
    if lo > support_lo:
        res = quad.log_integral(log_f, center=lo, scale=edge_scale(lo), lo=support_lo, hi=lo)
        total += math.exp(res.log_value)
    res = quad.log_integral(log_f, center=hi, scale=edge_scale(hi), lo=hi)
    total += math.exp(res.log_value)
    return total


def _edge_scale(model: DensityModel, x: float) -> float:
    try:
        hp = float(model.h_prime(max(x, model.h_zero + 1e-9)))
        if hp > 0 and np.isfinite(hp):
            return 1.0 / math.sqrt(hp)
    except (ValueError, FloatingPointError):
        pass
    return 1.0


def discretize(source, lo: float, hi: float, step: float, clipped_mass: float | None = None) -> GridDensity:
    """Tabulate a density on [lo, hi] and renormalize to unit mass.

    ``source`` is a DensityModel or a callable returning density values.
    The clipped tail mass is recorded; for models it is computed by tail
    quadrature, for callables it is estimated as the trapezoid mass deficit
    unless the caller supplies a sharper ``clipped_mass`` figure.  Raises
    RangeError when more than 1e-6 of mass falls outside the grid.
    """
    if not (-np.inf < lo < hi < np.inf) or not (0.0 < step < np.inf):
        raise DomainError("need finite hi > lo and a finite step > 0")
    n = int(round((hi - lo) / step)) + 1
    if n > _MAX_GRID_POINTS:
        raise ResourceError(f"grid of {n} nodes exceeds the memory guard; coarsen the step")
    xs = lo + step * np.arange(n)
    if isinstance(source, DensityModel):
        vals = np.exp(source._log_density_clipped(xs))
        clipped = clipped_mass
        if clipped is None:
            clipped = _tail_mass(source._log_density_clipped, partial(_edge_scale, source), source.support_lo, lo, xs[-1])
    else:
        vals = np.asarray(source(xs), dtype=float)
        if clipped_mass is None:
            clipped = max(0.0, 1.0 - float(np.trapezoid(vals, dx=step)))
        else:
            clipped = clipped_mass
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise DomainError("density values must be finite and nonnegative")
    if clipped > 1e-6:
        raise RangeError(f"clipped tail mass {clipped:.3e} exceeds 1e-6; widen the bounds")
    g = GridDensity(lo, float(xs[-1]), step, vals, float(np.trapezoid(vals, dx=step)), clipped)
    return g.normalized()


def _fast_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: a length pocketfft transforms quickly."""
    odd = (3**j * 5**k for j in range(n.bit_length()) for k in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def _convolve_pair(a: GridDensity, b: GridDensity) -> GridDensity:
    if abs(a.step - b.step) > 1e-15 * max(a.step, b.step):
        raise DomainError("convolution requires identical grid steps")
    n_out = len(a.values) + len(b.values) - 1
    if n_out > _MAX_GRID_POINTS:
        raise ResourceError(f"convolution of {n_out} nodes exceeds the memory guard; coarsen the step")
    # half-weight endpoints make the discrete sum a trapezoid rule on the
    # overlap, which matters when a density jumps at its support edge
    av = a.values.copy()
    bv = b.values.copy()
    av[0] *= 0.5
    av[-1] *= 0.5
    bv[0] *= 0.5
    bv[-1] *= 0.5
    nfft = _fast_len(n_out)
    vals = np.fft.irfft(np.fft.rfft(av, nfft) * np.fft.rfft(bv, nfft), nfft)[:n_out] * a.step
    # zero everything under the round-off floor (negative noise included)
    # and drop the zero runs at both ends; lo moves by whole steps, so the
    # power stays on the base lattice
    vals[vals < _ROUNDOFF_FLOOR * vals.max()] = 0.0
    kept = np.flatnonzero(vals)
    if kept.size < 2:
        raise NumericError("convolution power has fewer than two nodes above the round-off floor")
    vals = vals[kept[0] : kept[-1] + 1].copy()
    lo = a.lo + b.lo + a.step * kept[0]
    hi = lo + a.step * (len(vals) - 1)
    return GridDensity(lo, hi, a.step, vals, float(np.trapezoid(vals, dx=a.step))).normalized()


class ConvolutionTable:
    """Convolution powers of a base grid, computed lazily by binary splits.

    ``power(n)`` is the density of the sum of n i.i.d. copies. A power is a
    deterministic function of n, so threads may share a table without a
    lock: two threads that compute the same power store equal arrays.
    """

    def __init__(self, base: GridDensity, tp: TiltParams | None = None):
        self.tp = tp  # the tilt the base density was taken at, if any
        self._powers: dict[int, GridDensity] = {1: base}

    def power(self, j: int) -> GridDensity:
        if j < 1:
            raise DomainError(f"convolution power must be >= 1, got {j!r}")
        got = self._powers.get(j)
        if got is not None:
            return got
        half = 1 << (j.bit_length() - 1)
        if half == j:
            part = self.power(j // 2)
            out = _convolve_pair(part, part)
        else:
            out = _convolve_pair(self.power(half), self.power(j - half))
        self._powers[j] = out
        return out


# ---------------------------------------------------------------------------
# exact conditionals
# ---------------------------------------------------------------------------


def _log_interp(grid: GridDensity, v) -> np.ndarray:
    """Log of linearly interpolated grid values; -inf outside or at zeros."""
    vals = grid.interp(v)
    out = np.full(np.shape(vals), -np.inf)
    pos = vals > 0
    out[pos] = np.log(vals[pos])
    return out


def _cell_log_integrals(x: np.ndarray, logf: np.ndarray) -> np.ndarray:
    """Per-cell trapezoid integrals of exp(logf), in log scale."""
    step = x[1] - x[0]
    return np.log(0.5 * step) + np.logaddexp(logf[:-1], logf[1:])


# Tables by (model, a_n, step, pad), alive while an oracle holds one, so live
# oracles at one level share a table however many levels were built since.
# The lock gives oracles built at once one table; it never covers a convolution.
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()


def _tilted_table(model: DensityModel, a_n: float, step: float, pad: float) -> ConvolutionTable:
    """The convolution table of the tilted density at level a_n; its ``tp`` is the tilt."""
    with _TABLE_LOCK:
        table = _TABLES.get((model, a_n, step, pad))
        if table is None:
            tp = solve_tilt_cached(model, a_n)
            if tp.t < 0.0:
                # below-mean levels are not rare events; an upward-reweighted
                # tilted grid would amplify convolution noise, so use the raw
                # density (tilt zero) instead - the factorization is invariant
                tp = tilt_moments(model, 0.0)
            lo = max(model.support_lo, tp.a - pad * tp.s)
            hi = tp.a + pad * tp.s
            base = discretize(
                lambda x: tilted_density(model, tp, x),
                lo,
                hi,
                step,
                clipped_mass=_tail_mass(partial(log_tilted_density, model, tp), lambda x: tp.s, model.support_lo, lo, hi),
            )
            table = _TABLES[model, a_n, step, pad] = ConvolutionTable(base, tp)
    return table


class ConditionalOracle:
    """Exact conditional laws for one model at one (n, a_n) pair.

    Takes the tilted base grid and its convolution powers from a table that
    is shared across n, and uses them for the conditional densities of one
    and two coordinates, exceedance conditionals, tail probabilities, and
    sum densities.  The conditional methods take arrays and return arrays.
    """

    def __init__(
        self,
        model: DensityModel,
        n: int,
        a_n: float,
        step: float = 1e-3,
        pad: float = 14.0,
    ):
        self.model = model
        self.n = _count("n", n, 2)
        self.a_n = float(a_n)
        self.step = float(step)
        self.table = _tilted_table(model, self.a_n, self.step, float(pad))
        self.tp = self.table.tp
        self._suffix_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- point conditionals ---------------------------------------------------

    def _log_conditional(self, log_num: np.ndarray, rest: np.ndarray, k: int) -> np.ndarray:
        """log_num + log f_(n-k)(rest) - log f_n(n a_n), in that order.

        ``rest`` is n a_n minus the sum of the k conditioned coordinates.
        """
        f_rest = self.table.power(self.n - k)
        f_full = self.table.power(self.n)
        logs = log_num + _log_interp(f_rest, rest)
        logs -= float(_log_interp(f_full, np.asarray([self.n * self.a_n]))[0])
        return logs

    def conditional_curve(self, ys: np.ndarray) -> np.ndarray:
        """Density of X_1 given the sum equals n a_n, over an array of y."""
        ys = np.asarray(ys, dtype=float)
        logs = log_tilted_density(self.model, self.tp, ys)
        return np.exp(self._log_conditional(logs, self.n * self.a_n - ys, 1))

    def joint2_grid(self, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """Density of (X_1, X_2) given the sum equals n a_n, on y1 x y2."""
        if self.n <= 2:
            raise DomainError("joint conditional needs n > 2")
        y1, y2 = _block(y1), _block(y2)
        self.table.power(self.n - 2)  # convolve first: its memory peak and the grids' must not add up
        l1 = log_tilted_density(self.model, self.tp, y1)
        l2 = log_tilted_density(self.model, self.tp, y2)
        rest = self.n * self.a_n - (y1[:, None] + y2[None, :])
        return np.exp(self._log_conditional(l1[:, None] + l2[None, :], rest, 2))

    # -- exceedance conditional and tails -------------------------------------

    def _suffix(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Suffix log integrals of e^(-t v) f_j(v) from each node upward."""
        got = self._suffix_cache.get(j)
        if got is not None:
            return got
        grid = self.table.power(j)
        v = grid.x()
        with np.errstate(divide="ignore"):
            logf = np.where(grid.values > 0, np.log(grid.values), -np.inf)
        logg = -self.tp.t * v + logf
        cells = _cell_log_integrals(v, logg)
        suffix = np.full(len(v), -np.inf)
        suffix[:-1] = np.logaddexp.accumulate(cells[::-1])[::-1]
        self._suffix_cache[j] = (v, logg, suffix)
        return self._suffix_cache[j]

    def _log_exp_tail(self, j: int, v0) -> np.ndarray:
        """log of int_{v0}^inf e^(-t v) f_j(v) dv, vectorized in v0."""
        v, logg, suffix = self._suffix(j)
        v0 = np.atleast_1d(np.asarray(v0, dtype=float))
        out = np.full(v0.shape, -np.inf)
        step = v[1] - v[0]
        below = v0 <= v[0]
        out[below] = suffix[0]
        inside = (v0 > v[0]) & (v0 < v[-1])
        if np.any(inside):
            vi = v0[inside]
            idx = np.minimum(((vi - v[0]) / step).astype(int), len(v) - 2)
            hi_node = v[idx + 1]
            # fractional cell [v0, node] plus the stored suffix from the node
            frac = hi_node - vi
            g_at = np.interp(vi, v, np.where(np.isfinite(logg), logg, -745.0))
            g_at = np.where(np.isfinite(logg[idx]) | np.isfinite(logg[idx + 1]), g_at, -np.inf)
            part = np.log(0.5 * np.maximum(frac, 1e-300)) + np.logaddexp(g_at, logg[idx + 1])
            out[inside] = np.logaddexp(part, suffix[idx + 1])
        return out

    def log_tail(self) -> float:
        """log P(S_n >= n a_n)."""
        return self.n * self.tp.log_phi + float(
            self._log_exp_tail(self.n, np.asarray([self.n * self.a_n]))[0]
        )

    def exceedance_curve(self, ys: np.ndarray) -> np.ndarray:
        """Density of X_1 given the sum exceeds n a_n, over an array of y."""
        ys = np.asarray(ys, dtype=float)
        target = self.n * self.a_n
        log_a = self._log_exp_tail(self.n - 1, target - ys)
        log_b = self._log_exp_tail(self.n, np.asarray([target]))[0]
        logp = self.model._log_density_clipped(ys)
        return np.exp(logp - self.tp.log_phi + log_a - log_b)

    def log_mean_density(self, tau: float) -> float:
        """log density of the sample mean at tau (n times the sum density)."""
        x = self.n * tau
        # the raw sum density is e^(n log_phi - t x) times the tilted one
        log_sum = self.n * self.tp.log_phi - self.tp.t * x + float(_log_interp(self.table.power(self.n), [x])[0])
        return math.log(self.n) + log_sum

    def default_ygrid(self) -> np.ndarray:
        """The oracle's step over a_n +- 10 tilted sd, cut at the support edge."""
        s = self.tp.s
        lo = max(self.model.support_lo, self.a_n - 10.0 * s)
        hi = self.a_n + 10.0 * s
        return np.arange(lo, hi + 0.5 * self.step, self.step)


@lru_cache(maxsize=64)
def get_oracle(model: DensityModel, n: int, a_n: float, step: float = 1e-3, pad: float = 14.0) -> ConditionalOracle:
    """Shared oracle cache; models hash by identity."""
    return ConditionalOracle(model, n, a_n, step=step, pad=pad)


# ---------------------------------------------------------------------------
# Monte Carlo conditioning
# ---------------------------------------------------------------------------


@dataclass
class McSample:
    """Accepted first-coordinate draws (rejected ones are not kept) of one MC run."""

    x1: np.ndarray
    acceptance_rate: float
    n_proposals: int
    epsilon: float
    tp: TiltParams


# nodes of the sampler's inverse-CDF table, proposal rows drawn per batch
# (one random stream each), draws looked up per chunk (1 MB temporaries,
# whatever the batch), and equal-probability cells of the guide table (a
# power of two, so u * _GUIDE_CELLS is exact)
_CDF_NODES = 20001
_MC_BATCH = 65536
_MC_CHUNK = 1 << 17
_GUIDE_CELLS = 1 << 18


def _inverse_cdf_table(model: DensityModel, tp: TiltParams | None):
    """Inverse-CDF sampler table for the tilted (or raw) density."""
    if tp is not None:
        s = tp.s
        lo = max(model.support_lo, tp.a - 14.0 * s)
        hi = tp.a + 14.0 * s
        xs = np.linspace(lo, hi, _CDF_NODES)
        vals = np.exp(log_tilted_density(model, tp, xs))
    else:
        lo = model.support_lo
        hi = max(model.h_zero, lo) + 1.0
        peak = float(np.max(model._log_density_clipped(np.linspace(lo, hi, 64))))
        while float(model._log_density_clipped(np.asarray([hi]))[0]) > peak - 80.0:
            hi = lo + 2.0 * (hi - lo)
        xs = np.linspace(lo, hi, _CDF_NODES)
        vals = np.exp(model._log_density_clipped(xs))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    return xs, cdf


class _GuideTable:
    """``np.interp(u, cdf, xs)`` for u in [0, 1), bit for bit, by indexed search.

    Chen & Asau (1974); Devroye (1986), ch. III.  u is cut into G cells of
    width 1/G (cdf runs from 0 to 1).  Cell c stores the last node j with
    ``cdf[j] <= c/G`` (exact, because ``cdf * G`` is) unless a node lies in
    (c/G, (c+1)/G].  Then every u in the cell has ``cdf[j] <= u <
    cdf[j+1]``: the interval ``np.interp`` finds.  And ``cdf[j+1] - cdf[j] >
    1/G``, so the slope is finite and positive and the lookup is numpy's own
    ``slope*(u - cdf[j]) + xs[j]``: numpy's NaN retry never fires, and at an
    exact hit the product is +0.0, which leaves ``xs[j]`` unchanged
    (linspace makes no -0.0).  A cell that holds a node (about 2% of draws
    at G = 2^18) stores the sentinel ``len(cdf) - 1``, whose slope is 0, and
    its draws go to ``np.interp`` itself.
    """

    def __init__(self, xs: np.ndarray, cdf: np.ndarray):
        self.xs, self.cdf = xs, cdf
        self.miss = len(cdf) - 1
        with np.errstate(divide="ignore", over="ignore"):  # (near-)flat cdf runs: never looked up
            self.slopes = np.append(np.diff(xs) / np.diff(cdf), 0.0)
        # the last node with cdf <= c/G is the last with first <= c; the
        # smallest index type keeps the table in cache (uint16: 512 kB)
        first = np.ceil(cdf * _GUIDE_CELLS).astype(np.intp)
        nodes = np.arange(len(cdf), dtype=np.min_scalar_type(self.miss))
        self.code = np.repeat(nodes, np.diff(first, append=_GUIDE_CELLS))
        self.code[first[first > 0] - 1] = self.miss  # cells that hold a node

    def __call__(self, u: np.ndarray) -> np.ndarray:
        j = self.code[(u * _GUIDE_CELLS).astype(np.intp)].astype(np.intp)
        out = self.cdf[j]  # slopes[j]*(u - cdf[j]) + xs[j], in place
        np.subtract(u, out, out=out)
        out *= self.slopes[j]
        out += self.xs[j]
        miss = j == self.miss
        out[miss] = np.interp(u[miss], self.cdf, self.xs)
        return out


def mc_conditional_sample(
    model: DensityModel,
    n: int,
    a_n: float,
    epsilon: float,
    n_draws: int,
    seed: int,
    proposal: str = "tilted",
) -> McSample:
    """Sample X_1 given |S_n / n - a_n| <= epsilon by accept/reject.

    Proposals are rows of n i.i.d. draws from the tilted density at level
    a_n (or from the raw density with ``proposal="raw"``, which is useful
    only to demonstrate how badly that performs).  Streams are derived from
    ``(seed, batch_index)`` so identical seeds give bit-identical output and
    batches are independent.
    """
    n = _count("n", n, 1)
    n_draws = _count("n_draws", n_draws, 1)
    seed = _count("seed", seed, 0)
    if not (epsilon > 0):
        raise DomainError("epsilon must be positive")
    if proposal not in ("tilted", "raw"):
        raise DomainError(f"proposal must be 'tilted' or 'raw', got {proposal!r}")
    tp = solve_tilt_cached(model, float(a_n))
    inverse_cdf = _GuideTable(*_inverse_cdf_table(model, tp if proposal == "tilted" else None))

    # accepted draws, grown in place (realloc) chunk by chunk so that they are held once
    x1 = np.empty(0)
    chunk = max(1, _MC_CHUNK // n)
    for start in range(0, n_draws, _MC_BATCH):
        rows = min(_MC_BATCH, n_draws - start)
        rng = np.random.default_rng([seed, start // _MC_BATCH])
        for done in range(0, rows, chunk):
            draws = inverse_cdf(rng.random((min(chunk, rows - done), n)))
            mask = np.abs(draws.mean(axis=1) - a_n) <= epsilon
            accepted = draws[mask, 0]
            x1.resize(x1.size + accepted.size, refcheck=False)
            x1[x1.size - accepted.size :] = accepted

    rate = x1.size / n_draws
    if rate < 1e-6 and proposal == "tilted":
        raise NumericError(
            f"acceptance rate {rate:.2e} below 1e-6; enlarge epsilon "
            f"(CLT scale is s/sqrt(n) = {tp.s / math.sqrt(n):.3g})"
        )
    return McSample(
        x1=x1,
        acceptance_rate=rate,
        n_proposals=n_draws,
        epsilon=float(epsilon),
        tp=tp,
    )


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TVResult:
    tv: float
    sup_gap: float


def tv_distance(fv: np.ndarray, gv: np.ndarray, xs: np.ndarray) -> TVResult:
    """Total variation distance (half the L1 gap) after renormalizing both.

    ``fv`` and ``gv`` are density values on the nodes ``xs``; integrals use the trapezoid rule.
    """
    fv, gv, xs = (np.asarray(v, dtype=float) for v in (fv, gv, xs))
    if fv.shape != xs.shape or gv.shape != xs.shape:
        raise DomainError("value arrays must lie on the grid nodes")
    mf = np.trapezoid(fv, xs)
    mg = np.trapezoid(gv, xs)
    if not (mf > 0 and mg > 0):
        raise DomainError("both densities must carry positive mass on the grid")
    fv = fv / mf
    gv = gv / mg
    diff = fv - gv
    return TVResult(
        tv=float(0.5 * np.trapezoid(np.abs(diff), xs)),
        sup_gap=float(np.max(np.abs(diff))),
    )


def tv_from_values(fv: np.ndarray, gv: np.ndarray, cell: float) -> float:
    """TV distance of two nonnegative value arrays sharing a uniform cell."""
    fv = np.asarray(fv, dtype=float)
    gv = np.asarray(gv, dtype=float)
    fs = fv.sum() * cell
    gs = gv.sum() * cell
    if not (fs > 0 and gs > 0):
        raise DomainError("both value arrays must carry positive mass")
    return float(0.5 * np.sum(np.abs(fv / fs - gv / gs)) * cell)


def tv_histogram(samples: np.ndarray, density, lo: float, hi: float, bins: int) -> float:
    """TV distance between a sample histogram and a density, per bin mass."""
    samples = np.asarray(samples, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    inside = counts.sum()
    if inside == 0:
        raise DomainError("no samples fall inside [lo, hi]")
    p_hat = counts / inside
    fine = 8
    xs = np.linspace(lo, hi, bins * fine + 1)
    vals = np.asarray(density(xs), dtype=float)
    cell_mass = np.add.reduceat(
        0.5 * (vals[1:] + vals[:-1]) * np.diff(xs), np.arange(0, bins * fine, fine)
    )
    cell_mass = cell_mass / cell_mass.sum()
    return float(0.5 * np.sum(np.abs(p_hat - cell_mass)))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise DomainError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
