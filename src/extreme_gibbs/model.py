"""Light-tailed density models on the nonnegative half line.

A model carries the decomposition ``p(x) = exp(-(g(x) - q(x)) + log_norm)``
with a convex, superlinear exponent term ``g``, a bounded perturbation ``q``,
and the slope function ``h = g'`` together with its first two derivatives.
The growth of ``h`` at infinity is classified as regularly varying with a
positive index or as rapidly varying; the classification metadata (index,
Karamata epsilon, constant) drives the asymptotic diagnostics.

Three built-ins cover the numerically interesting corners:

* ``make_weibull(k)``: polynomial-type tails, regularly varying slope.
* ``make_exp_exponential()``: doubly exponential tail, rapidly varying slope.
* ``make_half_gaussian()``: closed forms for every tilted quantity, used as
  an oracle to certify the quadrature paths.

User models are parsed from a small key-value file format, either from
expressions in ``x`` or from a tabulated ``(x, g, q)`` grid with cubic
interpolation.  Symbolic differentiation is out of scope: derivatives missing
from a custom specification fall back to central differences.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quad
from .config import _read_kv
from .errors import ConfigError, DomainError, NumericError

__all__ = [
    "VariationClass",
    "ClosedForms",
    "DensityModel",
    "make_weibull",
    "make_exp_exponential",
    "make_half_gaussian",
    "model_from_spec",
    "model_diagnostics",
    "variation_report",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Taylor coefficients, highest order first, of e^z - 1 - z and log(1 + r) - r:
# below 0.1 in magnitude each Horner sum is good to 1e-17 relative
_EXPM1X = tuple(1.0 / math.factorial(n) for n in range(13, 1, -1))
_LOG1PMX = tuple((-1.0) ** (n + 1) / n for n in range(18, 1, -1))


def _series(coeffs: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    acc = coeffs[0] * z
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    return (acc + coeffs[-1]) * (z * z)


def _expm1x(z: np.ndarray) -> np.ndarray:
    """e^z - 1 - z without cancellation."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(np.abs(z) < 0.1, _series(_EXPM1X, z), np.expm1(z) - z)


def _log_ndtr(t: float) -> float:
    """log Phi(t) for the standard normal cdf, accurate to about 1e-13 relative."""
    if t > 0.0:
        return math.log1p(-0.5 * math.erfc(t / math.sqrt(2.0)))
    if t > -20.0:
        return math.log(0.5 * math.erfc(-t / math.sqrt(2.0)))
    # asymptotic series: Phi(t) = phi(t)/|t| * (1 - 1/t^2 + 3/t^4 - 15/t^6 + ...)
    terms = [1.0]
    while abs(terms[-1]) > 1e-17:
        terms.append(-terms[-1] * (2 * len(terms) - 1) / (t * t))
    return -0.5 * t * t - math.log(-t) - 0.5 * _LOG_2PI + math.log(math.fsum(terms))


@dataclass(frozen=True, eq=False)
class VariationClass:
    """Growth classification of the slope function h at infinity.

    ``kind`` is ``"regular"`` (h is regularly varying with index ``beta``) or
    ``"rapid"`` (the inverse of h is slowly varying).  ``epsilon`` is the
    Karamata epsilon function: for the regular case the slowly varying factor
    of h is ``karamata_c * exp(int_1^x eps(u)/u du)``; for the rapid case the
    same representation holds for the inverse of h as a function of t.
    """

    kind: str
    beta: float | None
    epsilon: Callable[[np.ndarray], np.ndarray]
    karamata_c: float

    def __post_init__(self) -> None:
        if self.kind not in ("regular", "rapid"):
            raise DomainError(f"unknown variation kind {self.kind!r}")
        if self.kind == "regular" and not (self.beta is not None and self.beta > 0):
            raise DomainError("regular variation requires a positive index")
        if not (self.karamata_c > 0):
            raise DomainError("karamata_c must be positive")


@dataclass(frozen=True, eq=False)
class ClosedForms:
    """Optional analytic oracle quantities for a model.

    Every field is a callable of the tilt parameter t (or None).  These are
    never used by the numerical paths; they exist so tests can compare
    quadrature output against an independent analytic source.
    """

    log_mgf: Callable | None = None
    mean: Callable | None = None
    variance: Callable | None = None
    mu3: Callable | None = None


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Immutable density model; all operations are pure."""

    name: str
    g: Callable
    q: Callable
    h: Callable
    h_prime: Callable
    h_second: Callable
    variation: VariationClass
    support_lo: float
    log_norm: float
    q_bound: float
    h_zero: float
    h_min: float
    probes: tuple[float, ...]
    closed_forms: ClosedForms | None = None
    psi_closed: Callable | None = None
    g_remainder: Callable | None = None

    # -- density evaluation ------------------------------------------------

    def log_density(self, x):
        """Log density at x; raises DomainError below the support."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < self.support_lo):
            raise DomainError(
                f"x below support_lo={self.support_lo} for model {self.name!r}"
            )
        out = self._log_density_clipped(arr)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def _log_density_clipped(self, x: np.ndarray) -> np.ndarray:
        """Vectorized log density, -inf below the support (no raising)."""
        arr = np.asarray(x, dtype=float)
        out = np.full(arr.shape, -np.inf)
        ok = arr >= self.support_lo
        if np.any(ok):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                vals = -(self.g(arr[ok]) - self.q(arr[ok])) + self.log_norm
            out[ok] = vals
        return out

    def remainder(self, x0: float, d) -> np.ndarray:
        """R(x0, d) = g(x0 + d) - g(x0) - h(x0) d over an array d: in a form that
        does not cancel for the built-ins, as the plain difference otherwise."""
        d = np.asarray(d, dtype=float)
        if self.g_remainder is not None:
            return self.g_remainder(x0, d)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.g(x0 + d) - self.g(x0) - self.h(x0) * d

    def density(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.exp(self._log_density_clipped(arr))
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    # -- inverse of the slope function --------------------------------------

    def psi(self, t: float) -> float:
        """Solve h(x) = t for x on the monotone branch of h."""
        if not np.isfinite(t) or t < self.h_min:
            raise DomainError(
                f"t={t!r} below the range of h for model {self.name!r} "
                f"(h_min={self.h_min})"
            )
        if self.psi_closed is not None:
            return float(self.psi_closed(t))
        return _invert_slope(self.h, self.h_prime, float(t), self.support_lo, max(self.h_zero, self.support_lo) + 1.0)

    def psi_d1(self, t: float) -> float:
        """Derivative of the inverse of h: 1 / h'(psi(t))."""
        x = self.psi(t)
        hp = self.h_prime(x)
        if not (hp > 0):
            raise NumericError(f"h'({x}) <= 0; inverse derivative undefined")
        return 1.0 / float(hp)

    def psi_d2(self, t: float) -> float:
        """Second derivative of the inverse of h."""
        x = self.psi(t)
        d1 = self.psi_d1(t)
        return -float(self.h_second(x)) * d1**3


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def make_weibull(k: float) -> DensityModel:
    """Weibull density with shape k > 1 and unit scale.

    ``p(x) = k x^(k-1) exp(-x^k)`` so the exponent term is
    ``g(x) = x^k - (k-1) log x`` with slope ``h(x) = k x^(k-1) - (k-1)/x``,
    regularly varying with index k - 1.
    """
    if not (k > 1):
        raise DomainError(f"weibull shape must exceed 1, got {k!r}")
    k = float(k)
    km1 = k - 1.0

    # float64 (a scalar stays one): a level near 0 or past float range gives inf, not an exception
    def g(x):
        x = np.asarray(x, dtype=float)[()]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return x**k - km1 * np.log(x)

    def h(x):
        x = np.asarray(x, dtype=float)[()]
        with np.errstate(divide="ignore", over="ignore"):
            return k * x ** (k - 1.0) - km1 / x

    def h_prime(x):
        x = np.asarray(x, dtype=float)[()]
        with np.errstate(divide="ignore", over="ignore"):
            return k * km1 * x ** (k - 2.0) + km1 / x**2

    def h_second(x):
        x = np.asarray(x, dtype=float)[()]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return k * km1 * (k - 2.0) * x ** (k - 3.0) - 2.0 * km1 / x**3

    def g_remainder(x0, d):
        # x0^k [expm1x(k log1p r) + k log1pmx(r)] - (k-1) log1pmx(r), r = d/x0
        x0 = np.float64(x0)
        r = d / x0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lp = np.log1p(r)
            lm = np.where(np.abs(r) < 0.1, _series(_LOG1PMX, r), lp - r)
            out = x0**k * (_expm1x(k * lp) + k * lm) - km1 * lm
        return np.where(r > -1.0, out, np.inf)

    def eps(x):
        return k * km1 / (k * np.asarray(x, dtype=float) ** k - km1)

    variation = VariationClass(kind="regular", beta=km1, epsilon=eps, karamata_c=1.0)
    return DensityModel(
        name=f"weibull(k={k:g})",
        g=g,
        q=_zero,
        h=h,
        h_prime=h_prime,
        h_second=h_second,
        variation=variation,
        support_lo=0.0,
        log_norm=math.log(k),
        q_bound=0.0,
        h_zero=(km1 / k) ** (1.0 / k),
        h_min=-np.inf,
        probes=(10.0, 1e2, 1e3, 1e4),
        g_remainder=g_remainder,
    )


def make_exp_exponential() -> DensityModel:
    """Density proportional to exp(-e^(x-1)) on the half line.

    The slope ``h(x) = e^(x-1)`` is rapidly varying; its inverse is
    ``log t + 1`` with Karamata epsilon ``1/(log t + 1)``.  The normalizing
    constant is computed by quadrature at construction.
    """

    def g(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(x, dtype=float) - 1.0)

    def eps(t):
        return 1.0 / (np.log(np.asarray(t, dtype=float)) + 1.0)

    variation = VariationClass(kind="rapid", beta=None, epsilon=eps, karamata_c=1.0)
    res = quad.log_integral(lambda x: -g(x), center=0.0, scale=1.0, lo=0.0)
    return DensityModel(
        name="exp_exponential",
        g=g,
        q=_zero,
        h=g,
        h_prime=g,
        h_second=g,
        variation=variation,
        support_lo=0.0,
        log_norm=-res.log_value,
        q_bound=0.0,
        h_zero=0.0,
        h_min=math.exp(-1.0),
        probes=(5.0, 10.0, 1e2, 300.0),
        psi_closed=lambda t: np.log(t) + 1.0,
        g_remainder=lambda x0, d: math.exp(x0 - 1.0) * _expm1x(d),
    )


def make_half_gaussian() -> DensityModel:
    """Standard normal folded to the half line: p(x) = sqrt(2/pi) e^(-x^2/2).

    Every tilted quantity has a closed form (the tilted density is a
    truncated normal), which makes this the oracle model for the quadrature
    and solver paths.
    """

    def log_mgf(t):
        return math.log(2.0) + 0.5 * t * t + _log_ndtr(t)

    def _mills(t):
        # phi(t) / Phi(t), computed in logs to survive large |t|
        log_phi = -0.5 * t * t - 0.5 * _LOG_2PI
        return math.exp(log_phi - _log_ndtr(t))

    def mean(t):
        return t + _mills(t)

    def variance(t):
        r = _mills(t)
        return 1.0 - t * r - r * r

    def mu3(t):
        r = _mills(t)
        return r * (t * t + 3.0 * t * r + 2.0 * r * r - 1.0)

    closed = ClosedForms(log_mgf=log_mgf, mean=mean, variance=variance, mu3=mu3)
    variation = VariationClass(
        kind="regular", beta=1.0, epsilon=lambda x: np.zeros_like(np.asarray(x, dtype=float)), karamata_c=1.0
    )
    return DensityModel(
        name="half_gaussian",
        g=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
        q=_zero,
        h=lambda x: np.asarray(x, dtype=float),
        h_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        h_second=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        variation=variation,
        support_lo=0.0,
        log_norm=0.5 * math.log(2.0 / math.pi),
        q_bound=0.0,
        h_zero=0.0,
        h_min=0.0,
        probes=(10.0, 1e2, 1e3, 1e4),
        closed_forms=closed,
        psi_closed=lambda t: float(t),
        g_remainder=lambda x0, d: 0.5 * d * d,
    )


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _invert_slope(h: Callable, h_prime: Callable, t: float, lo: float, x0: float) -> float:
    """Root of h(x) = t beyond ``lo`` by ``quad._root`` from ``x0``.  Where h(x)
    and t share a sign and lo is finite, the step is Newton's for log|h|
    against log(x - lo), which is exact for a pure power of x - lo; elsewhere
    it is Newton's for h."""

    def step(x):
        hx, hp = float(h(np.float64(x))), float(h_prime(np.float64(x)))
        f = hx - t
        if not (0.0 < hp < math.inf and math.isfinite(f)):
            return f, math.nan
        power = (x - lo) * hp / hx if hx * t > 0.0 else math.nan  # the local exponent of h in x - lo
        if not 0.0 < abs(power) < math.inf:
            return f, x - f / hp
        log_ratio = math.log1p(f / t) if abs(f / t) < 0.5 else math.log(abs(hx)) - math.log(abs(t))
        return f, lo + (x - lo) * math.exp(min(-log_ratio / power, 700.0))

    with np.errstate(all="ignore"):  # h overflows to inf past the root
        return quad._root(step, x0, lo=lo)


# ---------------------------------------------------------------------------
# model specification files
# ---------------------------------------------------------------------------

_EXPR_NAMES = {
    "log": np.log,
    "log1p": np.log1p,
    "exp": np.exp,
    "expm1": np.expm1,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


def _compile_expr(expr: str, key: str, var: str = "x") -> Callable:
    try:
        code = compile(expr, "<model-expr>", "eval")
    except (SyntaxError, ValueError):
        raise ConfigError(f"model spec field {key!r} is not an expression: {expr!r}") from None
    allowed = set(_EXPR_NAMES) | {var}
    bad = set(code.co_names) - allowed
    if bad:
        raise DomainError(f"expression uses unknown names {sorted(bad)}: {expr!r}")

    def fn(x):
        local = dict(_EXPR_NAMES)
        local[var] = np.asarray(x, dtype=float)
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out = eval(code, {"__builtins__": {}}, local)  # noqa: S307 - vetted names only
            return np.asarray(out, dtype=float) + np.zeros_like(local[var])
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:  # 1/0, x[0], e(x), ...
            raise DomainError(f"expression {expr!r} failed: {exc}") from None

    return fn


def _central_derivative(fn: Callable, rel_step: float = 1e-6) -> Callable:
    def deriv(x):
        arr = np.asarray(x, dtype=float)
        step = rel_step * np.maximum(np.abs(arr), 1.0)
        return (fn(arr + step) - fn(arr - step)) / (2.0 * step)

    return deriv


def _spec_float(text: str, key: str) -> float:
    """A number from a model spec; a malformed one is a ConfigError."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"model spec field {key!r} must be a number, got {text!r}") from None


def _parse_variation(spec: str, h, h_prime, psi_fn, epsilon: str | None = None) -> VariationClass:
    """``regular[:beta]`` or ``rapid``; an ``epsilon`` expression replaces the derived one."""
    spec = spec.strip().lower()
    if spec.startswith("regular"):
        beta = 1.0
        if ":" in spec:
            beta = _spec_float(spec.split(":", 1)[1].replace("beta=", ""), "variation")

        def eps(x):
            arr = np.asarray(x, dtype=float)
            return arr * h_prime(arr) / h(arr) - beta

        if epsilon is not None:
            eps = _compile_expr(epsilon, "epsilon")
        return VariationClass(kind="regular", beta=beta, epsilon=eps, karamata_c=1.0)
    if spec.startswith("rapid"):

        def eps(t):
            arr = np.asarray(t, dtype=float)
            ps = np.vectorize(psi_fn)(arr)
            return arr / (h_prime(ps) * ps)

        if epsilon is not None:
            eps = _compile_expr(epsilon, "epsilon", var="t")
        return VariationClass(kind="rapid", beta=None, epsilon=eps, karamata_c=1.0)
    raise DomainError(f"unknown variation spec {spec!r}")


def _custom_model(fields: dict[str, str]) -> DensityModel:
    support_lo = _spec_float(fields.get("support_lo", "0"), "support_lo")
    name = fields.get("name", "custom")
    q_bound = _spec_float(fields.get("q_bound", "0"), "q_bound")

    if "table" in fields:
        try:
            from scipy.interpolate import CubicSpline
        except ImportError:
            raise ConfigError("a tabulated model ('table = ...') needs scipy, which is not installed") from None

        path = fields["table"]
        try:  # a missing file, a bad number, too few rows or columns, x not increasing
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty table fails the shape check instead
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[0] < 2 or data.shape[1] < 2:
                raise ValueError("a table needs columns x,g[,q] and at least 2 rows")
            xs, gs = data[:, 0], data[:, 1]
            qs = data[:, 2] if data.shape[1] > 2 else np.zeros_like(xs)
            g_spline = CubicSpline(xs, gs)
            q_spline = CubicSpline(xs, qs)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read model table {path!r}: {exc}") from None
        g = lambda x: g_spline(np.asarray(x, dtype=float))
        q = lambda x: q_spline(np.asarray(x, dtype=float))
        h = g_spline.derivative(1)
        h_prime = g_spline.derivative(2)
        h_second = g_spline.derivative(3)
    else:
        if "g" not in fields:
            raise DomainError("custom model needs either 'g = <expr>' or 'table = <csv>'")

        def expr(key, default):
            return _compile_expr(fields[key], key) if key in fields else default

        g = _compile_expr(fields["g"], "g")
        q = expr("q", _zero)
        h = expr("h", _central_derivative(g))
        h_prime = expr("h_prime", _central_derivative(h))
        h_second = expr("h_second", _central_derivative(h_prime))

    # h at the support's end; where it is negative (or undefined) there, the
    # sign change of h seeds the monotone branch
    end = support_lo + 1e-9 * max(1.0, abs(support_lo))
    with np.errstate(all="ignore"):  # h at an infinite end may be NaN
        h_end = float(np.asarray(h(end)))
    h_zero = support_lo
    if not h_end >= 0.0:
        try:
            h_zero = _invert_slope(h, h_prime, 0.0, support_lo, max(support_lo + 1e-6, 1e-6))
        except (DomainError, NumericError):
            pass

    if "h_min" in fields:
        h_min = _spec_float(fields["h_min"], "h_min")
    else:
        h_min = h_end if np.isfinite(h_end) else -np.inf

    def psi_fn(t):
        return _invert_slope(h, h_prime, float(t), support_lo, h_zero + 1.0)

    variation = _parse_variation(fields.get("variation", "regular:1"), h, h_prime, psi_fn, fields.get("epsilon"))

    def log_unnorm(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return -(g(arr) - q(arr))

    xhat, sigma = quad._locate(log_unnorm, support_lo, max(h_zero, support_lo) + 1.0, 1.0)
    res = quad.log_integral(log_unnorm, center=xhat, scale=sigma, lo=support_lo)
    return DensityModel(
        name=name,
        g=g,
        q=q,
        h=h,
        h_prime=h_prime,
        h_second=h_second,
        variation=variation,
        support_lo=support_lo,
        log_norm=-res.log_value,
        q_bound=q_bound,
        h_zero=h_zero,
        h_min=h_min,
        probes=(10.0, 1e2, 1e3, 1e4),
    )


# keys each model kind accepts besides ``kind``
_SPEC_KEYS = {
    "weibull": ["k"],
    "exp_exponential": [],
    "expexp": [],
    "half_gaussian": [],
    "custom": "name support_lo q_bound g q h h_prime h_second h_min variation epsilon table".split(),
}


def model_from_spec(source: str) -> DensityModel:
    """Build a model from an inline spec or a key-value spec file.

    Inline forms: ``weibull:k=2``, ``exp_exponential``, ``half_gaussian``.
    A path to a file is parsed as ``key = value`` lines with a ``kind`` key;
    ``kind = custom`` accepts expressions (``g``, optional ``q``, ``h``, ...)
    or ``table = <csv>`` with columns x, g, q.
    """
    text = source
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif os.sep in source and "=" not in source:
        # inline specs with fields hold "=", and bare kinds hold no separator
        raise ConfigError(f"model spec file not found: {source!r}")
    if "\n" not in text and "=" in text and ":" in text and not text.startswith("kind"):
        kind, _, rest = text.partition(":")
        text = f"kind = {kind}\n" + rest.replace(",", "\n")
    elif "\n" not in text and "=" not in text:
        text = f"kind = {text}"
    fields = _read_kv(text, "model spec")

    kind = fields.get("kind", "").lower()
    if kind not in _SPEC_KEYS:
        raise DomainError(f"unknown model kind {fields.get('kind')!r}")
    unknown = sorted(fields.keys() - {"kind", *_SPEC_KEYS[kind]})
    if unknown:
        raise ConfigError(f"model kind {kind!r} takes no key {unknown[0]!r}")
    if kind == "weibull":
        return make_weibull(_spec_float(fields.get("k", "2"), "k"))
    if kind in ("exp_exponential", "expexp"):
        return make_exp_exponential()
    if kind == "half_gaussian":
        return make_half_gaussian()
    return _custom_model(fields)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _finite_diff(fn: Callable, x: float, order: int = 1) -> float:
    step = 1e-4 * max(abs(x), 1.0)
    if order == 1:
        return (float(fn(x + step)) - float(fn(x - step))) / (2.0 * step)
    return (float(fn(x + step)) - 2.0 * float(fn(x)) + float(fn(x - step))) / step**2


def variation_report(model: DensityModel, probes: tuple[float, ...] | None = None) -> dict:
    """Sample the asymptotic regularity conditions of the variation class.

    For a regularly varying slope this returns |eps|, x |eps'| and x^2 |eps''|
    at the probe points; for a rapidly varying one it returns |eps|,
    |t eps'/eps| and |t^2 eps''/eps|.  Asymptotic statements are thereby
    reduced to finite trend assertions on the probe grid.
    """
    var = model.variation
    pts = np.asarray(probes if probes is not None else model.probes, dtype=float)
    eps = np.asarray(var.epsilon(pts), dtype=float)
    d1 = np.array([_finite_diff(lambda u: float(np.asarray(var.epsilon(u))), p, 1) for p in pts])
    d2 = np.array([_finite_diff(lambda u: float(np.asarray(var.epsilon(u))), p, 2) for p in pts])
    report = {"probes": pts, "eps": eps}
    if var.kind == "regular":
        report["x_eps_d1"] = np.abs(pts * d1)
        report["x2_eps_d2"] = np.abs(pts**2 * d2)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            report["t_eps_d1_over_eps"] = np.abs(pts * d1 / eps)
            report["t2_eps_d2_over_eps"] = np.abs(pts**2 * d2 / eps)
    return report


def model_diagnostics(model: DensityModel, probes: tuple[float, ...] | None = None) -> dict:
    """Check the structural invariants of a model on a probe grid.

    Returns measured values; callers assert.  Covers density normalization,
    positivity and growth of h beyond its zero, superlinearity of g, the
    bound on q, and the variation-class conditions.
    """
    pts = np.asarray(probes if probes is not None else model.probes, dtype=float)
    xhat = max(model.h_zero, model.support_lo) + 1.0
    try:
        sigma = 1.0 / math.sqrt(float(model.h_prime(xhat)))
    except (ZeroDivisionError, ValueError):
        sigma = 1.0
    norm = quad.log_integral(
        model._log_density_clipped, center=xhat, scale=sigma, lo=model.support_lo
    )
    h_vals = np.asarray(model.h(pts), dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_g_over_x = np.log(np.asarray(model.g(pts), dtype=float)) - np.log(pts)
    q_vals = np.abs(np.asarray(model.q(pts), dtype=float))
    return {
        "normalization": math.exp(norm.log_value),
        "h_values": h_vals,
        "h_positive": bool(np.all(h_vals > 0)),
        "h_nondecreasing": bool(np.all(np.diff(h_vals) >= 0)),
        "log_g_over_x": log_g_over_x,
        "g_over_x_increasing": bool(np.all(np.diff(log_g_over_x) > 0)),
        "q_sup": float(np.max(q_vals)) if q_vals.size else 0.0,
        "q_bound_ok": bool(np.all(q_vals <= model.q_bound + 1e-12)),
        "variation": variation_report(model, probes),
    }
