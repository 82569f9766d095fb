import contextlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from extreme_gibbs import exceedance, gibbs, oracle, quad, tilt
from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import _invert_slope, make_exp_exponential, make_half_gaussian, make_weibull

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def weibull2():
    return make_weibull(2.0)


@pytest.fixture(scope="session")
def half_gauss():
    return make_half_gaussian()


@pytest.fixture(scope="session")
def exp_exp():
    return make_exp_exponential()


@pytest.fixture(scope="session")
def mp_moments():
    """``(spec, t, x0) -> (s2, mu3)`` of the tilted Weibull or exp_exponential
    density at t, by mpmath quadrature over u = (x - xhat) / sigma with
    enough digits for t x to cancel; x0 starts the saddle search.  Skips the
    test when mpmath is not installed."""
    mp = pytest.importorskip("mpmath")

    def moments(spec, t, x0):
        with mp.workdps(30 + int(math.log10(1.0 + abs(t) * x0))):
            t = mp.mpf(t)
            if spec.startswith("weibull"):
                k = mp.mpf(spec.split("=")[1])
                g = lambda x: x**k - (k - 1) * mp.log(x)  # noqa: E731
                h = lambda x: k * x ** (k - 1) - (k - 1) / x  # noqa: E731
                hp = lambda x: k * (k - 1) * x ** (k - 2) + (k - 1) / x**2  # noqa: E731
            else:
                g = h = hp = lambda x: mp.exp(x - 1)  # noqa: E731
            xh = mp.findroot(lambda x: h(x) / t - 1, mp.mpf(x0))
            sig = 1 / mp.sqrt(hp(xh))
            g0 = g(xh)

            def w(u):
                return mp.re(mp.exp(t * sig * u - (g(xh + sig * u) - g0)))

            pts = [max(-xh / sig, mp.mpf(-60))] + [c for c in (-30, -6, 0, 6, 30, 200) if c > -xh / sig]
            z, m1, m2, m3 = (mp.quad(lambda u: u**j * w(u), pts) for j in range(4))
            m1, m2, m3 = m1 / z, m2 / z, m3 / z
            return float((m2 - m1**2) * sig**2), float((m3 - 3 * m1 * m2 + 2 * m1**3) * sig**3)

    return moments


def _clear_memos():
    for memo in (tilt.solve_tilt_cached, gibbs._fast_factor, oracle.get_oracle, exceedance._mixture_cached):
        memo.cache_clear()


def _saddle_params(model, tp, rows, a_n):
    """The modulated normalizer for the identity statistic by its own
    quadrature of p(y) N(mu, beta)(y), centred at the root of h(y) + (y -
    mu)/beta = 0 from y = a_n, or by ``quad._locate`` where there is none."""
    alpha = tp.t + tp.mu3 / (2.0 * rows * tp.s2)
    beta = rows * tp.s2
    mu = alpha * beta + a_n

    def log_f(y):
        return gibbs._log_modulated(model, mu, beta, y)

    slope, curvature = (lambda y: model.h(y) + (y - mu) / beta), (lambda y: model.h_prime(y) + 1.0 / beta)
    peak = None
    try:
        yhat = _invert_slope(slope, curvature, 0.0, model.support_lo, float(a_n))
        if 0.0 < float(curvature(yhat)) < math.inf:
            peak = yhat, 1.0 / math.sqrt(float(curvature(yhat)))
    except (DomainError, NumericError):
        pass
    if peak is None:
        peak = quad._locate(log_f, model.support_lo, float(a_n), tp.s)
    res = quad.log_integral(log_f, center=peak[0], scale=peak[1], lo=model.support_lo)
    if not np.isfinite(res.log_value):
        raise NumericError("normalization integral of the modulated density failed")
    return gibbs.FastGrowthParams(alpha, beta, -res.log_value, rows + 1, float(a_n), tp)


@pytest.fixture(scope="session")
def saddle_normalizer():
    """A context in which the library computes the fast-growth normalizer as
    it did before the normalizer moved onto the tilt's own nodes: by the
    root-found quadrature of ``_saddle_params``, after solves whose every
    evaluation is centred at psi(t) (now the first is centred at the level).
    The memo caches are cleared on entry and on exit."""

    @contextlib.contextmanager
    def context():
        real_quad, real_params = tilt._tilt_quad, gibbs._modulated_params

        def params(model, tp, rows, a_n, f=None, evaluation=None):
            return real_params(model, tp, rows, a_n, f) if f is not None else _saddle_params(model, tp, rows, a_n)

        with pytest.MonkeyPatch.context() as patch:
            _clear_memos()
            patch.setattr(tilt, "_tilt_quad", lambda model, t, f=None, xhat=None: real_quad(model, t, f))
            patch.setattr(gibbs, "_modulated_params", params)
            try:
                yield
            finally:
                _clear_memos()

    return context
