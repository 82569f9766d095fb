import math

import pytest
from hypothesis import HealthCheck, settings

from extreme_gibbs.model import make_exp_exponential, make_half_gaussian, make_weibull

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
