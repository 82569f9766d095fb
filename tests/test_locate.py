"""The locator for integrands without a known saddle, ``quad._locate``, and
the integrals it centres: the statistic-f tilt, the tilt below the range of
h, and custom-model normalizers, against closed forms and mpmath (those
tests are skipped when mpmath is not installed).  scipy is not used."""

import math

import numpy as np
import pytest

from extreme_gibbs import quad
from extreme_gibbs.errors import NumericError
from extreme_gibbs.model import make_exp_exponential, make_half_gaussian, make_weibull, model_from_spec
from extreme_gibbs.tilt import solve_tilt, tilt_moments


def test_locate_interior_peak_has_the_exact_moments():
    # probed from (1, 1), the rule's nodes near 7 are one sd apart
    centre, width = quad._locate(lambda x: -0.5 * ((x - 7.0) / 0.3) ** 2, 0.0, 1.0, 1.0)
    assert centre == pytest.approx(7.0, rel=1e-14)
    assert width == pytest.approx(0.3, rel=1e-13)


def test_locate_boundary_peak_has_the_exact_moments():
    # e^(-2x) on [0, inf): mean and sd 1/2
    centre, width = quad._locate(lambda x: -2.0 * x, 0.0, 1.0, 1.0)
    assert centre == pytest.approx(0.5, rel=1e-14)
    assert width == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize(
    "mean,sd,lo,x0",
    [
        (60.0, 0.74, 0.0, 1.0),  # the shape of the f = x^2 modulated normalizer at n = 32, a = 16: one node holds it
        (1e4, 1e-3, 0.0, 1.0),  # far out and narrow
        (1e4, 1e3, -np.inf, 0.0),  # far out and wide: the outermost node holds it
        (-1e4, 1e3, -np.inf, 0.0),
    ],
)
def test_locate_takes_the_nodes_again_around_the_heaviest_node(mean, sd, lo, x0):
    centre, width = quad._locate(lambda x: -0.5 * ((x - mean) / sd) ** 2, lo, x0, 1.0)
    assert abs(centre - mean) <= 1e-12 * abs(mean)
    assert width == pytest.approx(sd, rel=1e-9)


def test_locate_raises_on_divergent_and_nan_integrands():
    for log_f, lo in [
        (lambda x: 0.1 * x, 0.0),
        (lambda x: np.log(2.0 * x), 0.0),  # the f = x^2 tilt of Weibull k=2 at t = 1
        (lambda x: -np.log1p(x * x), -np.inf),  # Cauchy: converges, but too slowly for the 1e-16 test
        (np.sqrt, -5.0),  # NaN below zero
    ]:
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="diverges"):
            quad._locate(log_f, lo, 1.0, 1.0)


@pytest.mark.parametrize("t", [1.0, 1.5, 3.0])
def test_divergent_square_tilt_raises(t):
    with pytest.raises(NumericError, match="diverges"):
        tilt_moments(make_weibull(2.0), t, f=np.square)


def test_square_tilt_of_weibull2_is_exponential():
    # X^2 ~ Exp(1) under Weibull k=2: Phi(t) = 1/(1 - t), mean 1/(1 - t), variance 1/(1 - t)^2
    model = make_weibull(2.0)
    for t in np.linspace(-20.0, 0.99, 40):
        tp = tilt_moments(model, t, f=np.square)
        u = 1.0 - t
        assert abs(tp.log_phi + math.log(u)) <= 1e-14 * max(1.0, abs(math.log(u))), t
        assert tp.a * u == pytest.approx(1.0, abs=1e-14), t
        assert tp.s2 * u * u == pytest.approx(1.0, abs=1e-14), t


@pytest.mark.parametrize("t", [-1.5, -1.0, -0.5, 0.5, 2.0, 5.0])
def test_log_tilt_of_weibull2_is_the_gamma_function(t):
    # E[X^t] = Gamma(1 + t/2), so the log tilt has mean digamma(1 + t/2)/2 and
    # variance trigamma(1 + t/2)/4; at t = -1.5 the integrand is x^-0.5 at 0
    mp = pytest.importorskip("mpmath")
    tp = tilt_moments(make_weibull(2.0), t, f=np.log)
    u = 1.0 + t / 2.0
    assert abs(tp.log_phi - math.lgamma(u)) <= 1e-11 * max(1.0, abs(math.lgamma(u)))
    assert tp.a == pytest.approx(float(mp.digamma(u)) / 2.0, rel=1e-9)
    assert tp.s2 == pytest.approx(float(mp.psi(1, u)) / 4.0, rel=1e-8)


@pytest.mark.parametrize("t", [-1e9, -1e10])
def test_half_gaussian_far_below_the_range_of_h(t):
    # a normal N(t, 1) truncated to [0, inf): mean 1/|t| (1 - 2/t^2 + ...), variance 1/t^2 (1 - 6/t^2 + ...)
    tp = tilt_moments(make_half_gaussian(), t)
    assert abs(tp.a * abs(t) - 1.0) <= 1e-15
    assert abs(tp.s2 * t * t - 1.0) <= 1e-15


@pytest.mark.parametrize("t", [-5.0, -1.0, 0.0, 0.3])
def test_exp_exponential_below_the_range_of_h_matches_mpmath(t):
    mp = pytest.importorskip("mpmath")
    model = make_exp_exponential()
    tp = tilt_moments(model, t)
    with mp.workdps(30):
        w = lambda x, j: x**j * mp.exp(t * x - mp.exp(x - 1))  # noqa: E731
        z, m1, m2 = (mp.quad(lambda x: w(x, j), [0, 1, 3, 6]) for j in range(3))
        mean, s2 = m1 / z, m2 / z - (m1 / z) ** 2
        log_phi = float(mp.log(z) + model.log_norm)
    assert abs(tp.log_phi - log_phi) <= 2e-15 * max(1.0, abs(log_phi))
    assert tp.a == pytest.approx(float(mean), rel=1e-14)
    assert tp.s2 == pytest.approx(float(s2), rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 3.0, 30.0, -0.5, -3.0, -30.0])
def test_custom_gaussian_on_the_whole_line(a):
    # the standard normal: log_norm = -log(2 pi)/2, the tilt t = a with s^2 = 1 and log Phi = a^2/2
    model = model_from_spec("kind = custom\ng = 0.5*x**2\nsupport_lo = -inf\nvariation = regular:1")
    assert model.log_norm == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-15)
    assert abs(model.h_zero) <= 1e-12
    assert model.h_min == -math.inf
    tp = solve_tilt(model, a)
    assert abs(tp.t - a) <= 4.0 * math.ulp(a)
    assert tp.s2 == pytest.approx(1.0, abs=2e-14)
    assert tp.log_phi == pytest.approx(0.5 * a * a, rel=4e-15)


def test_custom_gaussian_at_its_mean_is_a_typed_error():
    # the tolerance rtol |a| is zero at a = 0
    model = model_from_spec("kind = custom\ng = 0.5*x**2\nsupport_lo = -inf\nvariation = regular:1")
    with pytest.raises(NumericError, match="stalled"):
        solve_tilt(model, 0.0)


def test_custom_model_on_a_negative_support_end():
    # a normal at -3 on [-5, inf): h = x + 3 changes sign at -3, and h_min is h(-5) = -2
    model = model_from_spec("kind = custom\ng = 0.5*(x + 3)**2\nsupport_lo = -5\nvariation = regular:1")
    assert abs(model.h_zero + 3.0) <= 1e-12
    assert model.h_min == pytest.approx(-2.0, rel=1e-6)
    log_norm = -math.log(math.sqrt(2.0 * math.pi) * (1.0 - 0.5 * math.erfc(2.0 / math.sqrt(2.0))))
    assert model.log_norm == pytest.approx(log_norm, abs=1e-14)
