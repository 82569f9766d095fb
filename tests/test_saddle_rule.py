"""Tilted moments on the double-exponential rule over offsets from the saddle.

The tilt integrates ``(t - h(xhat)) d - R(xhat, d)`` over offsets d from
xhat = psi(t), with the model's cancellation-free remainder R.  These tests
hold it to closed forms, to mpmath (skipped when mpmath is not installed)
and to its round trips over the whole range of levels.  scipy is not used.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from extreme_gibbs import quad, tilt
from extreme_gibbs.cli import main
from extreme_gibbs.errors import DomainError, NumericError
from extreme_gibbs.model import make_weibull, model_from_spec
from extreme_gibbs.tilt import log_mgf, solve_tilt, tilt_moments


def _round_trip(model, a):
    tp = solve_tilt(model, a)
    return tp, abs(tilt_moments(model, tp.t).a - a) / a


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
def test_weibull_round_trips_up_to_1e8(k):
    model = make_weibull(k)
    assert max(_round_trip(model, a)[1] for a in np.geomspace(2.0, 1e8, 40)) <= 1e-9


def test_exp_exponential_round_trips_up_to_300(exp_exp):
    assert max(_round_trip(exp_exp, a)[1] for a in np.geomspace(2.0, 300.0, 40)) <= 1e-9


# s^2 h'(xhat) tends to 1; over these ranges it stays in [0.89, 1.13]
_VARIANCE_BAND = 0.15


@given(k=st.floats(1.5, 10.0), log_a=st.floats(math.log(2.0), math.log(1e8)))
def test_weibull_round_trip_property(k, log_a):
    model = make_weibull(k)
    tp, err = _round_trip(model, math.exp(log_a))
    assert err <= 1e-9
    assert abs(tp.s2 * float(model.h_prime(tp.psi_val)) - 1.0) <= _VARIANCE_BAND


@given(a=st.floats(2.0, 300.0))
def test_exp_exponential_round_trip_property(exp_exp, a):
    tp, err = _round_trip(exp_exp, a)
    assert err <= 1e-9
    assert abs(tp.s2 * float(exp_exp.h_prime(tp.psi_val)) - 1.0) <= _VARIANCE_BAND


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0])
def test_half_gaussian_closed_forms(half_gauss, t):
    cf = half_gauss.closed_forms
    tp = tilt_moments(half_gauss, t)
    assert abs(tp.log_phi - cf.log_mgf(t)) <= 1e-13
    assert abs(tp.a - cf.mean(t)) <= 1e-13
    assert abs(tp.s2 - cf.variance(t)) <= 1e-13


def test_weibull_k15_endpoint_log_mgf_at_zero():
    # p(x) ~ x^(1/2) at 0; the panel walk lost 1.5e-6 of log Phi(0) = 0 here
    assert abs(log_mgf(make_weibull(1.5), 0.0)) <= 1e-14


# levels whose reference needs at most about 60 digits
_MP_LEVELS = [
    ("weibull:k=1.5", 1.2),
    ("weibull:k=1.5", 5.0),
    ("weibull:k=1.5", 1e4),
    ("weibull:k=2", 3.0),
    ("weibull:k=2", 1e4),
    ("weibull:k=2", 1e8),
    ("weibull:k=4", 2.0),
    ("weibull:k=4", 1e4),
    ("weibull:k=10", 5.0),
    ("weibull:k=10", 300.0),
    ("exp_exponential", 3.0),
    ("exp_exponential", 40.0),
]


@pytest.mark.parametrize("spec, a", _MP_LEVELS)
def test_moments_match_mpmath(spec, a, mp_moments):
    tp = solve_tilt(model_from_spec(spec), a)
    s2, mu3 = mp_moments(spec, tp.t, tp.psi_val)
    assert tp.s2 == pytest.approx(s2, rel=1e-9)
    # mu3 relative to itself, down to where it falls below the rounding of
    # the third moment of float64 offsets (mu3 / s^3 is 7e-13 for k=2 at 1e4)
    assert abs(tp.mu3 - mu3) <= 1e-6 * abs(mu3) + 1e-14 * s2**1.5


@pytest.mark.parametrize(
    "spec, x0",
    [("weibull:k=1.5", 0.7), ("weibull:k=2", 3.0), ("weibull:k=10", 1e8), ("exp_exponential", 40.0), ("half_gaussian", 5.0)],
)
def test_remainder_matches_mpmath(spec, x0):
    mp = pytest.importorskip("mpmath")
    model = model_from_spec(spec)
    # both sides of the series switch at |r| = 0.1, tiny and large offsets
    d = x0 * np.array([-0.9, -0.1000001, -0.0999999, -1e-3, -1e-9, 1e-12, 1e-5, 0.0999999, 0.1000001, 0.5, 3.0])
    got = model.remainder(x0, d)
    with mp.workdps(60):
        if spec.startswith("weibull"):
            k = mp.mpf(spec.split("=")[1])
            g = lambda x: x**k - (k - 1) * mp.log(x)  # noqa: E731
            h = lambda x: k * x ** (k - 1) - (k - 1) / x  # noqa: E731
        elif spec == "half_gaussian":
            g, h = (lambda x: x * x / 2), (lambda x: x)
        else:
            g = h = lambda x: mp.exp(x - 1)  # noqa: E731
        x = mp.mpf(x0)
        want = [float(g(x + mp.mpf(v)) - g(x) - h(x) * mp.mpf(v)) for v in d]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_custom_model_remainder_is_the_plain_difference():
    model = model_from_spec("kind = custom\ng = x**2 - log(x)\nvariation = regular:1")
    d = np.array([-0.5, 0.01, 2.0])
    want = model.g(1.5 + d) - model.g(1.5) - model.h(1.5) * d
    np.testing.assert_array_equal(model.remainder(1.5, d), want)


@pytest.mark.parametrize(
    "lo, hi", [(-np.inf, np.inf), (0.0, np.inf), (-np.inf, 3.0), (0.0, 3.0), (2.9, 3.1)]
)
def test_one_rule_of_at_most_256_nodes(lo, hi):
    res = quad.log_integral(lambda x: -0.5 * (x - 1.0) ** 2, center=1.0, scale=1.0, lo=lo, hi=hi)
    assert res.panels == 1 and res.nodes.size <= 256


def test_a_level_that_misses_rtol_raises(weibull2, monkeypatch):
    # no relaxed floor: a mean that is pushed 1e-10 relative away from the
    # level puts rtol = 1e-12 out of reach, and the solve ends in the typed
    # stall error (the 1e-9 floor used to return such a level); the solve
    # evaluates through tilt._tilt_quad, which also returns its quadrature
    real, a = tilt._tilt_quad, 3.0

    def off_by_1e10(model, t, f=None, xhat=None):
        tp, res = real(model, t, f, xhat)
        return dataclasses.replace(tp, a=tp.a + math.copysign(1e-10 * a, tp.a - a)), res

    monkeypatch.setattr(tilt, "_tilt_quad", off_by_1e10)
    with pytest.raises(NumericError, match="stalled"):
        tilt.solve_tilt(weibull2, a)


def test_tiny_level_is_a_domain_error():
    # h'(a) = 1/a^2 overflows at a = 1e-200 (it raised ZeroDivisionError)
    with pytest.raises(DomainError):
        solve_tilt(make_weibull(2.0), 1e-200)
    tp = solve_tilt(make_weibull(2.0), 1e-100)
    assert tp.a == pytest.approx(1e-100, rel=1e-12)


def test_tiny_levels_through_the_cli_are_typed_rows(tmp_path):
    assert main(["tilt", "--a-grid", "1e-200:1e-100:3:log", "--out", str(tmp_path)]) == 0
    statuses = [row.split(",")[-1] for row in (tmp_path / "tilt.csv").read_text().splitlines()[2:]]
    assert statuses[-1] == "ok"
    assert not any("division" in s for s in statuses)
