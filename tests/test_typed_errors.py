"""Every public entry point that takes a count n, a level a or a tilt t ends
in a result or in an ``ExtremeGibbsError`` subclass, with no RuntimeWarning,
whatever number it is given.  scipy is not used."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import extreme_gibbs as eg
from extreme_gibbs.cli import main
from extreme_gibbs.errors import ExtremeGibbsError, RegimeWarning

MODELS = [eg.make_weibull(2.0), eg.make_weibull(4.0), eg.make_half_gaussian(), eg.make_exp_exponential()]
_EDGES = [0.0, -0.0, -1.0, -2.5, 2.5, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]
reals = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True))
counts = st.one_of(st.sampled_from([0, -3, 1, 2.5, *_EDGES]), st.integers(-5, 10**6))

ENTRY_POINTS = {
    "tilt_moments": lambda model, n, v: eg.tilt_moments(model, v),
    "log_mgf": lambda model, n, v: eg.log_mgf(model, v),
    "solve_tilt": lambda model, n, v: eg.solve_tilt(model, v),
    "rate_function": lambda model, n, v: eg.rate_function(model, v),
    "fast_growth_params": eg.fast_growth_params,
    "classify_regime": eg.classify_regime,
    "tilted_approx": lambda model, n, v: eg.tilted_approx(model, n, v, np.array([0.0, 1.0, v])),
    "eta_window": eg.eta_window,
    "tail_probability": eg.tail_probability,
    "sum_density": eg.sum_density,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(model=st.sampled_from(MODELS), n=counts, v=reals)
def test_entry_point_returns_or_raises_a_typed_error(name, model, n, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", RegimeWarning)
        try:
            ENTRY_POINTS[name](model, n, v)
        except ExtremeGibbsError:
            pass


def test_huge_half_gaussian_level_warns_nothing(tmp_path):
    # g(xhat) = xhat^2 / 2 overflowed with a RuntimeWarning before the typed error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(eg.NumericError):
            eg.tilt_moments(eg.make_half_gaussian(), 1e300)
        assert main(["tilt", "--model", "half_gaussian", "--a-grid", "1e299:1e300:2:log", "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    statuses = [row.split(",")[-1] for row in (tmp_path / "tilt.csv").read_text().splitlines()[2:]]
    assert len(statuses) == 2 and all(s.startswith("error") for s in statuses)
