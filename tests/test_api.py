"""The package's public names, pinned so that any change to them is deliberate."""

import importlib

import numpy as np
import pytest

import extreme_gibbs
from extreme_gibbs import exceedance, gibbs, oracle
from extreme_gibbs.errors import DomainError
from extreme_gibbs.model import make_weibull

PUBLIC = [
    "AGrid",
    "ARule",
    "ApproxReport",
    "ClosedForms",
    "ConditionalOracle",
    "ConfigError",
    "ConvolutionTable",
    "DensityModel",
    "DomainError",
    "EdgeworthSpec",
    "ExceedanceMixture",
    "ExperimentConfig",
    "ExtremeGibbsError",
    "FastGrowthParams",
    "GridDensity",
    "NumericError",
    "RangeError",
    "RatePoint",
    "Regime",
    "RegimeWarning",
    "ResourceError",
    "TVResult",
    "TiltParams",
    "VariationClass",
    "asymptotic_moments",
    "classify_regime",
    "config",
    "discretize",
    "edgeworth",
    "edgeworth_density",
    "edgeworth_error_curve",
    "errors",
    "eta_window",
    "exceedance",
    "exceedance_approx",
    "f_tilted_approx",
    "fast_growth_approx",
    "fast_growth_params",
    "gibbs",
    "hermite3_factor",
    "identity",
    "joint_fast_approx",
    "joint_moderate_approx",
    "log_mgf",
    "make_exp_exponential",
    "make_half_gaussian",
    "make_weibull",
    "mc_conditional_sample",
    "model",
    "model_from_spec",
    "normalized_tilted_density",
    "oracle",
    "quad",
    "rate_function",
    "skewness_ratio",
    "solve_tilt",
    "solve_tilt_many",
    "sum_density",
    "tail_probability",
    "tilt",
    "tilt_moments",
    "tilted_approx",
    "tilted_density",
    "tv_distance",
    "window_tail_masses",
    "z_statistics",
]


def test_package_names_are_pinned():
    assert sorted(extreme_gibbs.__all__) == PUBLIC


@pytest.mark.parametrize("layer", ["model", "quad", "tilt", "edgeworth", "gibbs", "exceedance", "oracle", "config", "cli"])
def test_module_all_names_exist(layer):
    mod = importlib.import_module(f"extreme_gibbs.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# -- one count check for n at every entry point that takes it -------------------

_WB2 = make_weibull(2.0)
_YS = np.array([2.9, 3.0])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: gibbs.tilted_approx(_WB2, 0, 3.0, _YS), id="tilted_approx-zero"),
        pytest.param(lambda: gibbs.tilted_approx(_WB2, -3, 3.0, _YS), id="tilted_approx-negative"),
        pytest.param(lambda: exceedance.ExceedanceMixture(_WB2, 0, 3.0), id="ExceedanceMixture-zero"),
        pytest.param(lambda: exceedance.eta_window(_WB2, 0, 3.0), id="eta_window-zero"),
        pytest.param(lambda: gibbs.fast_growth_params(_WB2, 2.5, 3.0), id="fast_growth_params-fraction"),
        pytest.param(lambda: exceedance.ExceedanceMixture(_WB2, 1.5, 3.0), id="ExceedanceMixture-fraction"),
        pytest.param(lambda: gibbs.classify_regime(_WB2, 2.5, 3.0), id="classify_regime-fraction"),
        pytest.param(lambda: oracle.ConditionalOracle(_WB2, 4.5, 3.0), id="ConditionalOracle-fraction"),
        pytest.param(lambda: gibbs.joint_fast_approx(_WB2, 8.5, 3.0, [3.0, 3.0]), id="joint_fast_approx-fraction"),
    ],
)
def test_bad_n_is_a_domain_error(call):
    with pytest.raises(DomainError, match="^n must be"):
        call()
