"""The package's public names, pinned so that any change to them is deliberate."""

import importlib

import pytest

import extreme_gibbs

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
