"""Conditional laws of light-tailed sums at extreme levels.

The package computes exponential tilts, Edgeworth-corrected densities, and
the tilted / Gaussian-modulated approximations of the law of one coordinate
given that the sample sum sits at (or above) a level far beyond its mean,
and certifies them against brute-force convolution and Monte Carlo oracles
in total variation.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    ExtremeGibbsError,
    NumericError,
    RangeError,
    RegimeWarning,
    ResourceError,
)
from .model import (
    ClosedForms,
    DensityModel,
    VariationClass,
    make_exp_exponential,
    make_half_gaussian,
    make_weibull,
    model_from_spec,
)
from .tilt import (
    TiltParams,
    asymptotic_moments,
    log_mgf,
    normalized_tilted_density,
    skewness_ratio,
    solve_tilt,
    solve_tilt_many,
    tilt_moments,
    tilted_density,
)
from .edgeworth import (
    EdgeworthSpec,
    edgeworth_density,
    edgeworth_error_curve,
    hermite3_factor,
)
from .gibbs import (
    FastGrowthParams,
    Regime,
    classify_regime,
    f_tilted_approx,
    fast_growth_approx,
    fast_growth_params,
    identity,
    joint_fast_approx,
    joint_moderate_approx,
    tilted_approx,
    z_statistics,
)
from .exceedance import (
    ExceedanceMixture,
    RatePoint,
    eta_window,
    exceedance_approx,
    rate_function,
    sum_density,
    tail_probability,
    window_tail_masses,
)
from .oracle import (
    ConditionalOracle,
    ConvolutionTable,
    GridDensity,
    TVResult,
    discretize,
    mc_conditional_sample,
    tv_distance,
)
from .config import AGrid, ApproxReport, ARule, ExperimentConfig

__all__ = [name for name in dir() if not name.startswith("_")]
