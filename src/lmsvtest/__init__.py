"""Change-point tests for long-memory stochastic volatility time series."""

from .dist import (
    CenteredPareto,
    Moments,
    NoiseSpec,
    Pareto,
    RngStream,
    StandardNormal,
    hill_estimator,
    noise_moments,
    sample_noise,
)
from .fgn import FgnParams, autocovariance
from .lmsv import (
    ChangeSpec,
    MeanShift,
    NoChange,
    SeriesSpec,
    TailShift,
    VarianceScale,
    simulate_components,
    simulate_series,
    verify_breiman_tail,
)
from .stats import (
    ProfileStat,
    Transform,
    TrimSpec,
    cusum,
    sn_cusum,
    sn_wilcoxon,
    wilcoxon,
)
from .asymp import (
    CriticalValueTable,
    TableBudget,
    TableFamily,
    critical_values,
    dnm_exact,
    kolmogorov_quantile,
    simulate_hermite_paths,
    wilcoxon_limit_factor,
)

__all__ = [
    "CenteredPareto",
    "ChangeSpec",
    "CriticalValueTable",
    "FgnParams",
    "MeanShift",
    "Moments",
    "NoChange",
    "NoiseSpec",
    "Pareto",
    "ProfileStat",
    "RngStream",
    "SeriesSpec",
    "StandardNormal",
    "TableBudget",
    "TableFamily",
    "TailShift",
    "Transform",
    "TrimSpec",
    "VarianceScale",
    "autocovariance",
    "critical_values",
    "cusum",
    "dnm_exact",
    "hill_estimator",
    "kolmogorov_quantile",
    "noise_moments",
    "sample_noise",
    "simulate_components",
    "simulate_hermite_paths",
    "simulate_series",
    "sn_cusum",
    "sn_wilcoxon",
    "verify_breiman_tail",
    "wilcoxon",
    "wilcoxon_limit_factor",
]

__version__ = "0.1.0"
