"""Composite-quantile factor models for high-dimensional panels.

A panel's conditional quantiles at several levels are driven by one common
set of latent factors with level-specific loadings.  The package estimates
that model by alternating weighted quantile regressions, selects the number
of factors, smooths the objective for plug-in inference, and feeds the
estimated factors into rolling forecasting regressions.
"""

__version__ = "0.1.0"

from .errors import NumericalError
from .grids import QuantileGrid
from .panel import Panel, load_panel, save_panel
from .losses import check_loss, composite_objective
from .estimator import (
    FactorFit,
    FitConfig,
    fit_dafm,
    mean_pca,
    normalize_fit,
)
from .kernels import Kernel, SmoothConfig, build_kernel, default_bandwidth_exponent
from .smooth import (
    ConfidenceIntervals,
    factor_ci,
    fit_smoothed_dafm,
    loading_ci,
)
from .ranksel import RankSelection, default_penalty, select_rank_eigen, select_rank_ic
from .simgen import (
    ErrorDist,
    SimTruth,
    ar1_series,
    density_weights,
    gen_location_scale_shift,
    gen_location_shift,
    parse_dist,
    weight_scheme,
)
from .evalmetrics import adjusted_r2, relative_mse
from .forecast import ForecastTask, fit_factor_ar, rolling_forecast, select_lags_bic
from .serialize import save_fit

__all__ = [
    "__version__",
    "NumericalError",
    "QuantileGrid",
    "Panel",
    "load_panel",
    "save_panel",
    "check_loss",
    "composite_objective",
    "FactorFit",
    "FitConfig",
    "fit_dafm",
    "mean_pca",
    "normalize_fit",
    "Kernel",
    "SmoothConfig",
    "build_kernel",
    "default_bandwidth_exponent",
    "ConfidenceIntervals",
    "factor_ci",
    "fit_smoothed_dafm",
    "loading_ci",
    "RankSelection",
    "default_penalty",
    "select_rank_eigen",
    "select_rank_ic",
    "ErrorDist",
    "SimTruth",
    "ar1_series",
    "density_weights",
    "gen_location_scale_shift",
    "gen_location_shift",
    "parse_dist",
    "weight_scheme",
    "adjusted_r2",
    "relative_mse",
    "ForecastTask",
    "fit_factor_ar",
    "rolling_forecast",
    "select_lags_bic",
    "save_fit",
]
