"""The three benchmark workloads: inputs from a seed, timed calls, checks.

Every workload caps the outer iterations (``max_outer``) well below the count
the tried seeds need to meet the tolerance.  Each seed then does the same
number of sweeps over the same problem sizes, so the spread between seeds
measures the program and not how fast one panel happens to converge; a
change that converges in fewer sweeps than the cap still shows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import checks
import dafm

LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)
TOL = 1e-5

FIT = dict(n_series=30, n_periods=30, max_outer=8)
# Adjusted R^2 floors for the two true location factors.  The third, scale
# factor gets none: after 8 sweeps at 30x30 its adjusted R^2 ranges from
# about -0.07 to 0.82 across seeds.
FIT_R2_FLOORS = (0.9, 0.9)

INFER = dict(n_series=50, n_periods=150, kernel_order=8, max_outer=3, ci_level=0.95)

FORECAST = dict(n_series=12, window=24, horizon=1, windows=5, max_lag=4, max_outer=5)


@dataclass
class Outcome:
    output: object
    attempted: int
    failed: int


# -- fit ----------------------------------------------------------------------

@dataclass
class FitInputs:
    panel: object
    truth: object
    grid: object
    cfg: object


def fit_setup(seed):
    panel, truth = dafm.gen_location_scale_shift(
        FIT["n_series"], FIT["n_periods"], dafm.ErrorDist.gaussian(), seed)
    grid = dafm.QuantileGrid(LEVELS)
    cfg = dafm.FitConfig(r=truth.n_factors, tol=TOL, max_outer=FIT["max_outer"], init="pca")
    return FitInputs(panel, truth, grid, cfg)


def fit_run(inp):
    try:
        return Outcome(dafm.fit_dafm(inp.panel, inp.grid, inp.cfg), 1, 0)
    except dafm.NumericalError:
        return Outcome(None, 1, 1)


def fit_check(inp, out, captured):
    if out.output is None:
        return []
    return checks.check_exact_fit(
        inp.panel.values, out.output, inp.grid.levels_array(), inp.grid.weights_array(),
        inp.grid.median_index(), inp.truth.dafm_factors(), FIT_R2_FLOORS)


def fit_summary(out):
    fit = out.output
    return None if fit is None else {
        "objective": float(fit.objective), "outer_iters": len(fit.objective_trace)}


# -- infer --------------------------------------------------------------------

@dataclass
class InferInputs:
    panel: object
    grid: object
    cfg: object
    scfg: object
    start: object


def infer_setup(seed):
    panel, truth = dafm.gen_location_scale_shift(
        INFER["n_series"], INFER["n_periods"], dafm.ErrorDist.gaussian(), seed)
    grid = dafm.QuantileGrid(LEVELS)
    cfg = dafm.FitConfig(r=truth.n_factors, tol=TOL, max_outer=INFER["max_outer"])
    scfg = dafm.SmoothConfig.for_sample(
        INFER["n_periods"], kernel=dafm.build_kernel(INFER["kernel_order"]))
    start = dafm.FactorFit(F=truth.dafm_factors(), loadings=truth.dafm_loadings(grid), grid=grid)
    return InferInputs(panel, grid, cfg, scfg, start)


@dataclass
class InferOutput:
    fit: object
    factor_cis: list  # (t, ConfidenceIntervals or None when it raised)
    loading_cis: list  # (k, i, ConfidenceIntervals or None)


def _interval(fn, *args):
    try:
        return fn(*args, level=INFER["ci_level"])
    except dafm.NumericalError:
        return None


def infer_run(inp):
    T, N = inp.panel.values.shape
    K = len(inp.grid)
    attempted = 1 + T + K * N
    try:
        fit = dafm.fit_smoothed_dafm(inp.panel, inp.grid, inp.cfg, inp.scfg, init_fit=inp.start)
    except dafm.NumericalError:
        return Outcome(None, attempted, attempted)
    fcis = [(t, _interval(dafm.factor_ci, fit, inp.panel, inp.scfg, t)) for t in range(1, T + 1)]
    lcis = [(k, i, _interval(dafm.loading_ci, fit, inp.panel, inp.scfg, k, i))
            for k in range(1, K + 1) for i in range(1, N + 1)]
    failed = sum(ci is None for *_, ci in fcis + lcis)
    return Outcome(InferOutput(fit, fcis, lcis), attempted, failed)


def infer_check(inp, out, captured):
    if out.output is None:
        return []
    fit = out.output.fit
    errors = checks.check_smoothed_fit(
        inp.panel.values, fit, inp.start.F, inp.start.loadings, inp.grid.levels_array(),
        inp.grid.weights_array(), inp.scfg.kernel, inp.scfg.h)
    for t, ci in out.output.factor_cis:
        if ci is not None:
            errors += checks.check_interval(ci, fit.F[t - 1], f"factor_ci t={t}")
    for k, i, ci in out.output.loading_cis:
        if ci is not None:
            errors += checks.check_interval(ci, fit.loadings[k - 1, i - 1], f"loading_ci k={k} i={i}")
    return errors


def infer_summary(out):
    fit = out.output and out.output.fit
    return None if fit is None else {
        "objective": float(fit.objective), "outer_iters": len(fit.objective_trace)}


# -- forecast -----------------------------------------------------------------

@dataclass
class ForecastInputs:
    panel: object
    task: object
    grid: object
    cfg: object


def forecast_target(F0, seed):
    """Target whose one-step change loads on the first two true factors."""
    rng = np.random.default_rng([seed, 1])
    dy = 0.6 * F0[:-1, 0] - 0.4 * F0[:-1, 1] + 0.5 * rng.standard_normal(F0.shape[0] - 1)
    return np.concatenate([[0.0], np.cumsum(dy)])


def forecast_setup(seed):
    T = FORECAST["window"] + FORECAST["horizon"] + FORECAST["windows"] - 1
    panel, truth = dafm.gen_location_shift(FORECAST["n_series"], T, dafm.ErrorDist.gaussian(), seed)
    task = dafm.ForecastTask(
        target=forecast_target(truth.F0, seed), horizon=FORECAST["horizon"],
        window=FORECAST["window"], max_lag=FORECAST["max_lag"], method="ar+dafm")
    grid = dafm.QuantileGrid(LEVELS)
    cfg = dafm.FitConfig(r=truth.n_factors, tol=TOL, max_outer=FORECAST["max_outer"])
    return ForecastInputs(panel, task, grid, cfg)


def forecast_run(inp):
    forecasts, _ = dafm.rolling_forecast(inp.panel, None, inp.task, inp.grid, inp.cfg)
    return Outcome(forecasts, forecasts.size, int(np.isnan(forecasts).sum()))


def forecast_check(inp, out, captured):
    task = inp.task
    y = task.target
    errors = checks.check_forecast_count(out.output, y.size, task.window, task.horizon)
    ar, _ = dafm.rolling_forecast(inp.panel, None, replace(task, method="ar"))
    errors += checks.check_ar_forecasts(ar, y, task.window, task.horizon, task.max_lag)
    # Only a traced round captures window factors, and only while the
    # window probe exists and its hook works; otherwise the check is skipped.
    factors = (captured or {}).get("forecast.window_fit")
    if factors is not None:
        errors += checks.check_factor_forecasts(
            out.output, inp.panel.values, y, task.window, task.horizon, task.max_lag, factors)
    return errors


def forecast_summary(out):
    return {"forecast_sum": float(np.nansum(out.output))}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object
    summary: object
    # Set-ups per round, timed as one batch of about 50 ms.
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit", fit_setup, fit_run, fit_check, fit_summary, 200),
        Workload("infer", infer_setup, infer_run, infer_check, infer_summary, 25),
        Workload("forecast", forecast_setup, forecast_run, forecast_check, forecast_summary, 200),
    )
}
