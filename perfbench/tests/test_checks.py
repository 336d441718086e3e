"""The benchmark's own checks accept real dafm output and reject corrupted output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
Every test uses a tiny panel, so the file finishes in seconds.
"""

import sys
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

import checks
import dafm
from layers import PROBES, layer_metrics
from workloads import Outcome, forecast_check, forecast_setup
from tracing import Probe, Tracer

LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def exact_fit():
    panel, truth = dafm.gen_location_scale_shift(12, 12, dafm.ErrorDist.gaussian(), seed=0)
    grid = dafm.QuantileGrid(LEVELS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = dafm.fit_dafm(panel, grid, dafm.FitConfig(r=3, tol=1e-5, max_outer=4))
    return panel.values, grid, truth, fit


def _check_fit(X, grid, truth, fit, floors=()):
    return checks.check_exact_fit(X, fit, grid.levels_array(), grid.weights_array(),
                                  grid.median_index(), truth.dafm_factors(), floors)


def test_exact_fit_check_accepts_the_fit(exact_fit):
    assert _check_fit(*exact_fit) == []


def test_exact_fit_check_rejects_a_moved_factor_row(exact_fit):
    X, grid, truth, fit = exact_fit
    F = fit.F.copy()
    F[3] += 1e-3
    errors = _check_fit(X, grid, truth, replace(fit, F=F))
    assert any("factor row 4 " in e for e in errors)
    assert not any("factor row 3 " in e for e in errors)


def test_exact_fit_check_enforces_r2_floors(exact_fit):
    X, grid, truth, fit = exact_fit
    errors = _check_fit(X, grid, truth, fit, floors=(1.01,))
    assert any("adjusted R^2 of true factor 1" in e for e in errors)


def test_trace_check_rejects_an_increase():
    assert checks.non_increasing([3.0, 2.0, 2.0], "t") == []
    assert checks.non_increasing([3.0, 2.0, 2.0 + 1e-9], "t") != []


@pytest.fixture(scope="module")
def smoothed():
    panel, truth = dafm.gen_location_scale_shift(12, 24, dafm.ErrorDist.gaussian(), seed=1)
    grid = dafm.QuantileGrid(LEVELS)
    scfg = dafm.SmoothConfig.for_sample(24)
    start = dafm.FactorFit(F=truth.dafm_factors(), loadings=truth.dafm_loadings(grid), grid=grid)
    fit = dafm.fit_smoothed_dafm(panel, grid, dafm.FitConfig(r=3, tol=1e-5, max_outer=2), scfg,
                                 init_fit=start)
    return panel, grid, scfg, start, fit


def _check_smoothed(panel, grid, scfg, start, fit):
    return checks.check_smoothed_fit(panel.values, fit, start.F, start.loadings,
                                     grid.levels_array(), grid.weights_array(), scfg.kernel, scfg.h)


def test_smoothed_check_accepts_the_fit(smoothed):
    assert _check_smoothed(*smoothed) == []


def test_smoothed_check_rejects_a_moved_factor_row(smoothed):
    panel, grid, scfg, start, fit = smoothed
    F = fit.F.copy()
    F[5] += 1e-3
    errors = _check_smoothed(panel, grid, scfg, start, replace(fit, F=F))
    assert any("gradient at period 6 " in e for e in errors)


@pytest.mark.parametrize("kind", ["factor", "loading"])
def test_interval_check_accepts_real_and_rejects_swapped_bounds(smoothed, kind):
    panel, grid, scfg, _, fit = smoothed
    if kind == "factor":
        ci, row = dafm.factor_ci(fit, panel, scfg, 4), fit.F[3]
    else:
        ci, row = dafm.loading_ci(fit, panel, scfg, 2, 5), fit.loadings[1, 4]
    assert checks.check_interval(ci, row, kind) == []
    swapped = replace(ci, lower=ci.upper, upper=ci.lower)
    assert any("enclose" in e for e in checks.check_interval(swapped, row, kind))


@pytest.fixture(scope="module")
def forecast_case():
    panel, truth = dafm.gen_location_shift(6, 21, dafm.ErrorDist.gaussian(), seed=2)
    rng = np.random.default_rng(2)
    y = np.cumsum(0.5 * truth.F0[:, 0] + rng.standard_normal(21))
    task = dafm.ForecastTask(target=y, horizon=1, window=18, max_lag=2, method="ar+dafm")
    grid = dafm.QuantileGrid((0.25, 0.5, 0.75))
    cfg = dafm.FitConfig(r=2, tol=1e-5, max_outer=3)
    window_probe = next(p for p in PROBES if p.span == "forecast.window_fit")
    tracer = Tracer()
    tracer.install([window_probe])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dafm_fc, _ = dafm.rolling_forecast(panel, None, task, grid, cfg)
    finally:
        tracer.uninstall()
    ar_fc, _ = dafm.rolling_forecast(panel, None, replace(task, method="ar"))
    return panel.values, y, task, ar_fc, dafm_fc, tracer.take_captured()["forecast.window_fit"]


def test_ar_check_accepts_real_and_rejects_a_moved_forecast(forecast_case):
    _, y, task, ar_fc, _, _ = forecast_case
    args = (y, task.window, task.horizon, task.max_lag)
    assert checks.check_ar_forecasts(ar_fc, *args) == []
    moved = ar_fc.copy()
    moved[1] += 1e-6
    assert any("window 1 " in e for e in checks.check_ar_forecasts(moved, *args))


def test_factor_forecast_check_accepts_real_and_rejects_a_moved_forecast(forecast_case):
    X, y, task, _, dafm_fc, captured = forecast_case
    assert len(captured) == dafm_fc.size == 3
    args = (X, y, task.window, task.horizon, task.max_lag, captured)
    assert checks.check_factor_forecasts(dafm_fc, *args) == []
    moved = dafm_fc.copy()
    moved[2] += 1e-6
    assert any("window 2 " in e for e in checks.check_factor_forecasts(moved, *args))


def test_forecast_count_check():
    assert checks.check_forecast_count(np.zeros(3), 21, 18, 1) == []
    assert checks.check_forecast_count(np.zeros(2), 21, 18, 1) != []


@pytest.fixture
def toy_module():
    mod = types.ModuleType("perfbench_toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_self_time_and_uninstall(toy_module):
    tracer = Tracer()
    tracer.install([Probe("toy.outer", (("perfbench_toy", "outer"),)),
                    Probe("toy.inner", (("perfbench_toy", "inner"),))])
    try:
        assert toy_module.outer(1) == 4
    finally:
        tracer.uninstall()
    assert not hasattr(toy_module.outer, "__wrapped__")
    (o_id, o0, o1, o_parent), (i_id, i0, i1, i_parent) = tracer.spans
    assert tracer.names[o_id] == "toy.outer" and o_parent == -1 and i_parent == 0
    st = tracer.stats()
    assert st["toy.outer"].self_s == pytest.approx((o1 - o0) - (i1 - i0))
    assert st["toy.inner"].self_s == pytest.approx(i1 - i0)


def test_missing_function_is_reported_absent_not_raised():
    tracer = Tracer()
    tracer.install([Probe("solvers.ipm", (("dafm.solvers", "_no_such_solver"),))])
    tracer.uninstall()
    assert tracer.absent == ["dafm.solvers._no_such_solver"]
    metrics = layer_metrics(tracer, rounds=1, setups=1)
    assert "solvers.ipm.s" not in metrics and "solvers.polish.s" not in metrics


def test_broken_hook_drops_its_metrics_not_the_run(toy_module):
    def gap_hook(tracer, args, result):  # expects a tuple, gets an int
        tracer.count("solvers.gap_misses", int(result[1]))

    tracer = Tracer()
    tracer.install([Probe("solvers.loading_sweep", (("perfbench_toy", "inner"),), gap_hook),
                    Probe("solvers.factor_sweep", (("perfbench_toy", "outer"),), gap_hook)])
    try:
        assert toy_module.outer(1) == 4
    finally:
        tracer.uninstall()
    assert tracer.broken == {"solvers.loading_sweep", "solvers.factor_sweep"}
    metrics = layer_metrics(tracer, rounds=1, setups=1)
    assert "solvers.gap_misses" not in metrics
    assert metrics["solvers.loading_sweep.calls"][0] == 1
    assert tracer.take_captured() == {}


def test_forecast_check_skips_factors_only_when_the_probe_is_missing():
    inp = forecast_setup(0)
    task = inp.task
    out = Outcome(np.zeros(inp.task.target.size - task.window - task.horizon + 1), 5, 0)
    assert forecast_check(inp, out, None) == []
    assert forecast_check(inp, out, {}) == []
    missing = forecast_check(inp, out, {"forecast.window_fit": []})
    assert any("no captured factors" in e for e in missing)
