import warnings

import numpy as np
import pytest

from dafm import (
    FitConfig,
    ForecastTask,
    Panel,
    QuantileGrid,
    fit_factor_ar,
    gen_location_shift,
    ErrorDist,
    relative_mse,
    rolling_forecast,
    select_lags_bic,
)


def _manual_design(y, factors, p, horizon):
    y = np.asarray(y, dtype=float)
    T = y.size
    t = np.arange(p + 1, T - horizon)
    dy = np.diff(y)
    cols = [np.ones(t.size)]
    for m in range(p + 1):
        cols.append(dy[t - m - 1])
    if factors is not None:
        cols.append(factors[t])
    return t, np.column_stack(cols), y[t + horizon] - y[t]


def test_task_validation():
    y = np.arange(30.0)
    with pytest.raises(ValueError, match="finite"):
        ForecastTask(target=np.array([1.0, np.nan, 2.0] * 10), horizon=1)
    with pytest.raises(ValueError, match="horizon"):
        ForecastTask(target=y, horizon=0)
    with pytest.raises(ValueError, match="window"):
        ForecastTask(target=y, horizon=1, window=2)
    with pytest.raises(ValueError, match="max_lag"):
        ForecastTask(target=y, horizon=1, window=10, max_lag=-1)
    with pytest.raises(ValueError, match="exceeds"):
        ForecastTask(target=y, horizon=5, window=28)
    with pytest.raises(ValueError, match="unknown method"):
        ForecastTask(target=y, horizon=1, window=10, method="var")
    with pytest.raises(ValueError, match="needs a level"):
        ForecastTask(target=y, horizon=1, window=10, method="ar+qfm")
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        ForecastTask(target=y, horizon=1, window=10, method="ar+qfm:1.5")
    # one spelling per method: no bare factor method, no argument to dafm or pca
    for method in ("dafm", "ar+", "ar+dafm:0.5", "ar+pca:2"):
        with pytest.raises(ValueError, match="unknown method"):
            ForecastTask(target=y, horizon=1, window=10, method=method)
    task = ForecastTask(target=y, horizon=1, window=10, method="ar+qfm:0.5")
    assert task.method == "ar+qfm:0.5"


def test_fit_factor_ar_solves_least_squares():
    rng = np.random.default_rng(0)
    y = np.cumsum(rng.standard_normal(80))
    F = rng.standard_normal((80, 2))
    p, h = 2, 3
    alpha, beta_y, beta_f = fit_factor_ar(y, F, p, h)
    _, X, resp = _manual_design(y, F, p, h)
    beta, *_ = np.linalg.lstsq(X, resp, rcond=None)
    assert alpha == pytest.approx(beta[0], rel=1e-12, abs=1e-14)
    np.testing.assert_allclose(beta_y, beta[1 : p + 2], rtol=1e-12)
    np.testing.assert_allclose(beta_f, beta[p + 2 :], rtol=1e-12)
    # normal equations hold to machine precision
    resid = resp - X @ beta
    assert np.abs(X.T @ resid).max() < 1e-9


def test_fit_factor_ar_exact_recovery():
    # build the target exactly from the regression so OLS must return the
    # coefficients that generated it
    rng = np.random.default_rng(5)
    T = 200
    F = rng.standard_normal((T, 2))
    F -= F.mean(axis=0)
    gamma = np.array([0.5, -0.4])
    dy = np.zeros(T - 1)
    for t in range(1, T - 1):
        dy[t] = 0.3 * dy[t - 1] + gamma @ F[t + 1]
    y = np.concatenate([[0.0], np.cumsum(dy)])
    # with h=1, p=0: y_{t+1} - y_t = dy[t] = 0.3 dy[t-1] + gamma'F[t+1] ...
    # shift the factor matrix so the regressor F_t carries F[t+1]
    F_shift = np.vstack([F[1:], F[-1:]])
    alpha, beta_y, beta_f = fit_factor_ar(y, F_shift, 0, 1)
    assert alpha == pytest.approx(0.0, abs=1e-8)
    assert beta_y[0] == pytest.approx(0.3, abs=1e-8)
    np.testing.assert_allclose(beta_f, gamma, atol=1e-8)


def test_nested_model_guarantee():
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.standard_normal(100))
    alpha0, beta0, empty = fit_factor_ar(y, None, 2, 1)
    assert empty.size == 0
    with pytest.warns(RuntimeWarning, match="factor block is rank deficient"):
        alpha1, beta1, bf = fit_factor_ar(y, np.zeros((100, 3)), 2, 1)
    assert alpha1 == pytest.approx(alpha0, abs=1e-10)
    np.testing.assert_allclose(beta1, beta0, atol=1e-10)
    np.testing.assert_allclose(bf, 0.0, atol=1e-10)
    # a constant target breaks the AR block itself
    with pytest.raises(ValueError, match="rank deficient"):
        fit_factor_ar(np.ones(50), None, 1, 1)


def test_bic_selects_no_lags_for_random_walk():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = np.cumsum(rng.standard_normal(400))
        if select_lags_bic(y, 1, 4) == 0:
            hits += 1
    # random-walk changes are unpredictable, so the penalty should win
    assert hits >= 8


def test_bic_finds_persistent_changes():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        dy = np.zeros(400)
        for t in range(2, 400):
            dy[t] = 0.5 * dy[t - 1] + 0.3 * dy[t - 2] + 0.3 * rng.standard_normal()
        y = np.concatenate([[0.0], np.cumsum(dy)])
        if select_lags_bic(y, 1, 4) >= 1:
            hits += 1
    assert hits >= 8
    with pytest.raises(ValueError, match="max_lag"):
        select_lags_bic(np.arange(50.0), 1, -1)
    with pytest.raises(ValueError, match="usable observations"):
        select_lags_bic(np.arange(8.0), 1, 4)


def test_rolling_forecast_counts_and_origins():
    rng = np.random.default_rng(2)
    y = np.cumsum(rng.standard_normal(240))
    X = rng.standard_normal((240, 5))
    task = ForecastTask(target=y, horizon=3, window=120, max_lag=2, method="ar")
    forecasts, actuals = rolling_forecast(X, y, task)
    assert forecasts.shape == actuals.shape == (118,)
    assert np.all(np.isfinite(forecasts))
    # actual j is y at origin (window-1+j) plus horizon
    np.testing.assert_array_equal(actuals, y[122:])
    # minimal length gives exactly one forecast
    task1 = ForecastTask(target=y[:123], horizon=3, window=120, max_lag=2, method="ar")
    f1, a1 = rolling_forecast(X[:123], y[:123], task1)
    assert f1.shape == (1,)
    assert a1[0] == y[122]


def test_failed_windows_go_missing_with_warning():
    y = np.ones(40)
    task = ForecastTask(target=y, horizon=1, window=20, max_lag=1, method="ar")
    with pytest.warns(RuntimeWarning, match="marked missing"):
        forecasts, actuals = rolling_forecast(np.ones((40, 3)), y, task)
    assert np.all(np.isnan(forecasts))
    assert actuals.shape == forecasts.shape


def test_rolling_forecast_validation():
    rng = np.random.default_rng(3)
    y = np.cumsum(rng.standard_normal(60))
    X = rng.standard_normal((59, 4))
    task = ForecastTask(target=y, horizon=1, window=30, method="ar")
    with pytest.raises(ValueError, match="rows"):
        rolling_forecast(X, y, task)
    X = rng.standard_normal((60, 4))
    with pytest.raises(ValueError, match="FitConfig"):
        rolling_forecast(X, y, ForecastTask(target=y, horizon=1, window=30, method="ar+pca"))
    with pytest.raises(ValueError, match="quantile grid"):
        rolling_forecast(
            X, y, ForecastTask(target=y, horizon=1, window=30, method="ar+dafm"),
            cfg=FitConfig(r=2),
        )


def test_rolling_forecast_checks_its_target():
    # a caller's y replaces task.target, so it is checked before any window
    # runs: a non-finite entry would otherwise be a silent NaN forecast
    panel, truth = gen_location_shift(8, 40, ErrorDist.gaussian(), seed=0)
    y = np.cumsum(truth.F0[:, 0])
    task = ForecastTask(target=y, horizon=1, window=20, method="ar")
    bad = y.copy()
    bad[25] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="y must be finite; row 25 is nan"):
            rolling_forecast(panel, bad, task)
    with pytest.raises(ValueError, match="panel has 40 rows, target has 39"):
        rolling_forecast(panel, y[:-1], task)
    np.testing.assert_array_equal(
        rolling_forecast(panel, y, task)[0], rolling_forecast(panel, None, task)[0]
    )


def test_no_look_ahead():
    # corrupting the future must not change forecasts made before it
    panel, truth = gen_location_shift(15, 100, ErrorDist.gaussian(), seed=8)
    rng = np.random.default_rng(9)
    y = np.cumsum(0.5 * truth.F0[:, 0] + rng.standard_normal(100))
    task = ForecastTask(target=y, horizon=1, window=50, max_lag=2, method="ar+qfm:0.5")
    cfg = FitConfig(r=2, tol=1e-4, max_outer=30)
    base, _ = rolling_forecast(panel, y, task, cfg=cfg)

    X2 = panel.values.copy()
    y2 = y.copy()
    X2[75:] = 1e6 * (1.0 + np.arange(X2[75:].size).reshape(X2[75:].shape))
    y2[75:] = -1e6
    task2 = ForecastTask(target=y2, horizon=1, window=50, max_lag=2, method="ar+qfm:0.5")
    with warnings.catch_warnings():
        # windows that include the corrupted rows may fail; that's fine here
        warnings.simplefilter("ignore", RuntimeWarning)
        corrupted, _ = rolling_forecast(Panel(X2), y2, task2, cfg=cfg)
    # forecast j fits on rows up to 49+j, so j <= 25 never sees row 75
    np.testing.assert_array_equal(base[:26], corrupted[:26])
    assert not np.array_equal(base[26:], corrupted[26:])


def test_factor_augmentation_helps_on_factor_driven_target():
    panel, truth = gen_location_shift(40, 200, ErrorDist.gaussian(), seed=4)
    rng = np.random.default_rng(4)
    driver = truth.F0 @ np.array([1.0, 0.6, -0.8])
    y = np.empty(200)
    y[0] = 0.0
    noise = rng.standard_normal(199)
    for t in range(199):
        y[t + 1] = y[t] + 0.5 * driver[t] + 0.3 * noise[t]
    task_ar = ForecastTask(target=y, horizon=1, window=100, max_lag=2, method="ar")
    f_ar, actual = rolling_forecast(panel, y, task_ar)
    task_f = ForecastTask(target=y, horizon=1, window=100, max_lag=2, method="ar+pca")
    f_pca, _ = rolling_forecast(panel, y, task_f, cfg=FitConfig(r=3))
    assert relative_mse(f_pca, actual, f_ar) < 1.0
