"""Factor-augmented AR forecasting with rolling windows.

The target regression predicts the h-step change of a series from its own
recent first differences plus contemporaneous factor estimates:

    y_{t+h} - y_t = alpha + sum_{m=0..p} beta_m (y_{t-m} - y_{t-m-1})
                    + beta_F' F_t + error.

The pure-AR benchmark is the same regression without the factor block, so
model comparisons are exactly nested.  Forecasts are invariant to invertible
reparameterizations of the factor block (OLS span invariance), which lets
the rolling driver work with raw, un-normalized factor fits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimator import _alternate, _fit_raw, mean_pca
from .grids import QuantileGrid
from .panel import as_panel

__all__ = ["ForecastTask", "select_lags_bic", "fit_factor_ar", "rolling_forecast"]

_METHODS = ("ar", "ar+dafm", "ar+qfm", "ar+pca")


@dataclass(frozen=True)
class ForecastTask:
    """Rolling-forecast specification.

    ``method`` is "ar", "ar+dafm", "ar+pca", or "ar+qfm:TAU" (e.g.
    "ar+qfm:0.5").  ``window`` rows of history are used per fit and the
    forecast horizon is measured in rows of the target.
    """

    target: np.ndarray
    horizon: int
    window: int = 120
    max_lag: int = 4
    method: str = "ar+dafm"

    def __post_init__(self):
        y = np.asarray(self.target, dtype=float).ravel()
        if not np.all(np.isfinite(y)):
            raise ValueError("target series must be finite")
        object.__setattr__(self, "target", y)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.window < 3:
            raise ValueError(f"window must be >= 3, got {self.window}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")
        if self.window + self.horizon > y.size:
            raise ValueError(
                f"window {self.window} + horizon {self.horizon} exceeds "
                f"target length {y.size}"
            )
        name = self.method.split(":", 1)[0]
        if name not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if name == "ar+qfm":
            try:
                tau = float(self.method.split(":", 1)[1])
            except (IndexError, ValueError):
                raise ValueError("ar+qfm needs a level, e.g. 'ar+qfm:0.5'") from None
            if not 0.0 < tau < 1.0:
                raise ValueError(f"ar+qfm level must be in (0, 1), got {tau}")


def _design(y, factors, p, horizon):
    """Regression rows for the h-step-change model.

    Returns (t_rows, X, resp): usable origin indices t, the design
    [1, dy_t, ..., dy_{t-p}, F_t], and the responses y_{t+h} - y_t.
    """
    y = np.asarray(y, dtype=float).ravel()
    T = y.size
    t_lo = p + 1
    t_hi = T - 1 - horizon
    if t_hi < t_lo:
        raise ValueError(
            f"no usable observations: length {T}, lags {p}, horizon {horizon}"
        )
    t = np.arange(t_lo, t_hi + 1)
    dy = np.diff(y)  # dy[j] = y[j+1] - y[j]
    cols = [np.ones(t.size)]
    for m in range(p + 1):
        cols.append(dy[t - m - 1])
    if factors is not None and factors.shape[1] > 0:
        if factors.shape[0] != T:
            raise ValueError(
                f"factors have {factors.shape[0]} rows, target has {T}"
            )
        cols.append(factors[t])
    X = np.column_stack(cols)
    resp = y[t + horizon] - y[t]
    return t, X, resp


def _solve_ols(X, resp, n_ar_cols):
    """Least squares with the nested-model guarantee.

    A rank-deficient AR block (intercept + lag columns) is an error; dead
    factor directions only trigger the minimum-norm fallback, so appending
    zero factor columns reproduces the benchmark coefficients exactly.
    """
    beta, _, rank, _ = np.linalg.lstsq(X, resp, rcond=None)
    if rank < X.shape[1]:
        ar_rank = np.linalg.matrix_rank(X[:, :n_ar_cols])
        if ar_rank < n_ar_cols:
            raise ValueError("AR design is rank deficient (constant target?)")
        warnings.warn(
            "factor block is rank deficient; using the minimum-norm fit",
            RuntimeWarning,
            stacklevel=3,
        )
    return beta


def select_lags_bic(y, horizon, max_lag):
    """Smallest-BIC lag order for the pure-AR change regression.

    All candidates p = 0..max_lag are fit on the common sample usable by the
    max_lag model, so the criteria are comparable; BIC = n ln(RSS/n) +
    k ln(n).  Ties break toward fewer lags.
    """
    y = np.asarray(y, dtype=float).ravel()
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    t, X_full, resp = _design(y, None, max_lag, horizon)
    n = t.size
    if n <= max_lag + 2:
        raise ValueError(
            f"only {n} usable observations for max_lag {max_lag}; need more"
        )
    best_p, best_bic = 0, np.inf
    for p in range(max_lag + 1):
        X = X_full[:, : p + 2]
        beta, *_ = np.linalg.lstsq(X, resp, rcond=None)
        resid = resp - X @ beta
        rss = float(resid @ resid)
        with np.errstate(divide="ignore"):
            bic = n * np.log(rss / n) + (p + 2) * np.log(n)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p


def fit_factor_ar(y, factors, p, horizon):
    """OLS coefficients (alpha, beta_y, beta_F) of the change regression.

    ``factors`` is a T×r matrix aligned with ``y`` (None or zero columns for
    the pure-AR benchmark; ``beta_F`` is then empty).
    """
    factors = None if factors is None else np.asarray(factors, dtype=float)
    _, X, resp = _design(y, factors, p, horizon)
    beta = _solve_ols(X, resp, p + 2)
    alpha = float(beta[0])
    beta_y = beta[1 : p + 2].copy()
    beta_f = beta[p + 2 :].copy()
    return alpha, beta_y, beta_f


def _window_factors(X_win, task, grid, cfg, F_prev):
    """Factor estimates for one window under the task's method.

    Raw (un-normalized) fits are used: the forecast is invariant to the
    parametrization.  ``F_prev`` warm-starts the alternating fit from the
    previous window, shifted one row.
    """
    name, _, arg = task.method.partition(":")
    if name == "ar":
        return None
    if name == "ar+pca":
        F, _ = mean_pca(X_win, cfg.r)
        return F
    if name == "ar+qfm":
        g = QuantileGrid((float(arg),))
    else:
        g = grid
    if F_prev is None:
        F, lam, _, _ = _fit_raw(X_win, g, cfg)
    else:
        F0 = np.ascontiguousarray(np.vstack([F_prev[1:], F_prev[-1:]]))
        F, lam, _, _ = _alternate(X_win, F0, g, cfg)
    return F


def rolling_forecast(panel, y, task, grid=None, cfg=None):
    """Out-of-sample forecasts from per-window factor and regression fits.

    For each origin s (0-based rows W-1 .. len(y)-1-horizon) the factors,
    the BIC lag order, and the regression are all estimated from rows
    s-W+1..s only, then y_{s+horizon} is predicted; the forecast count is
    len(y) - window - horizon + 1.  A window whose fit fails yields a NaN
    forecast (with a warning) rather than aborting the run.  Returns
    ``(forecasts, actuals)``.
    """
    if y is None:
        y = task.target
    y = np.asarray(y, dtype=float).ravel()
    X = as_panel(panel).values
    if X.shape[0] != y.size:
        raise ValueError(f"panel has {X.shape[0]} rows, target has {y.size}")
    W, h = task.window, task.horizon
    n_out = y.size - W - h + 1
    if n_out < 1:
        raise ValueError("window + horizon leave no forecast origins")
    needs_factors = task.method != "ar"
    if needs_factors and cfg is None:
        raise ValueError("factor methods need a FitConfig (it carries r)")
    if task.method == "ar+dafm" and grid is None:
        raise ValueError("ar+dafm needs a quantile grid")

    forecasts = np.full(n_out, np.nan)
    actuals = np.empty(n_out)
    failures = []
    F_prev = None
    for j in range(n_out):
        s = W - 1 + j
        lo = s - W + 1
        y_win = y[lo : s + 1]
        actuals[j] = y[s + h]
        try:
            F_win = (
                _window_factors(np.ascontiguousarray(X[lo : s + 1]), task, grid, cfg, F_prev)
                if needs_factors
                else None
            )
            if needs_factors and task.method != "ar+pca":
                F_prev = F_win
            p = select_lags_bic(y_win, h, task.max_lag)
            alpha, beta_y, beta_f = fit_factor_ar(y_win, F_win, p, h)
            dy = np.diff(y_win)
            pred = alpha + float(np.dot(beta_y, dy[::-1][: p + 1]))
            if F_win is not None and beta_f.size:
                pred += float(F_win[-1] @ beta_f)
            forecasts[j] = y[s] + pred
        except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
            failures.append((s, str(exc)))
            F_prev = None
    if failures:
        warnings.warn(
            f"{len(failures)} window(s) failed and were marked missing "
            f"(first: origin {failures[0][0]}: {failures[0][1]})",
            RuntimeWarning,
            stacklevel=2,
        )
    return forecasts, actuals
