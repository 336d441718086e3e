"""Correctness checks on the benchmark's outputs, computed apart from dafm.

Each check recomputes what it needs from the workload's inputs with numpy
and scipy (the smoothed checks use the public ``Kernel.survival`` and
``Kernel.pdf`` polynomials) and returns a list of failure messages that is
empty when the output passes.  No check compares against a stored copy of
an earlier output: each one tests a property the method guarantees.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.stats

#: Rounding slack for "non-increasing" on an objective trace.
TRACE_RTOL = 1e-12
#: Reported objective against the numpy recomputation.
OBJECTIVE_RTOL = 1e-10
#: F'F/T = I and the off-diagonal of the reference-level loading product.
NORMALIZATION_TOL = 1e-10
#: Period objective at the fitted factor row against the HiGHS optimum.
LP_RTOL = 1e-7
#: Largest smoothed factor-subproblem gradient, relative to sum_k w_k sum_i |lambda_ki|.
GRADIENT_RTOL = 2e-4
#: Interval half-widths against z * sqrt(diag(cov)), and covariance symmetry.
INTERVAL_RTOL = 1e-12
#: Pure-AR forecasts against the numpy BIC + OLS recomputation.
AR_RTOL = 1e-10
#: Factor-augmented forecasts against OLS on the captured window factors.
FACTOR_FORECAST_RTOL = 1e-8


def check_loss(R, tau):
    return np.maximum(tau * R, (tau - 1.0) * R)


def composite_objective(X, F, lam, taus, wts):
    """(1/NT) sum_k w_k sum_{t,i} rho_{tau_k}(X_ti - F_t . lam_ki)."""
    T, N = X.shape
    total = sum(w * check_loss(X - F @ L.T, tau).sum() for L, tau, w in zip(lam, taus, wts))
    return total / (N * T)


def smoothed_objective(X, F, lam, taus, wts, kernel, h):
    """(1/NT) sum_k w_k sum_{t,i} (tau_k - K(e/h)) e with e the residual."""
    T, N = X.shape
    total = 0.0
    for L, tau, w in zip(lam, taus, wts):
        R = X - F @ L.T
        total += w * np.sum((tau - kernel.survival(R / h)) * R)
    return total / (N * T)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def non_increasing(trace, label):
    trace = [float(v) for v in trace]
    if not trace:
        return [f"{label}: empty objective trace"]
    return [
        f"{label}: objective rose from {a:.17g} to {b:.17g} at outer iteration {i + 2}"
        for i, (a, b) in enumerate(zip(trace, trace[1:]))
        if b - a > TRACE_RTOL * abs(a)
    ]


def lp_period_optimum(x_t, lam, taus, wts):
    """HiGHS optimum of min_f sum_k w_k sum_i rho_{tau_k}(x_ti - lam_ki . f).

    Written as  min c'(u, v)  s.t.  Z f + u - v = y,  u, v >= 0,  f free.
    """
    K, N, r = lam.shape
    n = K * N
    Z = scipy.sparse.csc_matrix(lam.reshape(n, r))
    w = np.repeat(wts, N)
    tau = np.repeat(taus, N)
    cost = np.concatenate([np.zeros(r), w * tau, w * (1.0 - tau)])
    eye = scipy.sparse.identity(n, format="csc")
    A_eq = scipy.sparse.hstack([Z, eye, -eye], format="csc")
    bounds = [(None, None)] * r + [(0.0, None)] * (2 * n)
    res = scipy.optimize.linprog(cost, A_eq=A_eq, b_eq=np.tile(x_t, K), bounds=bounds,
                                 method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a factor-row LP: {res.message}")
    return float(res.fun)


def period_objective(x_t, f, lam, taus, wts):
    return float(sum(w * check_loss(x_t - L @ f, tau).sum() for L, tau, w in zip(lam, taus, wts)))


def adjusted_r2(y, F):
    """Adjusted R^2 of OLS of ``y`` on an intercept and the columns of ``F``."""
    T, r = F.shape
    Z = np.column_stack([np.ones(T), F])
    beta = np.linalg.lstsq(Z, y, rcond=None)[0]
    resid = y - Z @ beta
    dev = y - y.mean()
    r2 = 1.0 - (resid @ resid) / (dev @ dev)
    return 1.0 - (1.0 - r2) * (T - 1) / (T - r - 1)


def check_exact_fit(X, fit, taus, wts, k_star, F_true, r2_floors):
    """Properties of a composite exact fit (``fit_dafm``)."""
    F = np.asarray(fit.F)
    lam = np.asarray(fit.loadings)
    T, N = X.shape
    errors = non_increasing(fit.objective_trace, "fit")
    obj = composite_objective(X, F, lam, taus, wts)
    if not _rel(float(fit.objective), obj) <= OBJECTIVE_RTOL:
        errors.append(f"fit: reported objective {float(fit.objective):.17g} but the "
                      f"returned F and loadings give {obj:.17g}")
    dev = np.abs(F.T @ F / T - np.eye(F.shape[1])).max()
    if not dev <= NORMALIZATION_TOL:
        errors.append(f"fit: F'F/T differs from I by {dev:.3g}")
    L = lam[k_star - 1]
    M = L.T @ L / N
    off = np.abs(M - np.diag(np.diag(M))).max()
    if not off <= NORMALIZATION_TOL * max(np.abs(np.diag(M)).max(), 1.0):
        errors.append(f"fit: loading cross-product at k*={k_star} has off-diagonal {off:.3g}")
    for t in range(T):
        opt = lp_period_optimum(X[t], lam, taus, wts)
        got = period_objective(X[t], F[t], lam, taus, wts)
        if not _rel(got, opt) <= LP_RTOL:
            errors.append(f"fit: factor row {t + 1} has period objective {got:.17g}, "
                          f"HiGHS optimum given the loadings is {opt:.17g}")
    for j, floor in enumerate(r2_floors):
        r2 = adjusted_r2(F_true[:, j], F)
        if not r2 >= floor:
            errors.append(f"fit: adjusted R^2 of true factor {j + 1} is {r2:.4f}, floor {floor}")
    return errors


def factor_gradients(X, F, lam, taus, wts, kernel, h):
    """Per-period gradient of the smoothed factor subproblem, relative to its scale.

    Row t is -sum_k w_k sum_i lam_ki vrho'_{tau_k}(e_kti) with
    vrho'(e) = tau - K(u) + u k(u), u = e/h, divided componentwise by
    sum_k w_k sum_i |lam_ki|.
    """
    grad = np.zeros_like(F)
    scale = np.zeros(F.shape[1])
    for L, tau, w in zip(lam, taus, wts):
        U = (X - F @ L.T) / h
        psi = tau - kernel.survival(U) + U * kernel.pdf(U)
        grad -= w * psi @ L
        scale += w * np.abs(L).sum(axis=0)
    return grad / np.maximum(scale, 1e-300)


def check_smoothed_fit(X, fit, start_F, start_lam, taus, wts, kernel, h):
    """Properties of ``fit_smoothed_dafm`` started from (start_F, start_lam)."""
    F = np.asarray(fit.F)
    lam = np.asarray(fit.loadings)
    errors = non_increasing(fit.objective_trace, "smoothed fit")
    final = smoothed_objective(X, F, lam, taus, wts, kernel, h)
    start = smoothed_objective(X, start_F, start_lam, taus, wts, kernel, h)
    if not _rel(float(fit.objective), final) <= OBJECTIVE_RTOL:
        errors.append(f"smoothed fit: reported objective {float(fit.objective):.17g} but "
                      f"the returned F and loadings give {final:.17g}")
    if not final <= start:
        errors.append(f"smoothed fit: final objective {final:.17g} above the start's {start:.17g}")
    g = np.abs(factor_gradients(X, F, lam, taus, wts, kernel, h)).max(axis=1)
    for t in np.flatnonzero(~(g <= GRADIENT_RTOL)):
        errors.append(f"smoothed fit: factor-subproblem gradient at period {t + 1} is "
                      f"{g[t]:.3g} of its scale")
    return errors


def check_interval(ci, fitted, label):
    """A symmetric normal interval estimate +- z sqrt(diag(cov)) around the fitted row."""
    est, lo, hi, cov = (np.asarray(a, dtype=float) for a in (ci.estimate, ci.lower, ci.upper, ci.cov))
    if not all(np.all(np.isfinite(a)) for a in (est, lo, hi, cov)):
        return [f"{label}: non-finite interval or covariance"]
    errors = []
    if not np.array_equal(est, fitted):
        errors.append(f"{label}: estimate differs from the fitted row")
    if not (np.all(lo <= est) and np.all(est <= hi)):
        errors.append(f"{label}: bounds do not enclose the estimate")
    if not np.abs(cov - cov.T).max() <= INTERVAL_RTOL * np.abs(cov).max():
        errors.append(f"{label}: covariance is not symmetric")
    var = np.diag(cov)
    if not np.all(var >= 0.0):
        errors.append(f"{label}: negative variance on the covariance diagonal")
    half = scipy.stats.norm.ppf(0.5 * (1.0 + ci.level)) * np.sqrt(np.maximum(var, 0.0))
    slack = INTERVAL_RTOL * (np.abs(est) + half) + 1e-300
    if not (np.all(np.abs(hi - est - half) <= slack) and np.all(np.abs(est - lo - half) <= slack)):
        errors.append(f"{label}: half-widths differ from z*sqrt(diag(cov))")
    return errors


def _bic_lag(y, horizon, max_lag):
    """BIC lag order on the common max_lag sample; ties go to fewer lags."""
    X_full, resp = _change_design(y, None, max_lag, horizon)
    n = resp.size
    best_p, best_bic = 0, np.inf
    for p in range(max_lag + 1):
        X = X_full[:, : p + 2]
        resid = resp - X @ np.linalg.lstsq(X, resp, rcond=None)[0]
        bic = n * np.log((resid @ resid) / n) + (p + 2) * np.log(n)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p


def _change_design(y, factors, p, horizon):
    """Rows t = p+1 .. len(y)-1-h of [1, dy_t, .., dy_{t-p}, F_t] and y_{t+h} - y_t."""
    t = np.arange(p + 1, y.size - horizon)
    dy = np.diff(y)
    cols = [np.ones(t.size)] + [dy[t - m - 1] for m in range(p + 1)]
    if factors is not None:
        cols.append(factors[t])
    return np.column_stack(cols), y[t + horizon] - y[t]


def window_forecast(y_win, factors, horizon, max_lag):
    """h-step forecast from one window: BIC lags, OLS, prediction at the last row."""
    p = _bic_lag(y_win, horizon, max_lag)
    X, resp = _change_design(y_win, factors, p, horizon)
    beta = np.linalg.lstsq(X, resp, rcond=None)[0]
    x_last = [1.0, *np.diff(y_win)[::-1][: p + 1]]
    if factors is not None:
        x_last.extend(factors[-1])
    return y_win[-1] + float(np.dot(beta, x_last))


def _compare(rows, rtol, label):
    """Failures among (window index, forecast, recomputed) triples."""
    return [
        f"{label}: window {j} forecast {g:.17g}, recomputed {w:.17g}"
        for j, g, w in rows
        if not abs(g - w) <= rtol * max(1.0, abs(w))
    ]


def check_forecast_count(forecasts, n_periods, window, horizon):
    f = np.asarray(forecasts)
    errors = []
    if f.shape != (n_periods - window - horizon + 1,):
        errors.append(f"forecast: {f.size} forecasts, expected {n_periods - window - horizon + 1}")
    if np.any(np.isinf(f)):
        errors.append("forecast: infinite forecast")
    return errors


def check_ar_forecasts(forecasts, y, window, horizon, max_lag):
    """Pure-AR rolling forecasts against the numpy BIC + OLS recomputation."""
    rows = [(j, got, window_forecast(y[s - window + 1 : s + 1], None, horizon, max_lag))
            for j, (s, got) in enumerate(zip(range(window - 1, y.size - horizon), forecasts))]
    errors = check_forecast_count(forecasts, y.size, window, horizon)
    return errors + _compare(rows, AR_RTOL, "ar forecast")


def check_factor_forecasts(forecasts, X, y, window, horizon, max_lag, captured):
    """Factor-augmented forecasts against OLS on each window's captured factors.

    ``captured`` holds ``(X_window, F_window)`` for every window whose factor
    fit returned, in call order; a window marked missing (NaN) is skipped.
    """
    errors, rows = [], []
    pending = iter(captured)
    entry = next(pending, None)
    for j, s in enumerate(range(window - 1, y.size - horizon)):
        F_win = None
        if entry is not None and np.array_equal(entry[0], X[s - window + 1 : s + 1]):
            F_win, entry = entry[1], next(pending, None)
        if np.isnan(forecasts[j]):
            continue
        if F_win is None:
            errors.append(f"ar+dafm forecast: window {j} has a forecast but no captured factors")
            continue
        rows.append((j, forecasts[j], window_forecast(y[s - window + 1 : s + 1], F_win, horizon, max_lag)))
    return errors + _compare(rows, FACTOR_FORECAST_RTOL, "ar+dafm forecast")
