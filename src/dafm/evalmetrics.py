"""Recovery and forecast metrics: adjusted R² and relative MSE."""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["adjusted_r2", "relative_mse"]


def adjusted_r2(true_factor, estimated):
    """Adjusted R² from regressing a true factor on estimated factors.

    OLS with intercept; returns 1 - (1 - R²)(T - 1)/(T - r - 1).  The value
    is invariant to invertible reparameterizations of the estimated block,
    which makes it a rotation-free recovery measure.  Collinear estimated
    factors fall back to the minimum-norm solution with a warning.
    """
    y = np.asarray(true_factor, dtype=float).ravel()
    F = np.asarray(estimated, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    T, r = F.shape
    if y.shape[0] != T:
        raise ValueError(f"true factor has {y.shape[0]} rows, estimated has {T}")
    if T <= r + 1:
        raise ValueError(f"need T > r + 1 for the adjustment, got T={T}, r={r}")
    tss = float((y - y.mean()) @ (y - y.mean()))
    if tss == 0.0:
        raise ValueError("true factor is constant; R² undefined")
    Z = np.column_stack([np.ones(T), F])
    beta, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < r + 1:
        warnings.warn(
            "estimated factors are collinear; using the minimum-norm fit",
            RuntimeWarning,
            stacklevel=2,
        )
    resid = y - Z @ beta
    r2 = 1.0 - float(resid @ resid) / tss
    return 1.0 - (1.0 - r2) * (T - 1) / (T - r - 1)


def relative_mse(forecasts, actuals, baseline_forecasts):
    """MSE of the forecasts divided by MSE of the baseline forecasts."""
    f = np.asarray(forecasts, dtype=float).ravel()
    a = np.asarray(actuals, dtype=float).ravel()
    b = np.asarray(baseline_forecasts, dtype=float).ravel()
    if not (f.shape == a.shape == b.shape) or f.size < 1:
        raise ValueError("forecasts, actuals, and baseline must share a length >= 1")
    mse_b = float(np.mean((b - a) ** 2))
    if mse_b == 0.0:
        raise ValueError("baseline MSE is zero; relative MSE undefined")
    return float(np.mean((f - a) ** 2)) / mse_b
