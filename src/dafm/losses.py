"""Check-function losses, their kernel-smoothed versions, and the composite objective.

Losses
------
check loss         rho_tau(e) = (tau - 1{e <= 0}) e = max(tau e, (tau-1) e)
smoothed check     vrho_tau(e) = (tau - K(e/h)) e, K the kernel survival function
derivative         vrho'(e)  = tau - K(u) + u k(u),            u = e/h
curvature          vrho''(e) = (2/h) k(u) + (e/h^2) k'(u)      (tau-free)

The smoothed loss equals the check loss exactly for |e| >= h.  The composite
objective is M_NT = (1/NT) sum_k sum_i sum_t w_k rho_{tau_k}(X_it - lambda'f_t).
"""

from __future__ import annotations

import numpy as np

from .panel import Panel

__all__ = [
    "check_loss",
    "smoothed_check_loss",
    "smoothed_check_grad",
    "smoothed_check_curv",
    "composite_objective",
    "smoothed_composite_objective",
]


# ---------------------------------------------------------------------------
# array cores shared with the estimator and the smoothed fit
# ---------------------------------------------------------------------------

def _horner(coef, x):
    out = np.zeros_like(x)
    for idx in range(coef.size - 1, -1, -1):
        out = out * x + coef[idx]
    return out


def _survival_vals(surv_coef, u):
    """K(u) with exact saturation outside [-1, 1]."""
    vals = _horner(surv_coef, u)
    return np.where(u <= -1.0, 1.0, np.where(u >= 1.0, 0.0, vals))


def _pdf_vals(coef, u):
    vals = _horner(coef, u)
    return np.where(np.abs(u) < 1.0, vals, 0.0)


def _sgrad_vals(surv_coef, pdf_coef, taus, e, h):
    """Smoothed-loss derivative tau - K(u) + u k(u), u = e/h."""
    u = e / h
    return taus - _survival_vals(surv_coef, u) + u * _pdf_vals(pdf_coef, u)


def _scurv_vals(pdf_coef, deriv_coef, e, h):
    """Smoothed-loss curvature (2 k(u) + u k'(u)) / h, u = e/h."""
    u = e / h
    return (2.0 * _pdf_vals(pdf_coef, u) + u * _pdf_vals(deriv_coef, u)) / h


def _check_loss_sum(R, tau):
    """Sum of rho_tau over a residual array."""
    return np.sum(np.maximum(tau * R, (tau - 1.0) * R))


def _composite_objective_core(X, F, lam, taus, w):
    T, N = X.shape
    total = 0.0
    for k in range(taus.size):
        R = X - F @ lam[k].T
        total += w[k] * _check_loss_sum(R, taus[k])
    return total / (N * T)


def _smoothed_objective_core(X, F, lam, taus, w, h, surv_coef):
    T, N = X.shape
    total = 0.0
    for k in range(taus.size):
        R = X - F @ lam[k].T
        total += w[k] * np.sum((taus[k] - _survival_vals(surv_coef, R / h)) * R)
    return total / (N * T)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _require_level(tau):
    if not (0.0 < tau < 1.0):
        raise ValueError("quantile level must lie in (0, 1), got %r" % (tau,))


def check_loss(eps, tau):
    """rho_tau(eps); vectorized, scalar in gives scalar out."""
    _require_level(tau)
    e = np.asarray(eps, dtype=float)
    out = np.maximum(tau * e, (tau - 1.0) * e)
    return out if out.ndim else float(out)


def smoothed_check_loss(eps, tau, cfg):
    """vrho_tau(eps) = (tau - K(eps/h)) eps for the configured kernel/bandwidth."""
    _require_level(tau)
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    out = (tau - _survival_vals(cfg.kernel.survival_coef, e / cfg.bandwidth)) * e
    return out if np.ndim(eps) else float(out[0])


def smoothed_check_grad(eps, tau, cfg):
    """d/d eps of the smoothed check loss: tau - K(u) + u k(u), u = eps/h."""
    _require_level(tau)
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    out = _sgrad_vals(cfg.kernel.survival_coef, cfg.kernel.coef, tau, e, cfg.bandwidth)
    return out if np.ndim(eps) else float(out[0])


def smoothed_check_curv(eps, cfg):
    """Second derivative (2/h) k(u) + (eps/h^2) k'(u); independent of tau."""
    e = np.atleast_1d(np.asarray(eps, dtype=float))
    out = _scurv_vals(cfg.kernel.coef, cfg.kernel.deriv_coef, e, cfg.bandwidth)
    return out if np.ndim(eps) else float(out[0])


def _objective_inputs(panel, F, loadings, grid):
    X = panel.values if isinstance(panel, Panel) else np.asarray(panel, dtype=float)
    F = np.ascontiguousarray(np.asarray(F, dtype=float))
    lam = np.ascontiguousarray(np.asarray(loadings, dtype=float))
    if lam.ndim == 2:
        lam = lam[None, :, :]
    T, N = X.shape
    K = len(grid)
    if F.shape[0] != T:
        raise ValueError("F has %d rows but panel has T=%d" % (F.shape[0], T))
    if lam.shape != (K, N, F.shape[1]):
        raise ValueError(
            "loadings shape %r does not match (K=%d, N=%d, r=%d)" % (lam.shape, K, N, F.shape[1])
        )
    return np.ascontiguousarray(X), F, lam


def composite_objective(panel, F, loadings, grid):
    """Weighted average check loss M_NT of a candidate fit."""
    X, F, lam = _objective_inputs(panel, F, loadings, grid)
    return float(_composite_objective_core(X, F, lam, grid.levels_array(), grid.weights_array()))


def smoothed_composite_objective(panel, F, loadings, grid, scfg):
    """S_NT: the composite objective with the smoothed check loss."""
    X, F, lam = _objective_inputs(panel, F, loadings, grid)
    return float(
        _smoothed_objective_core(
            X, F, lam, grid.levels_array(), grid.weights_array(),
            scfg.bandwidth, scfg.kernel.survival_coef,
        )
    )
