"""Check-function losses, their kernel-smoothed versions, and the composite objective.

Losses
------
check loss         rho_tau(e) = (tau - 1{e <= 0}) e = max(tau e, (tau-1) e)
smoothed check     vrho_tau(e) = (tau - K(e/h)) e, K the kernel survival function
derivative         vrho'(e)  = tau - K(u) + u k(u),            u = e/h
curvature          vrho''(e) = (2/h) k(u) + (e/h^2) k'(u)      (tau-free)

The smoothed loss equals the check loss exactly for |e| >= h.  The composite
objective is M_NT = (1/NT) sum_k sum_i sum_t w_k rho_{tau_k}(X_it - lambda'f_t).

Each smoothed formula has one array core (``_sloss_vals``, ``_sgrad_vals``,
``_scurv_vals``, taking the ``Kernel`` and h), and ``_sgrad_curv_vals``
gives the derivative and the curvature from one reduction of u.  All of them
evaluate one even polynomial in v = min(u^2, 1) through ``kernels._reduce``
and ``kernels._even_vals``: the loss and the derivative are
tau - 1/2 + u P(v) (P the kernel's ``surv_v`` or ``grad_v``), the curvature
is C(v) / h.  The public scalar-or-array functions, the smoothed objective,
the damped-Newton sweeps and the plug-in density matrices in ``smooth`` all
evaluate through these cores.
"""

from __future__ import annotations

import numpy as np

from .kernels import _even_vals, _reduce, _scalar_out
from .panel import as_panel

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

def _level_term(coef, taus, u, v, outside):
    """tau - 1/2 + u P(v) in place: exactly tau for u >= 1, tau - 1 for u <= -1."""
    out = _even_vals(coef, v, outside, 0.5)
    out *= u
    out -= 0.5
    out += taus
    return out


def _curv_term(kernel, v, outside, h):
    out = _even_vals(kernel.curv_v, v, outside, 0.0)
    out /= h
    return out


def _sloss_vals(kernel, taus, e, h):
    """Smoothed loss (tau - K(u)) e, u = e/h."""
    out = _level_term(kernel.surv_v, taus, *_reduce(e, h))
    out *= e
    return out


def _sgrad_vals(kernel, taus, e, h):
    """Smoothed-loss derivative tau - K(u) + u k(u), u = e/h."""
    return _level_term(kernel.grad_v, taus, *_reduce(e, h))


def _scurv_vals(kernel, e, h):
    """Smoothed-loss curvature (2 k(u) + u k'(u)) / h, u = e/h."""
    _, v, outside = _reduce(e, h)
    return _curv_term(kernel, v, outside, h)


def _sgrad_curv_vals(kernel, taus, e, h):
    """``_sgrad_vals`` and ``_scurv_vals`` from one reduction of u = e/h."""
    u, v, outside = _reduce(e, h)
    return _level_term(kernel.grad_v, taus, u, v, outside), _curv_term(kernel, v, outside, h)


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


def _smoothed_objective_core(X, F, lam, taus, w, h, kernel):
    T, N = X.shape
    total = 0.0
    for k in range(taus.size):
        total += w[k] * np.sum(_sloss_vals(kernel, taus[k], X - F @ lam[k].T, h))
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
    return _scalar_out(np.maximum(tau * e, (tau - 1.0) * e))


def smoothed_check_loss(eps, tau, cfg):
    """vrho_tau(eps) = (tau - K(eps/h)) eps for the configured kernel/bandwidth."""
    _require_level(tau)
    e = np.asarray(eps, dtype=float)
    return _scalar_out(_sloss_vals(cfg.kernel, tau, e, cfg.bandwidth))


def smoothed_check_grad(eps, tau, cfg):
    """d/d eps of the smoothed check loss: tau - K(u) + u k(u), u = eps/h."""
    _require_level(tau)
    e = np.asarray(eps, dtype=float)
    return _scalar_out(_sgrad_vals(cfg.kernel, tau, e, cfg.bandwidth))


def smoothed_check_curv(eps, cfg):
    """Second derivative (2/h) k(u) + (eps/h^2) k'(u); independent of tau."""
    return _scalar_out(_scurv_vals(cfg.kernel, np.asarray(eps, dtype=float), cfg.bandwidth))


def _objective_inputs(panel, F, loadings, grid):
    X = as_panel(panel).values
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
            X, F, lam, grid.levels_array(), grid.weights_array(), scfg.bandwidth, scfg.kernel
        )
    )
