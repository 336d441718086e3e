"""Check-function losses, their kernel-smoothed versions, and the composite objective.

Losses
------
check loss         rho_tau(e) = (tau - 1{e <= 0}) e = max(tau e, (tau-1) e)
smoothed check     vrho_tau(e) = (tau - K(e/h)) e, K the kernel survival function
derivative         vrho'(e)  = tau - K(u) + u k(u),            u = e/h
curvature          vrho''(e) = (2/h) k(u) + (e/h^2) k'(u)      (tau-free)

The smoothed loss equals the check loss exactly for |e| >= h.  The composite
objective is M_NT = (1/NT) sum_k sum_i sum_t w_k rho_{tau_k}(X_it - lambda'f_t).
It and its smoothed version S_NT share one per-level loop, ``_level_sum``.

The smoothed formulas are private array cores taking the ``Kernel`` and h:
``_sloss_vals`` gives the loss, ``_scurv_vals`` the curvature, and
``_sgrad_curv_vals`` the derivative and the curvature from one reduction of
u.  All of them evaluate one even polynomial in v = min(u^2, 1) through
``kernels._reduce`` and ``kernels._even_vals``: the loss and the derivative
are tau - 1/2 + u P(v) (P the kernel's ``surv_v`` or ``grad_v``), the
curvature is C(v) / h.  The smoothed objective (``_smoothed_objective_core``),
the damped Newton solve and the residual curvature behind the plug-in density
matrices in ``smooth`` all evaluate through these cores.
"""

from __future__ import annotations

import numpy as np

from .kernels import _even_vals, _reduce, _scalar_out
from .panel import as_panel

__all__ = ["check_loss", "composite_objective"]


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


def _scurv_vals(kernel, e, h):
    """Smoothed-loss curvature (2 k(u) + u k'(u)) / h, u = e/h."""
    _, v, outside = _reduce(e, h)
    return _curv_term(kernel, v, outside, h)


def _sgrad_curv_vals(kernel, taus, e, h):
    """Smoothed-loss derivative tau - K(u) + u k(u) and the curvature
    ``_scurv_vals``, from one reduction of u = e/h."""
    u, v, outside = _reduce(e, h)
    return _level_term(kernel.grad_v, taus, u, v, outside), _curv_term(kernel, v, outside, h)


def _check_vals(taus, e):
    """Check loss max(tau e, (tau - 1) e)."""
    return np.maximum(taus * e, (taus - 1.0) * e)


def _level_sum(X, F, lam, taus, w, loss):
    """(1/NT) sum_k w_k sum_{t,i} loss(tau_k, X_ti - f_t'lambda_ki)."""
    T, N = X.shape
    total = 0.0
    for k in range(taus.size):
        total += w[k] * np.sum(loss(taus[k], X - F @ lam[k].T))
    return total / (N * T)


def _composite_objective_core(X, F, lam, taus, w):
    return _level_sum(X, F, lam, taus, w, _check_vals)


def _smoothed_objective_core(X, F, lam, taus, w, h, kernel):
    return _level_sum(X, F, lam, taus, w, lambda tau, e: _sloss_vals(kernel, tau, e, h))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def check_loss(eps, tau):
    """rho_tau(eps); vectorized, scalar in gives scalar out."""
    if not (0.0 < tau < 1.0):
        raise ValueError("quantile level must lie in (0, 1), got %r" % (tau,))
    return _scalar_out(_check_vals(tau, np.asarray(eps, dtype=float)))


def composite_objective(panel, F, loadings, grid):
    """Weighted average check loss M_NT of a candidate fit."""
    X = np.ascontiguousarray(as_panel(panel).values)
    F = np.ascontiguousarray(np.asarray(F, dtype=float))
    lam = np.ascontiguousarray(np.asarray(loadings, dtype=float))
    T, N = X.shape
    K = len(grid)
    if F.shape[0] != T:
        raise ValueError("F has %d rows but panel has T=%d" % (F.shape[0], T))
    if lam.shape != (K, N, F.shape[1]):
        raise ValueError(
            "loadings shape %r does not match (K=%d, N=%d, r=%d)" % (lam.shape, K, N, F.shape[1])
        )
    return float(_composite_objective_core(X, F, lam, grid.levels_array(), grid.weights_array()))
