"""Kernel-smoothed estimation and plug-in asymptotic inference.

Replacing the check loss with its kernel-smoothed version makes every
subproblem twice differentiable, so the alternating sweeps here use a damped
Newton method instead of linear programming; the outer loop, its stopping
rule and its guards are the exact fit's.  The smoothed residual
curvature doubles as a conditional-density estimate, which feeds the
plug-in covariance matrices behind the confidence intervals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.stats

from .errors import NumericalError
from .estimator import _finish, _outer_loop, _setup, fit_dafm
from .kernels import SmoothConfig
from .losses import _scurv_vals, _sgrad_vals, _smoothed_objective_core, _survival_vals
from .panel import Panel

__all__ = [
    "AsymptoticCov",
    "ConfidenceIntervals",
    "fit_smoothed_dafm",
    "plug_in_psi",
    "plug_in_phi",
    "factor_ci",
    "loading_ci",
    "tau_comoments",
]

#: Nonpositive density estimates are lifted to this floor before any matrix
#: built from them is inverted.
DENSITY_FLOOR = 1e-8
#: A plug-in matrix whose smallest eigenvalue falls below this is flagged
#: as not positive definite.
PSD_TOL = 1e-10


@dataclass(frozen=True)
class AsymptoticCov:
    """Plug-in covariance pieces behind one confidence-interval call.

    Factor intervals fill ``psi_t``, ``sigma_kk`` and ``factor_cov_t``;
    loading intervals fill ``phi_ki`` and ``loading_cov_ki``.  ``psd``
    records whether the raw (unclamped) plug-in matrix was numerically
    positive definite; inversion always uses the density-floored version.
    """

    psi_t: np.ndarray | None = None
    phi_ki: np.ndarray | None = None
    sigma_kk: np.ndarray | None = None
    factor_cov_t: np.ndarray | None = None
    loading_cov_ki: np.ndarray | None = None
    psd: bool = True


@dataclass(frozen=True)
class ConfidenceIntervals:
    """Componentwise symmetric intervals ``estimate ± z * sqrt(diag(cov))``."""

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    cov: np.ndarray
    asym: AsymptoticCov


# ---------------------------------------------------------------------------
# damped-Newton sweeps on the smoothed loss
# ---------------------------------------------------------------------------

def _sloss_sum(surv_coef, taus, cvec, e, h):
    u = e / h
    return np.sum(cvec * (taus - _survival_vals(surv_coef, u)) * e)


def _smooth_newton(Z, y, taus, cvec, beta0, h, pdf_coef, deriv_coef, surv_coef,
                   max_newton, tol):
    """Damped Newton with Levenberg regularization and Armijo backtracking.

    Minimizes sum_j cvec[j] * smoothed_loss_{taus[j]}(y[j] - Z[j] @ beta)
    starting from ``beta0``.  Every accepted step strictly decreases the
    objective, so the caller's sweep is monotone.  Returns
    ``(beta, objective, status)`` with status 0 on success and 1 when no
    acceptable step could be found from a non-stationary point.
    """
    n, r = Z.shape
    beta = beta0.copy()
    e = y - Z @ beta
    obj = _sloss_sum(surv_coef, taus, cvec, e, h)
    status = 0
    for _ in range(max_newton):
        gvals = cvec * _sgrad_vals(surv_coef, pdf_coef, taus, e, h)
        g = -(Z.T @ gvals)
        if np.max(np.abs(g)) <= tol * (1.0 + abs(obj)):
            break
        hvals = cvec * _scurv_vals(pdf_coef, deriv_coef, e, h)
        H = Z.T @ (hvals.reshape(n, 1) * Z)
        hscale = 1.0
        gersh = np.inf
        for j in range(r):
            if abs(H[j, j]) > hscale:
                hscale = abs(H[j, j])
            row = H[j, j]
            for l in range(r):
                if l != j:
                    row -= abs(H[j, l])
            if row < gersh:
                gersh = row
        # Higher-order kernels have negative curvature lobes, so H can be
        # indefinite or exactly zero; shifting past the Gershgorin bound keeps
        # every regularized system positive definite.
        mu = 1e-10 * hscale
        if gersh < 0.0:
            mu -= gersh
        obj_prev = obj
        accepted = False
        for _ in range(25):
            Hd = H.copy()
            Hd.flat[:: r + 1] += mu
            d = np.linalg.solve(Hd, -g)
            gd = g @ d
            if np.all(np.isfinite(d)) and gd < 0.0:
                step = 1.0
                for _ in range(30):
                    e_new = y - Z @ (beta + step * d)
                    obj_new = _sloss_sum(surv_coef, taus, cvec, e_new, h)
                    if obj_new <= obj + 1e-4 * step * gd:
                        beta = beta + step * d
                        e = e_new
                        obj = obj_new
                        accepted = True
                        break
                    step *= 0.5
            if accepted:
                break
            mu *= 10.0
        if not accepted:
            status = 1
            break
        if obj_prev - obj <= tol * (1.0 + abs(obj)):
            break
    return beta, obj, status


def _smooth_loading_sweep(XT, F, taus, lam, h, pdf_coef, deriv_coef, surv_coef,
                          max_newton, tol, outer):
    K = taus.shape[0]
    N, T = XT.shape
    out = np.empty_like(lam)
    ones = np.ones(T)
    for k in range(K):
        tau_vec = np.full(T, taus[k])
        for i in range(N):
            beta, _, status = _smooth_newton(
                F, XT[i], tau_vec, ones, lam[k, i], h,
                pdf_coef, deriv_coef, surv_coef, max_newton, tol,
            )
            if status != 0:
                raise NumericalError(
                    f"line search failed in the smoothed loading subproblem at "
                    f"level k={k + 1}, series i={i + 1} (outer iteration {outer})"
                )
            out[k, i] = beta
    return out


def _smooth_factor_sweep(X, lam, taus, wts, F, h, pdf_coef, deriv_coef, surv_coef,
                         max_newton, tol, outer):
    T = X.shape[0]
    K, N, r = lam.shape
    Zs = lam.reshape(K * N, r)
    tau_s = np.repeat(taus, N)
    cvec = np.repeat(wts, N)
    out = np.empty_like(F)
    for t in range(T):
        ys = np.tile(X[t], K)
        f, _, status = _smooth_newton(
            Zs, ys, tau_s, cvec, F[t], h,
            pdf_coef, deriv_coef, surv_coef, max_newton, tol,
        )
        if status != 0:
            raise NumericalError(
                f"line search failed in the smoothed factor subproblem at "
                f"period t={t + 1} (outer iteration {outer})"
            )
        out[t] = f
    return out


def fit_smoothed_dafm(panel, grid, cfg, scfg, init_fit=None):
    """Fit the factor model under the kernel-smoothed objective.

    Starting from ``init_fit`` (or, when omitted, a fresh fit under the
    unsmoothed objective with the same ``cfg``), alternates damped-Newton
    loading and factor sweeps on the smooth loss, then normalizes.  The
    outer loop is the exact fit's (``estimator._outer_loop``): the same
    stopping rule on the relative change of the smoothed objective, the
    same ``cfg.max_outer`` cap and the same guards.  A Newton line search
    that finds no acceptable step raises :class:`NumericalError` naming the
    subproblem and the outer iteration.

    The smoothed objective trace is non-increasing because every Newton
    step is accepted only on sufficient decrease.
    """
    X, k_star = _setup(panel, cfg, grid)
    if not isinstance(scfg, SmoothConfig):
        raise TypeError(f"expected SmoothConfig, got {type(scfg).__name__}")
    if init_fit is None:
        init_fit = fit_dafm(X, grid, cfg)
    F0 = np.ascontiguousarray(np.asarray(init_fit.F, dtype=np.float64))
    lam0 = np.ascontiguousarray(np.asarray(init_fit.loadings, dtype=np.float64))
    if F0.shape != (X.shape[0], cfg.r) or lam0.shape != (len(grid), X.shape[1], cfg.r):
        raise ValueError("init_fit dimensions do not match panel/grid/cfg")
    taus = grid.levels_array()
    wts = grid.weights_array()
    XT = np.ascontiguousarray(X.T)
    kern = scfg.kernel
    h = scfg.h
    newton_tol = min(cfg.tol * 1e-2, 1e-8)
    coefs = (h, kern.coef, kern.deriv_coef, kern.survival_coef, 40, newton_tol)

    def sweep(F, lam, outer):
        lam = _smooth_loading_sweep(XT, F, taus, lam, *coefs, outer)
        F = _smooth_factor_sweep(X, lam, taus, wts, F, *coefs, outer)
        return F, lam, 0

    def objective(F, lam):
        return _smoothed_objective_core(X, F, lam, taus, wts, h, kern.survival_coef)

    return _finish(grid, k_star, *_outer_loop(F0, lam0, cfg, sweep, objective))


# ---------------------------------------------------------------------------
# plug-in covariance pieces
# ---------------------------------------------------------------------------

def _fit_arrays(fit, panel):
    if not isinstance(panel, Panel):
        panel = Panel(np.asarray(panel, dtype=np.float64))
    X = panel.values
    F = np.asarray(fit.F, dtype=np.float64)
    lam = np.asarray(fit.loadings, dtype=np.float64)
    T, N = X.shape
    if F.shape[0] != T or lam.shape[1] != N:
        raise ValueError(
            f"fit dimensions ({F.shape[0]} periods, {lam.shape[1]} series) do "
            f"not match panel ({T} periods, {N} series)"
        )
    return X, F, lam


def _curvature(E, scfg, floor):
    """Density estimates (2/h)k(u) + (e/h^2)k'(u) with optional flooring."""
    vals = _scurv_vals(scfg.kernel.coef, scfg.kernel.deriv_coef, E, scfg.h)
    if floor is not None:
        vals = np.maximum(vals, floor)
    return vals


def _psi_all(fit, X, F, lam, scfg, floor):
    T = X.shape[0]
    N = X.shape[1]
    r = F.shape[1]
    wts = fit.grid.weights_array()
    psi = np.zeros((T, r, r))
    for k in range(lam.shape[0]):
        E = X - F @ lam[k].T
        C = _curvature(E, scfg, floor)
        psi += wts[k] * np.einsum("ti,ia,ib->tab", C, lam[k], lam[k])
    psi /= N
    return 0.5 * (psi + psi.transpose(0, 2, 1))


def _psi_single(fit, X, F, lam, scfg, t, floor):
    N = X.shape[1]
    r = F.shape[1]
    wts = fit.grid.weights_array()
    psi = np.zeros((r, r))
    for k in range(lam.shape[0]):
        e = X[t - 1] - lam[k] @ F[t - 1]
        c = _curvature(e, scfg, floor)
        psi += wts[k] * (lam[k] * c[:, np.newaxis]).T @ lam[k]
    psi /= N
    return 0.5 * (psi + psi.T)


def _phi_one(fit, X, F, lam, scfg, k, i, floor):
    T = X.shape[0]
    e = X[:, i - 1] - F @ lam[k - 1, i - 1]
    c = _curvature(e, scfg, floor)
    phi = (F * c[:, np.newaxis]).T @ F / T
    return 0.5 * (phi + phi.T)


def plug_in_psi(fit, panel, scfg):
    """Per-period loading-weighted density matrices, shape (T, r, r).

    Entry t is (1/N) sum_k sum_i w_k * c_kit * lam_ki lam_ki' where c_kit is
    the smoothed-loss curvature at the fitted residual — a kernel estimate
    of the conditional density of series i at its fitted level-k quantile.
    Values are the raw signed averages; consumers that invert them apply the
    density floor first.
    """
    X, F, lam = _fit_arrays(fit, panel)
    return _psi_all(fit, X, F, lam, scfg, None)


def plug_in_phi(fit, panel, scfg, k, i):
    """Density-weighted factor second moment for 1-based level k, series i."""
    X, F, lam = _fit_arrays(fit, panel)
    K, N = lam.shape[0], lam.shape[1]
    if not 1 <= k <= K:
        raise ValueError(f"level index must be in 1..{K}, got {k}")
    if not 1 <= i <= N:
        raise ValueError(f"series index must be in 1..{N}, got {i}")
    return _phi_one(fit, X, F, lam, scfg, k, i, None)


def tau_comoments(grid):
    """Matrix with entries min(tau_k, tau_k')(1 - max(tau_k, tau_k'))."""
    lv = grid.levels_array()
    lo = np.minimum.outer(lv, lv)
    hi = np.maximum.outer(lv, lv)
    return lo * (1.0 - hi)


def _check_aspect(T, N):
    if max(N, T) / min(N, T) > 3:
        warnings.warn(
            f"panel aspect ratio {max(N, T)}/{min(N, T)} exceeds 3; the "
            "large-sample approximation behind these intervals assumes "
            "comparable N and T",
            RuntimeWarning,
            stacklevel=3,
        )


def _min_eig(M):
    return float(np.linalg.eigvalsh(M)[0])


def factor_ci(fit, panel, scfg, t, level=0.95):
    """Confidence intervals for the factor vector at 1-based period ``t``.

    The covariance sandwiches the level-comoment-weighted loading
    cross-moments between inverses of the period's plug-in density matrix.
    Raises :class:`NumericalError` when that matrix is not positive definite
    even after density flooring.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    X, F, lam = _fit_arrays(fit, panel)
    T, N = X.shape
    if not 1 <= t <= T:
        raise ValueError(f"period index must be in 1..{T}, got {t}")
    _check_aspect(T, N)
    wts = fit.grid.weights_array()
    psi_raw = _psi_single(fit, X, F, lam, scfg, t, None)
    psi = _psi_single(fit, X, F, lam, scfg, t, DENSITY_FLOOR)
    psd_ok = _min_eig(psi_raw) >= PSD_TOL
    if _min_eig(psi) <= 0.0:
        raise NumericalError(
            f"plug-in density matrix at period {t} is not positive definite; "
            "confidence intervals are unavailable"
        )
    sigma = np.einsum("kia,mib->kmab", lam, lam) / N
    coef = np.outer(wts, wts) * tau_comoments(fit.grid)
    omega = np.einsum("km,kmab->ab", coef, sigma)
    psi_inv = np.linalg.inv(psi)
    cov = psi_inv @ omega @ psi_inv / N
    cov = 0.5 * (cov + cov.T)
    z = scipy.stats.norm.ppf(0.5 * (1.0 + level))
    half = z * np.sqrt(np.maximum(np.diag(cov), 0.0))
    est = F[t - 1]
    asym = AsymptoticCov(psi_t=psi, sigma_kk=sigma, factor_cov_t=cov, psd=psd_ok)
    return ConfidenceIntervals(
        estimate=est.copy(), lower=est - half, upper=est + half,
        level=float(level), cov=cov, asym=asym,
    )


def loading_ci(fit, panel, scfg, k, i, level=0.95):
    """Confidence intervals for the loading vector of level ``k``, series ``i``.

    Covariance tau_k (1 - tau_k) Phi^{-2} / T with Phi the density-weighted
    factor second moment (its inverse enters squared because the normalized
    factors have identity second moment).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    X, F, lam = _fit_arrays(fit, panel)
    T, N = X.shape
    K = lam.shape[0]
    if not 1 <= k <= K:
        raise ValueError(f"level index must be in 1..{K}, got {k}")
    if not 1 <= i <= N:
        raise ValueError(f"series index must be in 1..{N}, got {i}")
    _check_aspect(T, N)
    phi_raw = _phi_one(fit, X, F, lam, scfg, k, i, None)
    phi = _phi_one(fit, X, F, lam, scfg, k, i, DENSITY_FLOOR)
    psd_ok = _min_eig(phi_raw) >= PSD_TOL
    if _min_eig(phi) <= 0.0:
        raise NumericalError(
            f"plug-in density matrix for level {k}, series {i} is not "
            "positive definite; confidence intervals are unavailable"
        )
    tau = fit.grid.levels[k - 1]
    phi_inv = np.linalg.inv(phi)
    cov = tau * (1.0 - tau) * (phi_inv @ phi_inv) / T
    cov = 0.5 * (cov + cov.T)
    z = scipy.stats.norm.ppf(0.5 * (1.0 + level))
    half = z * np.sqrt(np.maximum(np.diag(cov), 0.0))
    est = lam[k - 1, i - 1]
    asym = AsymptoticCov(phi_ki=phi, loading_cov_ki=cov, psd=psd_ok)
    return ConfidenceIntervals(
        estimate=est.copy(), lower=est - half, upper=est + half,
        level=float(level), cov=cov, asym=asym,
    )
