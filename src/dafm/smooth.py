"""Kernel-smoothed estimation and plug-in asymptotic inference.

Replacing the check loss with its kernel-smoothed version makes every
subproblem twice differentiable, so the alternating sweeps here use a damped
Newton method instead of linear programming; the outer loop, its stopping
rule and its guards are the exact fit's.  Each sweep is one batched Newton
(``_smooth_newton``): the K·N loading subproblems share the factors as
their design, the T factor subproblems the stacked loadings.  The smoothed
residual curvature doubles as a conditional-density estimate, which feeds
the plug-in covariance matrices behind the confidence intervals.

Both plug-in matrices are one curvature-weighted Gram (``_gram``): Psi_t
on the stacked loadings of period t, Phi_ki on the factors.  Both interval
kinds share one sandwich (``_interval``): the psd flag on the raw matrix,
inversion of the density-floored one, and the normal half-widths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimator import _finish, _outer_loop, _setup, fit_dafm
from .kernels import SmoothConfig
from .losses import _scurv_vals, _sgrad_curv_vals, _sloss_vals, _smoothed_objective_core
from .panel import as_panel

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

    Factor intervals fill ``psi_t`` and ``sigma_kk``; loading intervals
    fill ``phi_ki``.  The covariance itself is ``ConfidenceIntervals.cov``.
    ``psd`` records whether the raw (unclamped) plug-in matrix was numerically
    positive definite; inversion always uses the density-floored version.
    """

    psi_t: np.ndarray | None = None
    phi_ki: np.ndarray | None = None
    sigma_kk: np.ndarray | None = None
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

def _smooth_newton(Z, Y, taus, cvec, beta0, h, kernel, max_newton, tol):
    """Damped Newton with Levenberg regularization and Armijo backtracking
    on B problems that share the (n, r) design ``Z``.

    Row b minimizes sum_j cvec[j] * smoothed_loss_{taus[b, j]}(Y[b, j] - Z[j] @ beta)
    from ``beta0[b]``, with ``taus`` broadcast to the (B, n) ``Y``.  Every
    accepted step strictly decreases its row's objective, so the caller's
    sweep is monotone; a row leaves the working set once it stops or fails.
    Returns ``(beta, obj, failed)`` of shapes (B, r), (B,), (B,), ``failed``
    where no acceptable step was found from a non-stationary point.
    """
    B, r = beta0.shape
    diag = slice(None, None, r + 1)
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(-1, r * r)

    def tau(rows):
        return taus[rows] if np.ndim(taus) == 2 and len(taus) > 1 else taus

    # Residuals and loss sums are formed one row at a time (einsum, row
    # sums), so a row's objective does not depend on its batch: the Armijo
    # test compares values from working sets of different sizes.
    def resid(rows, b):
        return Y[rows] - np.einsum("jr,br->bj", Z, b)

    def loss(rows, e):
        return np.sum(cvec * _sloss_vals(kernel, tau(rows), e, h), axis=1)

    def grad_hess(rows):
        """Gradients (rows, r) and Hessians (rows, r*r) from one kernel pass."""
        grad, curv = _sgrad_curv_vals(kernel, tau(rows), resid(rows, beta[rows]), h)
        return -((cvec * grad) @ Z), (cvec * curv) @ ZZ

    beta = beta0.copy()
    obj = loss(slice(None), resid(slice(None), beta))
    failed = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for _ in range(max_newton):
        g, H = grad_hess(live)
        # a NaN gradient keeps its row, whose line search then fails
        moving = ~(np.max(np.abs(g), axis=1) <= tol * (1.0 + np.abs(obj[live])))
        live, g, H = live[moving], g[moving], H[moving]
        if live.size == 0:
            break
        # Higher-order kernels have negative curvature lobes, so H can be
        # indefinite or exactly zero; shifting past the Gershgorin bound keeps
        # every regularized system positive definite.
        off = np.abs(H)
        off[:, diag] = 0.0
        gersh = np.min(H[:, diag] - off.reshape(-1, r, r).sum(axis=2), axis=1)
        mu = 1e-10 * np.maximum(1.0, np.max(np.abs(H[:, diag]), axis=1)) - np.minimum(0.0, gersh)
        obj_prev = obj[live]
        accepted = np.zeros(live.size, dtype=bool)
        todo = np.arange(live.size)  # working-set rows still without a step
        for _ in range(25):
            Hd = H[todo]
            Hd[:, diag] += mu[todo, None]
            d = np.linalg.solve(Hd.reshape(-1, r, r), -g[todo, :, None])[..., 0]
            gd = np.einsum("br,br->b", g[todo], d)
            ok = np.all(np.isfinite(d), axis=1) & (gd < 0.0)
            idx, d, gd = todo[ok], d[ok], gd[ok]
            step = np.ones(idx.size)
            for _ in range(30):
                if idx.size == 0:
                    break
                rows = live[idx]
                cand = beta[rows] + step[:, None] * d
                obj_new = loss(rows, resid(rows, cand))
                ok = obj_new <= obj[rows] + 1e-4 * step * gd
                beta[rows[ok]], obj[rows[ok]] = cand[ok], obj_new[ok]
                accepted[idx[ok]] = True
                idx, d, gd, step = idx[~ok], d[~ok], gd[~ok], 0.5 * step[~ok]
            todo = todo[~accepted[todo]]
            if todo.size == 0:
                break
            mu[todo] *= 10.0
        failed[live[todo]] = True
        done = obj_prev - obj[live] <= tol * (1.0 + np.abs(obj[live]))
        done[todo] = True
        live = live[~done]
    return beta, obj, failed


def _smooth_loading_sweep(XT, F, taus, lam, h, kernel, max_newton, tol, outer):
    """Every (level, series) subproblem on the factors ``F`` as one batch;
    row k·N + i is series i (row i of the (N, T) ``XT``) at level k."""
    K, N, r = lam.shape
    out, _, failed = _smooth_newton(F, np.tile(XT, (K, 1)), np.repeat(taus, N)[:, None],
                                    np.ones(XT.shape[1]), lam.reshape(K * N, r),
                                    h, kernel, max_newton, tol)
    if failed.any():
        k, i = divmod(int(np.argmax(failed)), N)
        raise NumericalError(
            f"line search failed in the smoothed loading subproblem at "
            f"level k={k + 1}, series i={i + 1} (outer iteration {outer})"
        )
    return out.reshape(K, N, r)


def _smooth_factor_sweep(X, lam, taus, wts, F, h, kernel, max_newton, tol, outer):
    """Every period's subproblem on the K·N stacked loadings as one batch."""
    K, N, r = lam.shape
    out, _, failed = _smooth_newton(lam.reshape(K * N, r), np.tile(X, (1, K)),
                                    np.repeat(taus, N), np.repeat(wts, N), F,
                                    h, kernel, max_newton, tol)
    if failed.any():
        raise NumericalError(
            f"line search failed in the smoothed factor subproblem at "
            f"period t={int(np.argmax(failed)) + 1} (outer iteration {outer})"
        )
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
    newton = (scfg.h, scfg.kernel, 40, min(cfg.tol * 1e-2, 1e-8))

    def sweep(F, lam, outer):
        lam = _smooth_loading_sweep(XT, F, taus, lam, *newton, outer)
        F = _smooth_factor_sweep(X, lam, taus, wts, F, *newton, outer)
        return F, lam, 0

    def objective(F, lam):
        return _smoothed_objective_core(X, F, lam, taus, wts, scfg.h, scfg.kernel)

    return _finish(grid, k_star, *_outer_loop(F0, lam0, cfg, sweep, objective))


# ---------------------------------------------------------------------------
# plug-in covariance pieces
# ---------------------------------------------------------------------------

def _fit_arrays(fit, panel):
    X = as_panel(panel).values
    F = np.asarray(fit.F, dtype=np.float64)
    lam = np.asarray(fit.loadings, dtype=np.float64)
    T, N = X.shape
    if F.shape[0] != T or lam.shape[1] != N:
        raise ValueError(
            f"fit dimensions ({F.shape[0]} periods, {lam.shape[1]} series) do "
            f"not match panel ({T} periods, {N} series)"
        )
    return X, F, lam


def _check_index(name, value, upper):
    if not 1 <= value <= upper:
        raise ValueError(f"{name} index must be in 1..{upper}, got {value}")


def _gram(D, C, n):
    """Symmetrized sum_j C[..., j] D_j D_j' / n for the rows D_j of a (J, r)
    design; any leading axes of C lead the (r, r) result."""
    G = (D.T * C[..., np.newaxis, :]) @ D / n
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def _psi(wts, lam, C):
    """Psi_t for every period of the curvatures C (K, T, N): the Gram of the
    K*N stacked loadings, weighted by w_k times the curvature."""
    K, N, r = lam.shape
    WC = (wts[:, np.newaxis, np.newaxis] * C).transpose(1, 0, 2).reshape(C.shape[1], K * N)
    return _gram(lam.reshape(K * N, r), WC, N)


def _residual_curvature(X, F, lam, scfg):
    """Curvature at every fitted residual X - F lam_k', shape (K, T, N)."""
    return _scurv_vals(scfg.kernel, X - F @ lam.transpose(0, 2, 1), scfg.h)


def _loading_curvature(fit, panel, scfg, k, i):
    """Fit arrays and the curvature at the residuals of 1-based level k, series i."""
    X, F, lam = _fit_arrays(fit, panel)
    _check_index("level", k, lam.shape[0])
    _check_index("series", i, lam.shape[1])
    return X, F, lam, _scurv_vals(scfg.kernel, X[:, i - 1] - F @ lam[k - 1, i - 1], scfg.h)


def plug_in_psi(fit, panel, scfg):
    """Per-period loading-weighted density matrices, shape (T, r, r).

    Entry t is (1/N) sum_k sum_i w_k * c_kit * lam_ki lam_ki' where c_kit is
    the smoothed-loss curvature at the fitted residual — a kernel estimate
    of the conditional density of series i at its fitted level-k quantile.
    Values are the raw signed averages; consumers that invert them apply the
    density floor first.
    """
    X, F, lam = _fit_arrays(fit, panel)
    return _psi(fit.grid.weights_array(), lam, _residual_curvature(X, F, lam, scfg))


def plug_in_phi(fit, panel, scfg, k, i):
    """Density-weighted factor second moment for 1-based level k, series i."""
    _, F, _, c = _loading_curvature(fit, panel, scfg, k, i)
    return _gram(F, c, F.shape[0])


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


def _interval(est, raw, M, middle, n, level, where, **fields):
    """Intervals est ± z sqrt(diag(cov)), cov = M^-1 middle M^-1 / n.

    ``raw`` (the unfloored plug-in matrix) only sets the ``psd`` flag; ``M``
    (its density-floored version) is inverted.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    psd_ok = np.linalg.eigvalsh(raw)[0] >= PSD_TOL
    if np.linalg.eigvalsh(M)[0] <= 0.0:
        raise NumericalError(
            f"plug-in density matrix {where} is not positive definite; "
            "confidence intervals are unavailable"
        )
    M_inv = np.linalg.inv(M)
    cov = M_inv @ middle @ M_inv / n
    cov = 0.5 * (cov + cov.T)
    import scipy.special  # imported here: it takes about 0.2 s to import

    z = scipy.special.ndtri(0.5 * (1.0 + level))  # the standard normal quantile
    half = z * np.sqrt(np.maximum(np.diag(cov), 0.0))
    asym = AsymptoticCov(psd=psd_ok, **fields)
    return ConfidenceIntervals(
        estimate=est.copy(), lower=est - half, upper=est + half,
        level=float(level), cov=cov, asym=asym,
    )


def factor_ci(fit, panel, scfg, t, level=0.95):
    """Confidence intervals for the factor vector at 1-based period ``t``.

    The covariance sandwiches the level-comoment-weighted loading
    cross-moments between inverses of the period's plug-in density matrix.
    Raises :class:`NumericalError` when that matrix is not positive definite
    even after density flooring.
    """
    X, F, lam = _fit_arrays(fit, panel)
    T, N = X.shape
    _check_index("period", t, T)
    _check_aspect(T, N)
    wts = fit.grid.weights_array()
    C = _residual_curvature(X[t - 1:t], F[t - 1:t], lam, scfg)
    psi_raw = _psi(wts, lam, C)[0]
    psi = _psi(wts, lam, np.maximum(C, DENSITY_FLOOR))[0]
    K, _, r = lam.shape
    L = lam.transpose(0, 2, 1).reshape(K * r, N)
    sigma = (L @ L.T / N).reshape(K, r, K, r).transpose(0, 2, 1, 3)
    omega = np.einsum("km,kmab->ab", np.outer(wts, wts) * tau_comoments(fit.grid), sigma)
    return _interval(F[t - 1], psi_raw, psi, omega, N, level, f"at period {t}",
                     psi_t=psi, sigma_kk=sigma)


def loading_ci(fit, panel, scfg, k, i, level=0.95):
    """Confidence intervals for the loading vector of level ``k``, series ``i``.

    Covariance tau_k (1 - tau_k) Phi^{-2} / T with Phi the density-weighted
    factor second moment (its inverse enters squared because the normalized
    factors have identity second moment).
    """
    X, F, lam, c = _loading_curvature(fit, panel, scfg, k, i)
    T, N = X.shape
    _check_aspect(T, N)
    phi_raw = _gram(F, c, T)
    phi = _gram(F, np.maximum(c, DENSITY_FLOOR), T)
    tau = fit.grid.levels[k - 1]
    middle = tau * (1.0 - tau) * np.eye(F.shape[1])
    return _interval(lam[k - 1, i - 1], phi_raw, phi, middle, T, level,
                     f"for level {k}, series {i}", phi_ki=phi)
