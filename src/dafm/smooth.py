"""Kernel-smoothed estimation and plug-in asymptotic inference.

Replacing the check loss with its kernel-smoothed version makes every
subproblem twice differentiable, so the smoothed fit plugs a batched damped
Newton solve (``_smooth_newton``, the level weights as its ``cvec``) into the
exact fit's outer loop and sweep pair, bound here as ``_smooth_loading_sweep``
/ ``_smooth_factor_sweep``.  That solve shifts a Hessian past its smallest
eigenvalue only when it is not positive definite, and backtracks by quadratic
interpolation.  The smoothed residual curvature doubles as a
conditional-density estimate (``_residual_curvature``, one (K, T, N) array),
which feeds the plug-in covariance matrices behind the confidence intervals.

Both plug-in matrices are one curvature-weighted Gram (``_gram``): Psi_t
on the stacked loadings of period t, Phi_ki on the factors.  Both interval
kinds share one batched sandwich (``_sandwich``): the psd flags on the raw
matrices, then inversion of the density-floored ones.  ``factor_ci`` builds
every period's interval in one pass, ``loading_ci`` every (level, series)
interval, both from one residual curvature, and later calls with the same
fit, ``Panel`` and smoothing config reuse that pass (``_memo``); each call
applies its own level and returns its own arrays.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .estimator import _finish, _is_int, _outer_loop, _setup, fit_dafm
from .kernels import SmoothConfig
from .losses import _scurv_vals, _sgrad_curv_vals, _sloss_vals, _smoothed_objective_core
from .panel import as_panel
from .solvers import _factor_sweep as _smooth_factor_sweep
from .solvers import _loading_sweep as _smooth_loading_sweep

__all__ = [
    "ConfidenceIntervals",
    "fit_smoothed_dafm",
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
class ConfidenceIntervals:
    """Componentwise symmetric intervals ``estimate ± z * sqrt(diag(cov))``.

    ``psd`` records whether the raw (unfloored) plug-in density matrix was
    numerically positive definite; ``cov`` always inverts its
    density-floored version.
    """

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    cov: np.ndarray
    psd: bool


# ---------------------------------------------------------------------------
# damped Newton on the smoothed loss
# ---------------------------------------------------------------------------

def _smooth_newton(Z, Y, taus, cvec, beta0, h, kernel, max_newton, tol):
    """Damped Newton on B problems that share the (n, r) design ``Z``.

    Row b minimizes sum_j cvec[j] * smoothed_loss_{taus[b, j]}(Y[b, j] - Z[j] @ beta)
    from ``beta0[b]``, with ``taus`` broadcast to the (B, n) ``Y``.  Each
    iteration solves (H + mu I) d = -g with the modified-Hessian shift
    mu = 1e-10 max(1, max_j |H_jj|) - min(0, 1.01 lambda_min(H)), so a
    positive-definite H gives the Newton direction, and backtracks from the
    unit step by quadratic interpolation to the Armijo condition (Nocedal &
    Wright 2006, sections 3.4 and 3.5); a direction with no acceptable step
    is retried with mu raised tenfold.  A row stops once its gradient is
    below ``tol * (1 + |obj|)`` or an accepted step lowers its objective by
    no more than that.  Every accepted step strictly decreases its row's
    objective, so the caller's sweep is monotone; a row leaves the working
    set once it stops or fails.  Returns ``(beta, obj, failed)`` of shapes
    (B, r), (B,), (B,), ``failed`` where no acceptable step was found from
    a non-stationary point.
    """
    B, r = beta0.shape
    diag = slice(None, None, r + 1)
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(-1, r * r)
    ZT = np.ascontiguousarray(Z.T)

    def tau(rows):
        return taus[rows] if np.ndim(taus) == 2 and len(taus) > 1 else taus

    # Residuals and loss sums are formed one row at a time, so a row's
    # objective does not depend on its batch: the Armijo test compares
    # values from working sets of different sizes.  The einsum over the
    # transposed design sums b_0 Z_0 + b_1 Z_1 + ... in that order for every
    # entry.  ``b @ Z.T`` is not used: BLAS rounds it differently for
    # different batch sizes.
    def resid(rows, b):
        return Y[rows] - np.einsum("rj,br->bj", ZT, b)

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
        # indefinite or exactly zero; shifting past its smallest eigenvalue
        # keeps every regularized system positive definite.
        lmin = np.linalg.eigvalsh(H.reshape(-1, r, r))[:, 0]
        mu = 1e-10 * np.maximum(1.0, np.max(np.abs(H[:, diag]), axis=1)) - np.minimum(0.0, 1.01 * lmin)
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
                idx, d, gd, step, rows = idx[~ok], d[~ok], gd[~ok], step[~ok], rows[~ok]
                # minimizer of the quadratic through f(0), f'(0) = gd and f(step),
                # clipped to [0.1, 0.5] * step; halved where it is not finite
                quad = -gd * step * step / (2.0 * (obj_new[~ok] - obj[rows] - gd * step))
                clipped = np.maximum(np.minimum(quad, 0.5 * step), 0.1 * step)
                step = np.where(np.isfinite(quad), clipped, 0.5 * step)
            todo = todo[~accepted[todo]]
            if todo.size == 0:
                break
            mu[todo] *= 10.0
        failed[live[todo]] = True
        done = obj_prev - obj[live] <= tol * (1.0 + np.abs(obj[live]))
        done[todo] = True
        live = live[~done]
    return beta, obj, failed


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

    def sweep(F, lam, outer):
        def solve(Z, Y, levels, cvec, prev, name):
            beta, _, failed = _smooth_newton(Z, Y, levels, cvec, prev, scfg.h, scfg.kernel,
                                             40, min(cfg.tol * 1e-2, 1e-8))
            if failed.any():
                raise NumericalError(f"line search failed in the smoothed "
                                     f"{name(int(np.argmax(failed)))} (outer iteration {outer})")
            return beta, 0

        lam, _ = _smooth_loading_sweep(XT, F, taus, lam, solve)
        F, _ = _smooth_factor_sweep(X, lam, taus, wts, F, solve)
        return F, lam, 0

    def objective(F, lam):
        return _smoothed_objective_core(X, F, lam, taus, wts, scfg.h, scfg.kernel)

    return _finish(grid, k_star, *_outer_loop(F0, lam0, cfg, sweep, objective))


# ---------------------------------------------------------------------------
# plug-in covariance pieces
# ---------------------------------------------------------------------------

def _fit_arrays(fit, panel):
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


def _check_index(name, value, upper):
    """A 1-based index is an int or a numpy integer (not a bool) in 1..upper."""
    if not _is_int(value):
        raise ValueError(f"{name} index must be an integer, got {value!r}")
    if not 1 <= value <= upper:
        raise ValueError(f"{name} index must be in 1..{upper}, got {value}")


def _gram(C, D, axes, n):
    """Symmetrized sum_j C_j D_j D_j' / n over the axes ``axes`` of the
    curvatures C and the leading axes of the design rows D; the remaining
    axes of C lead the (r, r) results.  One matrix product against the
    per-row outer products D_j D_j'."""
    G = np.tensordot(C, D[..., :, np.newaxis] * D[..., np.newaxis, :], axes=axes) / n
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def _psi(wts, lam, C):
    """Psi_t for every period of the curvatures C (K, T, N), shape (T, r, r):
    the Gram of the K*N stacked loadings, weighted by w_k times the curvature."""
    return _gram(wts[:, np.newaxis, np.newaxis] * C, lam, ([0, 2], [0, 1]), lam.shape[1])


def _phi(F, C):
    """Phi_ki for every (level, series) of the curvatures C (K, T, N), shape
    (K, N, r, r): the curvature-weighted Gram of the factors."""
    return _gram(C, F, ([1], [0]), F.shape[0])


def _residual_curvature(X, F, lam, scfg):
    """Curvature at every fitted residual X - F lam_k', shape (K, T, N): the
    kernel estimate of each conditional density at its fitted quantile."""
    return _scurv_vals(scfg.kernel, X - F @ lam.transpose(0, 2, 1), scfg.h)


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


def _check_level(level):
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class _CIBatch:
    """Level-free interval pieces for a stack of indices (periods, or
    (level, series) pairs): estimates, covariances (NaN where ``pd`` is
    false), the psd flags of the raw plug-in matrices, the pd flags of the
    density-floored ones and the standard errors sqrt(max(diag(cov), 0))."""

    est: np.ndarray
    cov: np.ndarray
    psd: np.ndarray
    pd: np.ndarray
    se: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        diag = np.diagonal(self.cov, axis1=-2, axis2=-1)
        object.__setattr__(self, "se", np.sqrt(np.maximum(diag, 0.0)))


def _sandwich(raw, M, middle, n):
    """psd flags, pd flags and covariances M^-1 middle M^-1 / n of a stack.

    ``raw`` (the unfloored plug-in matrices) only sets the psd flags; ``M``
    (their density-floored versions) is inverted where it is positive
    definite, and the covariance is NaN elsewhere.  ``middle`` broadcasts to
    the shape of ``M``.
    """
    psd = np.linalg.eigvalsh(raw)[..., 0] >= PSD_TOL
    pd = np.linalg.eigvalsh(M)[..., 0] > 0.0
    M_inv = np.linalg.inv(M[pd])
    cov = np.full(M.shape, np.nan)
    c = M_inv @ np.broadcast_to(middle, M.shape)[pd] @ M_inv / n
    cov[pd] = 0.5 * (c + np.swapaxes(c, -1, -2))
    return psd, pd, cov


def _factor_batch(F, lam, grid, C):
    """Factor-interval batch for the periods (rows) of F and the curvatures C."""
    K, N, r = lam.shape
    wts = grid.weights_array()
    psi = _psi(wts, lam, np.maximum(C, DENSITY_FLOOR))
    L = lam.transpose(0, 2, 1).reshape(K * r, N)
    sigma = np.ascontiguousarray((L @ L.T / N).reshape(K, r, K, r).transpose(0, 2, 1, 3))
    omega = np.einsum("km,kmab->ab", np.outer(wts, wts) * tau_comoments(grid), sigma)
    psd, pd, cov = _sandwich(_psi(wts, lam, C), psi, omega, N)
    return _CIBatch(F, cov, psd, pd)


def _loading_batch(F, lam, taus, C):
    """Loading-interval batch for the levels and series of lam (and taus),
    whose curvatures are C."""
    phi = _phi(F, np.maximum(C, DENSITY_FLOOR))
    middle = (taus * (1.0 - taus))[:, np.newaxis, np.newaxis, np.newaxis] * np.eye(F.shape[1])
    psd, pd, cov = _sandwich(_phi(F, C), phi, middle, F.shape[0])
    return _CIBatch(lam, cov, psd, pd)


#: The last value of each kind (the residual curvature, and each interval
#: kind's batch): (fit ref, Panel ref, SmoothConfig, value).  Weak
#: references keep neither the fit nor the panel alive, and a dead one never
#: matches; both hold read-only arrays, so identity is enough.
_MEMO = {}


def _memo(kind, fit, panel, scfg, build):
    slot = _MEMO.get(kind)
    if (slot is not None and slot[0]() is fit and slot[1]() is panel
            and (slot[2] is scfg or slot[2] == scfg)):
        return slot[3]
    value = build()
    _MEMO[kind] = (weakref.ref(fit), weakref.ref(panel), scfg, value)
    return value


def _panel_curvature(fit, panel, scfg, X, F, lam):
    """The (K, T, N) residual curvature of a ``Panel``, shared by both batches."""
    return _memo("curvature", fit, panel, scfg, lambda: _residual_curvature(X, F, lam, scfg))


@functools.lru_cache(maxsize=16)
def _normal_quantile(level):
    """z with P(|N(0, 1)| <= z) = level."""
    import scipy.special  # imported here: it takes about 0.2 s to import

    return scipy.special.ndtri(0.5 * (1.0 + level))


def _ci_at(batch, idx, level, where):
    """The caller's own copy of interval ``idx`` of a batch at ``level``."""
    if not batch.pd[idx]:
        raise NumericalError(
            f"plug-in density matrix {where} is not positive definite; "
            "confidence intervals are unavailable"
        )
    level = float(level)
    est = batch.est[idx]
    half = _normal_quantile(level) * batch.se[idx]
    return ConfidenceIntervals(est.copy(), est - half, est + half, level,
                               batch.cov[idx].copy(), bool(batch.psd[idx]))


def factor_ci(fit, panel, scfg, t, level=0.95):
    """Confidence intervals for the factor vector at 1-based period ``t``.

    The covariance sandwiches the level-comoment-weighted loading
    cross-moments between inverses of the period's plug-in density matrix.
    Raises :class:`NumericalError` when that matrix is not positive definite
    even after density flooring.

    The first call builds every period's interval in one batched pass and
    later calls with the same fit, :class:`Panel` and smoothing config reuse
    it; each call returns its own arrays.
    """
    panel = as_panel(panel)
    X, F, lam = _fit_arrays(fit, panel)
    T, N = X.shape
    _check_index("period", t, T)
    _check_level(level)
    _check_aspect(T, N)
    batch = _memo("factor", fit, panel, scfg, lambda: _factor_batch(
        F, lam, fit.grid, _panel_curvature(fit, panel, scfg, X, F, lam)))
    return _ci_at(batch, t - 1, level, f"at period {t}")


def loading_ci(fit, panel, scfg, k, i, level=0.95):
    """Confidence intervals for the loading vector of level ``k``, series ``i``.

    Covariance tau_k (1 - tau_k) Phi^{-2} / T with Phi the density-weighted
    factor second moment (its inverse enters squared because the normalized
    factors have identity second moment).

    The first call builds every (level, series) interval in one batched pass
    and later calls with the same fit, :class:`Panel` and smoothing config
    reuse it; each call returns its own arrays.
    """
    panel = as_panel(panel)
    X, F, lam = _fit_arrays(fit, panel)
    T, N = X.shape
    _check_index("level", k, lam.shape[0])
    _check_index("series", i, N)
    _check_level(level)
    _check_aspect(T, N)
    batch = _memo("loading", fit, panel, scfg, lambda: _loading_batch(
        F, lam, fit.grid.levels_array(), _panel_curvature(fit, panel, scfg, X, F, lam)))
    return _ci_at(batch, (k - 1, i - 1), level, f"for level {k}, series {i}")
