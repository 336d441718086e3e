"""Weighted quantile regression solvers and the composite factor update.

The production path is an interior-point solver for the quantile-regression
LP dual (`_qreg_ipm`), written in numpy.  Every call site also keeps the
coefficient vector it started from, and the returned solution is the best of
(interior point, vertex polish, previous iterate) measured by the exact
check-loss objective, so alternating sweeps built on top of it can never
increase the objective.

A reference simplex solution via ``scipy.optimize.linprog`` is exposed as
``lp_oracle_quantile``.  It is the independent check of the interior point
and the fallback when the interior point cannot certify optimality.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.optimize
import scipy.sparse

from .errors import NumericalError

__all__ = [
    "quantile_regress",
    "lp_oracle_quantile",
    "composite_factor_step",
]

_STEP_BACKOFF = 0.9995


def _ploss(resid, taus):
    """Sum of tilted absolute losses with a per-observation level vector."""
    # Summed left to right: near-ties between the interior point, the polish
    # and the previous iterate are decided on this value, and pairwise
    # summation (np.sum) would decide some of them differently.
    return np.cumsum(np.maximum(taus * resid, (taus - 1.0) * resid))[-1]


def _max_step(x, dx, s, ds):
    """Largest alpha in (0, 1e30] keeping x + alpha*dx >= 0 and s + alpha*ds >= 0."""
    step_x = np.divide(-x, dx, out=np.full(x.shape, 1e30), where=dx < 0.0)
    step_s = np.divide(-s, ds, out=np.full(s.shape, 1e30), where=ds < 0.0)
    return min(step_x.min(), step_s.min())


def _qreg_ipm(Z, y, taus, gap_rtol, max_iter):
    """Mehrotra predictor-corrector on the quantile-regression LP dual.

    Solves  min_b sum_j rho_{tau_j}(y_j - Z[j] @ b)  through the bounded LP

        min c'a   s.t.  Z'a = Z'(1 - tau),  0 <= a <= 1,   c = -y,

    whose multiplier on the equality constraint is -beta.  Returns
    ``(beta, gap, ok)`` where ``ok`` is False when the duality gap target was
    not reached or a direction went non-finite.
    """
    n, r = Z.shape
    c = -y
    a = 1.0 - taus
    s = taus.copy()
    b = np.linalg.lstsq(Z, c)[0]
    resid = c - Z @ b
    delta = 1e-4 * (1.0 + np.mean(np.abs(resid)))
    z = np.maximum(resid, 0.0) + delta
    w = z - resid
    gap = a @ z + s @ w
    tol = gap_rtol * (1.0 + np.sum(np.abs(y)))
    ok = True
    it = 0
    while gap > tol and it < max_iter:
        it += 1
        q = 1.0 / (z / a + w / s)
        rzw = z - w
        Q = Z.T @ (q.reshape(n, 1) * Z)
        ridge = 1e-13 * (np.trace(Q) / r + 1.0)
        Q.flat[:: r + 1] += ridge
        # affine scaling (predictor) direction
        dy = np.linalg.solve(Q, Z.T @ (q * rzw))
        da = q * (Z @ dy - rzw)
        dz = -z - (z / a) * da
        dw = -w + (w / s) * da
        ap = min(1.0, _max_step(a, da, s, -da))
        ad = min(1.0, _max_step(z, dz, w, dw))
        gap_aff = (a + ap * da) @ (z + ad * dz) + (s - ap * da) @ (w + ad * dw)
        mu = gap / (2.0 * n)
        sigma = (gap_aff / gap) ** 3
        if sigma > 1.0:
            sigma = 1.0
        smu = sigma * mu
        # combined predictor-corrector direction
        rc1 = smu - a * z - da * dz
        rc2 = smu - s * w + da * dw
        rcomb = rc1 / a - rc2 / s
        dy = np.linalg.solve(Q, -(Z.T @ (q * rcomb)))
        da = q * (Z @ dy + rcomb)
        dz = (rc1 - z * da) / a
        dw = (rc2 + w * da) / s
        ap = min(1.0, _STEP_BACKOFF * _max_step(a, da, s, -da))
        ad = min(1.0, _STEP_BACKOFF * _max_step(z, dz, w, dw))
        a = a + ap * da
        s = s - ap * da
        b = b + ad * dy
        z = z + ad * dz
        w = w + ad * dw
        gap = a @ z + s @ w
        if not np.isfinite(gap):
            ok = False
            break
    if gap > tol:
        ok = False
    return -b, gap, ok


def _qreg_polish(Z, y, taus, beta):
    """Interpolation polish: refit on the r smallest absolute residuals.

    An optimal quantile-regression coefficient interpolates r observations,
    so the least-squares fit through the r best-fitted points recovers the
    exact vertex when the interior-point iterate is close to it.  The
    candidate is kept only when it lowers the objective.
    """
    r = Z.shape[1]
    resid = y - Z @ beta
    obj = _ploss(resid, taus)
    if obj <= 0.0:
        return beta, obj
    idx = np.argsort(np.abs(resid))[:r]
    cand = np.linalg.lstsq(Z[idx], y[idx])[0]
    if not np.all(np.isfinite(cand)):
        return beta, obj
    obj_cand = _ploss(y - Z @ cand, taus)
    if obj_cand < obj:
        return cand, obj_cand
    return beta, obj


def _qreg_solve(Z, y, taus, prev, gap_rtol, max_iter):
    """Interior point + polish, floored at the previous iterate.

    Returns ``(beta, objective, gap_ok)``.  The objective of ``beta`` is
    never above the objective of ``prev``, making alternating descent
    monotone by construction even if the interior point stalls.
    """
    beta, _, ok = _qreg_ipm(Z, y, taus, gap_rtol, max_iter)
    if np.all(np.isfinite(beta)):
        beta, obj = _qreg_polish(Z, y, taus, beta)
    else:
        beta = prev.copy()
        obj = _ploss(y - Z @ prev, taus)
        ok = False
    obj_prev = _ploss(y - Z @ prev, taus)
    if obj_prev < obj:
        return prev.copy(), obj_prev, ok
    return beta, obj, ok


def _loading_sweep(XT, F, taus, lam_prev, gap_rtol, max_iter):
    """Per-(level, series) quantile regressions of each series on fixed factors.

    ``XT`` is the (N, T) transposed panel so each series is a contiguous row.
    Returns the (K, N, r) loading array and the count of subproblems whose
    duality-gap target was missed.
    """
    K = taus.shape[0]
    N, T = XT.shape
    r = F.shape[1]
    lam = np.empty((K, N, r))
    misses = 0
    for k in range(K):
        tau_vec = np.full(T, taus[k])
        for i in range(N):
            beta, _, ok = _qreg_solve(F, XT[i], tau_vec, lam_prev[k, i], gap_rtol, max_iter)
            lam[k, i] = beta
            if not ok:
                misses += 1
    return lam, misses


def _stack_design(lam, taus, wts):
    """Stack weighted loadings across levels into one (K*N, r) design."""
    K, N, r = lam.shape
    return (wts[:, None, None] * lam).reshape(K * N, r), np.repeat(taus, N)


def _factor_sweep(X, lam, taus, wts, F_prev, gap_rtol, max_iter):
    """Per-period composite quantile regressions on fixed loadings.

    Row-scaling by the level weights turns the weighted composite loss into
    a plain multi-level quantile regression: rho_tau(w*e) = w * rho_tau(e)
    for w > 0.  Returns the (T, r) factor array and the count of periods
    whose duality-gap target was missed.
    """
    T = X.shape[0]
    Zs, tau_s = _stack_design(lam, taus, wts)
    F = np.empty((T, lam.shape[2]))
    misses = 0
    for t in range(T):
        ys = np.outer(wts, X[t]).ravel()
        f, _, ok = _qreg_solve(Zs, ys, tau_s, F_prev[t], gap_rtol, max_iter)
        F[t] = f
        if not ok:
            misses += 1
    return F, misses


def _as_design(y, Z):
    y = np.asarray(y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"response must be 1-D, got shape {y.shape}")
    if Z.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {Z.shape}")
    if Z.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {Z.shape[0]} rows but response has {y.shape[0]} entries"
        )
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(Z)):
        raise ValueError("response and design must be finite")
    return np.ascontiguousarray(y), np.ascontiguousarray(Z)


def _tau_vector(tau, n):
    taus = np.asarray(tau, dtype=np.float64)
    if taus.ndim == 0:
        taus = np.full(n, float(taus))
    elif taus.shape != (n,):
        raise ValueError(f"expected a scalar level or {n} levels, got shape {taus.shape}")
    if np.any(taus <= 0.0) or np.any(taus >= 1.0):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    return taus


def lp_oracle_quantile(y, Z, tau, weights=None):
    """Exact quantile regression through the linear-programming formulation.

    Splits residuals into positive/negative parts and solves

        min sum_j w_j * (tau_j * u_j + (1 - tau_j) * v_j)
        s.t. Z beta + u - v = y,  u, v >= 0

    with HiGHS.  ``tau`` may be a scalar or a per-observation vector and
    ``weights`` an optional positive per-observation vector.  Slower than
    :func:`quantile_regress` but independent of it; used as the correctness
    oracle and as the fallback when the interior point fails to certify.
    """
    y, Z = _as_design(y, Z)
    n, r = Z.shape
    taus = _tau_vector(tau, n)
    if weights is None:
        wts = np.ones(n)
    else:
        wts = np.asarray(weights, dtype=np.float64)
        if wts.shape != (n,):
            raise ValueError(f"expected {n} weights, got shape {wts.shape}")
        if np.any(wts <= 0.0) or not np.all(np.isfinite(wts)):
            raise ValueError("weights must be positive and finite")
    cost = np.concatenate([np.zeros(r), wts * taus, wts * (1.0 - taus)])
    eye = scipy.sparse.identity(n, format="csc")
    A_eq = scipy.sparse.hstack([scipy.sparse.csc_matrix(Z), eye, -eye], format="csc")
    bounds = [(None, None)] * r + [(0.0, None)] * (2 * n)
    res = scipy.optimize.linprog(cost, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise NumericalError(f"LP oracle failed: {res.message}")
    return res.x[:r]


def _solve_or_lp(Z, y, taus, what, gap_rtol, max_iter):
    """Interior point from zero; when it does not certify optimality, warn,
    run the LP oracle and keep whichever has the lower check loss."""
    beta, _, ok = _qreg_solve(Z, y, taus, np.zeros(Z.shape[1]), gap_rtol, max_iter)
    if not ok:
        warnings.warn(
            f"interior-point {what} did not certify optimality; "
            "falling back to the LP solver",
            RuntimeWarning,
            stacklevel=3,
        )
        beta_lp = lp_oracle_quantile(y, Z, taus)
        if _ploss(y - Z @ beta_lp, taus) < _ploss(y - Z @ beta, taus):
            beta = beta_lp
    return beta


def quantile_regress(y, Z, tau, gap_rtol=1e-10, max_iter=60):
    """Quantile regression of ``y`` on design ``Z`` at level ``tau``.

    Runs the interior-point solver with a vertex polish; if the duality gap
    cannot be certified the exact LP fallback is used instead.  Requires at
    least as many observations as columns and a full-rank design.
    """
    y, Z = _as_design(y, Z)
    n, r = Z.shape
    if n < r:
        raise ValueError(f"need at least {r} observations for {r} coefficients, got {n}")
    if np.linalg.matrix_rank(Z) < r:
        raise ValueError("design matrix is rank deficient")
    taus = _tau_vector(tau, n)
    return _solve_or_lp(Z, y, taus, "quantile regression", gap_rtol, max_iter)


def composite_factor_step(x_t, loadings, grid, gap_rtol=1e-10, max_iter=60):
    """Composite quantile regression for one period's factor vector.

    Minimizes sum_k sum_i w_k * rho_{tau_k}(x_t[i] - loadings[k, i] @ f) over
    f by stacking the K level blocks into one design with rows scaled by
    w_k (valid because the check loss is positively homogeneous).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    lam = np.asarray(loadings, dtype=np.float64)
    if lam.ndim == 2:
        lam = lam[np.newaxis]
    if lam.ndim != 3:
        raise ValueError(f"loadings must be (K, N, r), got shape {loadings.shape}")
    K, N, r = lam.shape
    if x_t.shape != (N,):
        raise ValueError(f"expected cross-section of length {N}, got shape {x_t.shape}")
    if len(grid) != K:
        raise ValueError(f"grid has {len(grid)} levels but loadings have {K}")
    taus = grid.levels_array()
    wts = grid.weights_array()
    Zs, tau_s = _stack_design(lam, taus, wts)
    if np.linalg.matrix_rank(Zs) < r:
        raise ValueError("stacked loading matrix is rank deficient")
    ys = np.repeat(wts, N) * np.tile(x_t, K)
    return _solve_or_lp(Zs, ys, tau_s, "factor step", gap_rtol, max_iter)
