"""Weighted quantile regression solvers and the composite factor update.

One batched layer solves every exact subproblem: B quantile regressions on
one shared design, by a Mehrotra interior point on the LP dual
(`_qreg_ipm`) and a vertex polish (`_qreg_polish`).  A loading sweep is one
batch (K·N regressions on the factors), a factor sweep another (T periods on
the stacked loadings), and a single regression is a batch of one.  Each row
of a result is the best of (interior point, polish, previous iterate) by the
exact check loss, so the alternating sweeps can never increase the
objective.

A reference simplex solution via ``scipy.optimize.linprog`` is exposed as
``lp_oracle_quantile``.  It is the independent check of the interior point.
Only ``quantile_regress`` and ``composite_factor_step`` fall back to it
(through ``_solve_or_lp``) when the interior point cannot certify
optimality.  The fit's sweeps never do: a row that misses the gap target is
counted, the fit warns, and the row keeps the best of its interior-point,
polished and previous iterates like any other.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericalError

__all__ = [
    "quantile_regress",
    "lp_oracle_quantile",
    "composite_factor_step",
]

_STEP_BACKOFF = 0.9995


def _ploss(resid, taus):
    """Sums of tilted absolute losses along the last axis, one per problem."""
    # Summed left to right: near-ties between the interior point, the polish
    # and the previous iterate are decided on this value, and pairwise
    # summation (np.sum) would decide some of them differently.
    return np.cumsum(np.maximum(taus * resid, (taus - 1.0) * resid), axis=-1)[..., -1]


def _max_step(x, dx, s, ds):
    """Per problem (last axis), the largest alpha in (0, 1e30] keeping
    x + alpha*dx >= 0 and s + alpha*ds >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        step_x = np.where(dx < 0.0, -x / dx, 1e30).min(axis=-1)
        step_s = np.where(ds < 0.0, -s / ds, 1e30).min(axis=-1)
    return np.minimum(step_x, step_s)


def _gap(a, z, s, w):
    """Per-row duality gap a'z + s'w of the bounded LP."""
    return np.einsum("bj,bj->b", a, z) + np.einsum("bj,bj->b", s, w)


def _qreg_ipm(Z, Y, taus, gap_rtol, max_iter):
    """Mehrotra predictor-corrector on B quantile-regression LP duals that
    share the (n, r) design ``Z``: row b of the (B, n) response ``Y`` is

        min_beta sum_j rho_{tau_bj}(Y_bj - Z[j] @ beta)

    with ``taus`` broadcast to (B, n), solved through the bounded LP
    min c'a  s.t.  Z'a = Z'(1 - tau), 0 <= a <= 1,  c = -y, whose
    multiplier on the equality constraint is -beta.  A row takes no further
    step once its duality gap meets ``gap_rtol·(1 + sum|y|)`` or goes
    non-finite.  Returns ``(beta, gap, ok)`` of shapes (B, r), (B,), (B,);
    ``ok`` is False where the gap target was not reached.
    """
    (B, n), r = Y.shape, Z.shape[1]
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(n, r * r)
    diag = slice(None, None, r + 1)
    s = np.array(np.broadcast_to(taus, (B, n)))
    a = 1.0 - s
    b = np.linalg.lstsq(Z, -Y.T)[0].T
    resid = -Y - b @ Z.T
    z = np.maximum(resid, 0.0) + 1e-4 * (1.0 + np.mean(np.abs(resid), axis=1, keepdims=True))
    w = z - resid
    gap = _gap(a, z, s, w)
    tol = gap_rtol * (1.0 + np.sum(np.abs(Y), axis=1))
    beta, gap_out = -b, gap.copy()
    # rows still iterating, and their state
    live = np.flatnonzero(gap > tol)
    a, s, b, z, w, gap, tol_l = (v[live] for v in (a, s, b, z, w, gap, tol))
    for _ in range(max_iter):
        if live.size == 0:
            break
        q = 1.0 / (z / a + w / s)
        rzw = z - w
        QQ = q @ ZZ
        QQ[:, diag] += 1e-13 * (QQ[:, diag].sum(axis=1, keepdims=True) / r + 1.0)
        Q = QQ.reshape(-1, r, r)
        # affine scaling (predictor) direction
        dy = np.linalg.solve(Q, ((q * rzw) @ Z)[..., None])[..., 0]
        da = q * (dy @ Z.T - rzw)
        dz = -z - (z / a) * da
        dw = -w + (w / s) * da
        ap = np.minimum(1.0, _max_step(a, da, s, -da))[:, None]
        ad = np.minimum(1.0, _max_step(z, dz, w, dw))[:, None]
        gap_aff = _gap(a + ap * da, z + ad * dz, s - ap * da, w + ad * dw)
        mu = gap / (2.0 * n)
        sigma = np.minimum((gap_aff / gap) ** 3, 1.0)
        smu = (sigma * mu)[:, None]
        # combined predictor-corrector direction
        rc1 = smu - a * z - da * dz
        rc2 = smu - s * w + da * dw
        rcomb = rc1 / a - rc2 / s
        dy = -np.linalg.solve(Q, ((q * rcomb) @ Z)[..., None])[..., 0]
        da = q * (dy @ Z.T + rcomb)
        dz = (rc1 - z * da) / a
        dw = (rc2 + w * da) / s
        ap = np.minimum(1.0, _STEP_BACKOFF * _max_step(a, da, s, -da))[:, None]
        ad = np.minimum(1.0, _STEP_BACKOFF * _max_step(z, dz, w, dw))[:, None]
        a = a + ap * da
        s = s - ap * da
        b = b + ad * dy
        z = z + ad * dz
        w = w + ad * dw
        gap = _gap(a, z, s, w)
        beta[live], gap_out[live] = -b, gap
        keep = (gap > tol_l) & np.isfinite(gap)
        if not keep.all():
            live = live[keep]
            a, s, b, z, w, gap, tol_l = (v[keep] for v in (a, s, b, z, w, gap, tol_l))
    return beta, gap_out, gap_out <= tol


def _qreg_polish(Z, Y, taus, beta):
    """Interpolation polish: refit each row on its r smallest absolute residuals.

    An optimal quantile-regression coefficient interpolates r observations,
    so the least-squares fit through the r best-fitted points recovers the
    exact vertex when the interior-point iterate is close to it.  A row's
    candidate is kept only when it lowers that row's objective.  Returns
    ``(beta, objective)``, with ``beta`` itself when no row improved.
    """
    r = Z.shape[1]
    resid = Y - beta @ Z.T
    obj = _ploss(resid, taus)
    idx = np.argsort(np.abs(resid), axis=1)[:, :r]
    # lstsq's cut-off: a singular system gets a fit instead of a batch error
    Zh_pinv = np.linalg.pinv(Z[idx], rtol=r * np.finfo(np.float64).eps)
    cand = (Zh_pinv @ np.take_along_axis(Y, idx, axis=1)[..., None])[..., 0]
    obj_cand = _ploss(Y - cand @ Z.T, taus)
    better = obj_cand < obj  # False for a non-finite candidate
    if not better.any():
        return beta, obj
    return np.where(better[:, None], cand, beta), np.where(better, obj_cand, obj)


def _qreg_solve(Z, Y, taus, prev, gap_rtol, max_iter):
    """Interior point + polish for each row of ``Y``, floored at that row of
    ``prev``: returns ``(beta, objective, gap_ok)`` per row.

    No row's objective is above that of its previous iterate, which makes
    alternating descent monotone by construction even where the interior
    point stalls.  A 1-D ``Y`` and ``prev`` are a batch of one, returned as
    a 1-D ``beta``, a scalar objective and a bool.
    """
    one = Y.ndim == 1
    Y, prev = np.atleast_2d(Y), np.atleast_2d(prev)
    beta, _, ok = _qreg_ipm(Z, Y, taus, gap_rtol, max_iter)
    beta, obj = _qreg_polish(Z, Y, taus, beta)
    obj_prev = _ploss(Y - prev @ Z.T, taus)
    # also floors a non-finite row, whose gap is non-finite and so not ok
    floor = ~(obj <= obj_prev)
    if floor.any():
        beta = np.where(floor[:, None], prev, beta)
        obj = np.where(floor, obj_prev, obj)
    ok = np.broadcast_to(ok, obj.shape)
    if one:
        return beta[0], obj[0], bool(ok[0])
    return beta, obj, ok


def _loading_sweep(XT, F, taus, lam_prev, gap_rtol, max_iter):
    """Every (level, series) quantile regression on the factors ``F`` as one
    batch; row k·N + i is series i (row i of the (N, T) ``XT``) at level k.
    Returns the (K, N, r) loadings and the count of missed gap targets."""
    K, N, r = lam_prev.shape
    lam, _, ok = _qreg_solve(F, np.tile(XT, (K, 1)), np.repeat(taus, N)[:, None],
                             lam_prev.reshape(K * N, r), gap_rtol, max_iter)
    return lam.reshape(K, N, r), int(np.count_nonzero(~ok))


def _stack_design(lam, taus, wts):
    """Stack weighted loadings across levels into one (K*N, r) design."""
    K, N, r = lam.shape
    return (wts[:, None, None] * lam).reshape(K * N, r), np.repeat(taus, N)


def _factor_sweep(X, lam, taus, wts, F_prev, gap_rtol, max_iter):
    """Every period's composite quantile regression on fixed loadings as one
    batch on the stacked design.

    Row-scaling by the level weights turns the weighted composite loss into
    a plain multi-level quantile regression: rho_tau(w*e) = w * rho_tau(e)
    for w > 0.  Returns the (T, r) factors and the count of missed gap
    targets.
    """
    Zs, tau_s = _stack_design(lam, taus, wts)
    Y = (wts[None, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    F, _, ok = _qreg_solve(Zs, Y, tau_s, F_prev, gap_rtol, max_iter)
    return F, int(np.count_nonzero(~ok))


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
    # Imported here: scipy.optimize costs about half a second to import,
    # and only this oracle needs it.
    import scipy.optimize
    import scipy.sparse

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
