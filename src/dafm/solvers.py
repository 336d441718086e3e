"""Weighted quantile regression solvers and the sweep pair both fits share.

One batched layer solves every exact subproblem: B quantile regressions on
one shared design, by a Mehrotra interior point on the LP dual
(`_qreg_ipm`) and a vertex polish (`_qreg_polish`).  Each row of a result
is the best of (interior point, polish, previous iterate) by the exact
check loss, so the alternating sweeps can never increase the objective.  A
row that misses the gap target is counted and the fit warns; nothing falls
back to another solver.

The sweep pair lays out each batch once for both fits: ``_loading_sweep``
the K·N (level, series) regressions on the factors, ``_factor_sweep`` the T
per-period regressions on the stacked loadings.  Each fit plugs in its own
batched ``solve``; the exact fit's is ``_exact_solve``.

A reference simplex solution via ``scipy.optimize.linprog`` is exposed as
``lp_oracle_quantile``.  It is the tests' independent check of the interior
point, and nothing in the fit calls it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["lp_oracle_quantile"]

_STEP_BACKOFF = 0.9995
#: Duality-gap tolerance (relative to data scale) for the interior point.
INNER_GAP_RTOL = 1e-10
#: Iteration cap for one interior-point solve.
INNER_MAX_ITER = 60


def _ploss(resid, taus):
    """Sums of tilted absolute losses along the last axis, one per problem."""
    # Summed left to right: near-ties between the interior point, the polish
    # and the previous iterate are decided on this value, and pairwise
    # summation (np.sum) would decide some of them differently.
    return np.cumsum(np.maximum(taus * resid, (taus - 1.0) * resid), axis=-1)[..., -1]


def _primal_step(a, s, da):
    """Per problem (last axis), the largest alpha keeping a + alpha*da >= 0
    and s - alpha*da >= 0: one ratio per entry, a/|da| where da < 0 and
    s/|da| elsewhere.  A zero or NaN entry of ``da`` never blocks, and a
    problem with nothing blocking gets inf.  Call under ``np.errstate``."""
    return np.fmin.reduce(np.where(da < 0.0, a, s) / np.abs(da), axis=-1, initial=np.inf)


def _dual_step(z, dz, w, dw):
    """Per problem (last axis), the largest alpha keeping z + alpha*dz >= 0
    and w + alpha*dw >= 0, as minus the largest blocking ratio z/dz (dz < 0)
    or w/dw (dw < 0); inf when nothing blocks.  Call under ``np.errstate``."""
    return -np.maximum(np.where(dz < 0.0, z / dz, -np.inf).max(axis=-1),
                       np.where(dw < 0.0, w / dw, -np.inf).max(axis=-1))


def _gap(a, z, s, w):
    """Per-row duality gap a'z + s'w of the bounded LP."""
    return np.einsum("bj,bj->b", a, z) + np.einsum("bj,bj->b", s, w)


@np.errstate(divide="ignore", invalid="ignore")
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

    Step rule: per row, the primal step is the smallest a/|da| (da < 0) or
    s/|da| (da > 0), the dual step the smallest -z/dz (dz < 0) or -w/dw
    (dw < 0), each capped at 1 and, for the corrector, first shrunk by
    ``_STEP_BACKOFF``.  A zero or NaN direction entry never limits a step;
    the divisions by zero entries are expected, and the ``np.errstate`` on
    the whole solve silences them.
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
        za, ws = z / a, w / s
        q = 1.0 / (za + ws)
        rzw = z - w
        QQ = q @ ZZ
        QQ[:, diag] += 1e-13 * (QQ[:, diag].sum(axis=1, keepdims=True) / r + 1.0)
        Q = QQ.reshape(-1, r, r)
        # affine scaling (predictor) direction
        dy = np.linalg.solve(Q, ((q * rzw) @ Z)[..., None])[..., 0]
        da = q * (dy @ Z.T - rzw)
        dz = -z - za * da
        dw = -w + ws * da
        apda = np.minimum(1.0, _primal_step(a, s, da))[:, None] * da
        ad = np.minimum(1.0, _dual_step(z, dz, w, dw))[:, None]
        gap_aff = _gap(a + apda, z + ad * dz, s - apda, w + ad * dw)
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
        apda = np.minimum(1.0, _STEP_BACKOFF * _primal_step(a, s, da))[:, None] * da
        ad = np.minimum(1.0, _STEP_BACKOFF * _dual_step(z, dz, w, dw))[:, None]
        a = a + apda
        s = s - apda
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
    point stalls.
    """
    beta, _, ok = _qreg_ipm(Z, Y, taus, gap_rtol, max_iter)
    beta, obj = _qreg_polish(Z, Y, taus, beta)
    obj_prev = _ploss(Y - prev @ Z.T, taus)
    # also floors a non-finite row, whose gap is non-finite and so not ok
    floor = ~(obj <= obj_prev)
    if floor.any():
        beta = np.where(floor[:, None], prev, beta)
        obj = np.where(floor, obj_prev, obj)
    return beta, obj, ok


def _exact_solve(Z, Y, taus, wts, prev, name):
    """The exact fit's ``solve``: coefficients and the count of missed gap
    targets (counted, not raised, so ``name`` goes unused).  Row-scaling by
    the weights makes the loss plain: rho_tau(w*e) = w * rho_tau(e), w > 0."""
    beta, _, ok = _qreg_solve(wts[:, None] * Z, wts * Y, taus, prev, INNER_GAP_RTOL, INNER_MAX_ITER)
    return beta, int(np.count_nonzero(~ok))


def _loading_sweep(XT, F, taus, lam, solve):
    """Every (level, series) regression on the factors ``F`` as one unweighted
    batch for ``solve``; row k·N + i is series i (row i of the (N, T) ``XT``)
    at level k.  Returns the (K, N, r) loadings and ``solve``'s second value."""
    K, N, r = lam.shape

    def name(row):
        k, i = divmod(row, N)
        return f"loading subproblem at level k={k + 1}, series i={i + 1}"

    out, extra = solve(F, np.tile(XT, (K, 1)), np.repeat(taus, N)[:, None],
                       np.ones(XT.shape[1]), lam.reshape(K * N, r), name)
    return out.reshape(K, N, r), extra


def _factor_sweep(X, lam, taus, wts, F, solve):
    """Every period's composite regression on the K·N stacked loadings as
    one batch for ``solve``, observation k·N + i weighted by w_k.  Returns
    the (T, r) factors and ``solve``'s second value."""
    K, N, r = lam.shape
    return solve(lam.reshape(K * N, r), np.tile(X, (1, K)), np.repeat(taus, N),
                 np.repeat(wts, N), F, lambda t: f"factor subproblem at period t={t + 1}")


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
    the batched interior point but independent of it: the tests' correctness
    oracle, which nothing falls back to.
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
