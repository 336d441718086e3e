"""Weighted quantile regression solvers and the sweep pair both fits share.

One batched layer solves every exact subproblem: B quantile regressions on
one shared design, by a Mehrotra interior point on the LP dual
(`_qreg_ipm`) and a vertex polish (`_qreg_polish`).  The polish is an
exact, batched LU solve through each row's r best-fitted points; a
singular system gives no candidate.  Each row of a result is the best of
(interior point, polish, previous iterate) by the exact check loss, so the
alternating sweeps can never increase the objective.  A row that misses
the gap target is counted and the fit warns; nothing falls back to another
solver.

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
    """Per problem (last axis), the corrector's primal step: ``_STEP_BACKOFF``
    times the largest alpha keeping a + alpha*da >= 0 and s - alpha*da >= 0,
    capped at 1, as beta/max(beta, max(-da/a, da/s)).  A zero or NaN entry of
    ``da`` never blocks, and a problem with nothing blocking gets 1.  Call
    under ``np.errstate``."""
    m = np.fmax(-np.fmin.reduce(da / a, axis=-1), np.fmax.reduce(da / s, axis=-1))
    return _STEP_BACKOFF / np.fmax(_STEP_BACKOFF, m)


def _dual_step(z, dz, w, dw):
    """Per problem (last axis), the corrector's dual step for z + alpha*dz >= 0
    and w + alpha*dw >= 0, in the same form: beta/max(beta, max(-dz/z,
    -dw/w)).  Call under ``np.errstate``."""
    m = -np.fmin(np.fmin.reduce(dz / z, axis=-1), np.fmin.reduce(dw / w, axis=-1))
    return _STEP_BACKOFF / np.fmax(_STEP_BACKOFF, m)


def _affine_step(a, s, zs, rzw, da, gap):
    """The predictor's step lengths and duality gap from the primal direction
    alone, in the closed form `_qreg_ipm` states: ``(alpha_p, alpha_d,
    gap_aff)`` per problem (last axis), with ``zs`` = z/a + w/s and ``rzw`` =
    z - w.  NaN ratios never block.  ``gap_aff`` is clamped at 0: the
    expansion can round slightly below it, the sum of non-negative products
    it stands for cannot.  Call under ``np.errstate``."""
    ra, rs = da / a, da / s
    ap = 1.0 / np.fmax(1.0, np.fmax(-np.fmin.reduce(ra, axis=-1), np.fmax.reduce(rs, axis=-1)))
    ad = 1.0 / np.fmax(1.0, 1.0 + np.fmax(np.fmax.reduce(ra, axis=-1), -np.fmin.reduce(rs, axis=-1)))
    gap_aff = ((1.0 - ad) * gap + (ap * (1.0 - ad) - ad) * np.einsum("bj,bj->b", rzw, da)
               - ap * ad * np.einsum("bj,bj->b", zs * da, da))
    return ap, ad, np.maximum(gap_aff, 0.0)


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

    Predictor in closed form: the affine dual direction is
    dz = -z - (z/a)·da, dw = -w + (w/s)·da, so dz/z = -(1 + da/a) and
    dw/w = -(1 - da/s).  With the ratios da/a and da/s, the affine steps are
    alpha_p = 1/max(1, max_j(-da/a, da/s)) and alpha_d = 1/max(1, 1 +
    max_j(da/a, -da/s)), and the affine gap is, from two row sums,

        (1 - alpha_d)·gap + (alpha_p·(1 - alpha_d) - alpha_d)·sum_j (z - w)·da
            - alpha_p·alpha_d·sum_j (z/a + w/s)·da²

    clamped at 0 (`_affine_step`).  The predictor never forms dz or dw.  The
    corrector's steps are beta/max(beta, max_j(-da/a, da/s)) and
    beta/max(beta, max_j(-dz/z, -dw/w)), beta = ``_STEP_BACKOFF``: at most 1,
    and exactly 1 for a row where nothing blocks.  Zero or NaN direction
    entries never block; their divisions are expected, and the
    ``np.errstate`` on the whole solve silences them.
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
        zs = za + ws
        q = 1.0 / zs
        rzw = z - w
        QQ = q @ ZZ
        QQ[:, diag] += 1e-13 * (QQ[:, diag].sum(axis=1, keepdims=True) / r + 1.0)
        Q = QQ.reshape(-1, r, r)
        # affine scaling (predictor) direction: only da is formed
        dy = np.linalg.solve(Q, ((q * rzw) @ Z)[..., None])[..., 0]
        da = q * (dy @ Z.T - rzw)
        gap_aff = _affine_step(a, s, zs, rzw, da, gap)[2]
        mu = gap / (2.0 * n)
        sigma = np.minimum((gap_aff / gap) ** 3, 1.0)
        smu = (sigma * mu)[:, None]
        # combined predictor-corrector direction; da·(z + (z/a)·da) is -da
        # times the affine dz, and da·(w - (w/s)·da) is -da times the affine dw
        rc1 = smu - a * z + da * (z + za * da)
        rc2 = smu - s * w - da * (w - ws * da)
        rcomb = rc1 / a - rc2 / s
        dy = -np.linalg.solve(Q, ((q * rcomb) @ Z)[..., None])[..., 0]
        da = q * (dy @ Z.T + rcomb)
        dz = (rc1 - z * da) / a
        dw = (rc2 + w * da) / s
        apda = _primal_step(a, s, da)[:, None] * da
        ad = _dual_step(z, dz, w, dw)[:, None]
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
    """Interpolation polish: solve each row exactly through its r smallest
    absolute residuals.

    An optimal quantile-regression coefficient interpolates r observations
    (Koenker 2005, Thm 2.1), so the exact LU solve through the r best-fitted
    points recovers that vertex when the interior-point iterate is close to
    it.  An exactly singular system (a zero LU pivot) gives no candidate.  A
    row's candidate is kept only when it lowers that row's objective.
    Returns ``(beta, objective)``, with ``beta`` itself when no row improved.
    """
    r = Z.shape[1]
    resid = Y - beta @ Z.T
    obj = _ploss(resid, taus)
    idx = np.argsort(np.abs(resid), axis=1)[:, :r]
    Zh = Z[idx]
    # slogdet's sign is 0 exactly where the LU factorization meets a zero
    # pivot, and solve would raise; unlike det, it cannot underflow to 0
    singular = np.linalg.slogdet(Zh)[0] == 0
    if singular.any():
        Zh[singular] = np.eye(r)
    cand = np.linalg.solve(Zh, np.take_along_axis(Y, idx, axis=1)[..., None])[..., 0]
    obj_cand = _ploss(Y - cand @ Z.T, taus)
    better = (obj_cand < obj) & ~singular  # False for a non-finite candidate
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
