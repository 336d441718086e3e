"""Quantile-regression solvers against the exact linear-programming oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dafm.solvers import (
    _STEP_BACKOFF,
    _affine_step,
    _exact_solve,
    _factor_sweep,
    _gap,
    _loading_sweep,
    _dual_step,
    _ploss,
    _primal_step,
    _qreg_ipm,
    _qreg_polish,
    _qreg_solve,
    lp_oracle_quantile,
)


def _instance(rng, n, r, heavy=False):
    Z = rng.standard_normal((n, r))
    Z[:, 0] = 1.0
    beta = rng.standard_normal(r)
    noise = rng.standard_t(df=2, size=n) if heavy else rng.standard_normal(n)
    return Z, Z @ beta + noise


def _solve_one(y, Z, tau):
    """One regression as a batch of one, started from zero."""
    taus = np.broadcast_to(np.asarray(tau, dtype=float), y.shape)
    beta, _, _ = _qreg_solve(Z, y[None], taus, np.zeros((1, Z.shape[1])), 1e-10, 60)
    return beta[0]


def test_ipm_matches_lp_oracle_on_random_designs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(15):
        n = int(rng.integers(8, 80))
        r = int(rng.integers(1, 5))
        Z, y = _instance(rng, n, r, heavy=bool(trial % 2))
        tau = float(rng.uniform(0.08, 0.92))
        beta = _solve_one(y, Z, tau)
        b_lp = lp_oracle_quantile(y, Z, tau)
        taus = np.full(n, tau)
        gap = _ploss(y - Z @ beta, taus) - _ploss(y - Z @ b_lp, taus)
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_per_observation_levels():
    rng = np.random.default_rng(3)
    Z, y = _instance(rng, 60, 3)
    taus = rng.uniform(0.1, 0.9, size=60)
    beta = _solve_one(y, Z, taus)
    b_lp = lp_oracle_quantile(y, Z, taus)
    assert _ploss(y - Z @ beta, taus) <= _ploss(y - Z @ b_lp, taus) + 1e-9


@st.composite
def _degenerate_design(draw):
    """Small integer-valued design with repeated rows and tied responses."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r, 6))
    base = np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=m, max_size=m)), float)
    base[:, 0] = 1.0
    reps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    Z = np.repeat(base, reps, axis=0)
    y = np.array(draw(st.lists(st.integers(-2, 2), min_size=len(Z), max_size=len(Z))), float)
    tau = draw(st.sampled_from([0.01, 0.5, 0.99]))
    return Z, y, tau


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_degenerate_design())
def test_ipm_matches_lp_oracle_on_degenerate_designs(case):
    Z, y, tau = case
    assume(np.linalg.matrix_rank(Z) == Z.shape[1])
    beta = _solve_one(y, Z, tau)
    b_lp = lp_oracle_quantile(y, Z, tau)
    taus = np.full(y.size, tau)
    slack = 1e-9 * (1.0 + np.abs(y).sum())
    assert _ploss(y - Z @ beta, taus) <= _ploss(y - Z @ b_lp, taus) + slack


def test_ploss_matches_scalar_loop():
    # _ploss must sum left to right: the fit's tie-breaks depend on it
    rng = np.random.default_rng(5)
    for n in (1, 7, 300):
        resid = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        taus = rng.uniform(0.01, 0.99, size=n)
        total = 0.0
        for e, tau in zip(resid, taus):
            total += max(tau * e, (tau - 1.0) * e)
        assert _ploss(resid, taus) == total


def _scalar_step(x, dx, s, ds):
    """The corrector's step rule entry by entry: beta over the largest of
    beta and every -d/v, so a zero or NaN entry (a false comparison) never
    blocks.  Call under ``np.errstate``."""
    m = _STEP_BACKOFF
    for v, d in zip(np.r_[x, s], np.r_[dx, ds]):
        if -d / v > m:
            m = -d / v
    return _STEP_BACKOFF / m


def test_step_lengths_match_scalar_loop():
    rng = np.random.default_rng(5)
    for n in (1, 7, 300):
        x, s, z, w = rng.uniform(0.1, 2.0, size=(4, 8, n))
        x[1, 0] = s[1, -1] = 0.0  # a bound already met
        d, dz, dw = rng.standard_normal((3, 8, n))
        for v in (d, dz, dw):
            v[2, ::2] = 0.0  # zero entries
            v[3, 1::3] = np.nan  # NaN entries
            v[4] = 0.0  # nothing blocks the primal step
            v[5, ::2] = np.nan
            v[5, 1::2] = 0.0  # nothing blocks, NaNs among zeros
            v[6] = np.abs(v[6])  # nothing blocks the dual step
            v[7] = np.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            primal = _primal_step(x, s, d)
            dual = _dual_step(z, dz, w, dw)
            for b in range(8):
                for got, want in ((primal[b], _scalar_step(x[b], d[b], s[b], -d[b])),
                                  (dual[b], _scalar_step(z[b], dz[b], w[b], dw[b]))):
                    assert got == want, (n, b, got, want)
        assert np.all(primal[[4, 5, 7]] == 1.0) and np.all(dual[[5, 6, 7]] == 1.0)


def test_affine_step_matches_explicit_dual_direction():
    # the closed form against the predictor written out through the affine
    # dz and dw, on random interior points
    rng = np.random.default_rng(8)
    for n in (1, 7, 300):
        a, s, z, w = rng.uniform(0.05, 2.0, size=(4, 6, n))
        da = 3.0 * rng.standard_normal((6, n))
        da[1] = 0.5 * np.minimum(a[1], s[1]) * rng.uniform(-1.0, 1.0, n)  # only the dual blocks
        da[2] = 0.0  # nothing blocks: both steps are 1
        da[3, ::3] = np.nan  # NaN entries never block, but the gap is NaN
        da[4] = -np.abs(da[4])  # every entry moves a down and s up
        da[5] = np.abs(da[5])  # and the other way round
        za, ws, gap = z / a, w / s, _gap(a, z, s, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            ap, ad, gap_aff = _affine_step(a, s, za + ws, z - w, da, gap)
        dz, dw = -z - za * da, -w + ws * da
        for b in range(6):
            ok = ~np.isnan(da[b])
            d, nz, nw = da[b][ok], dz[b][ok], dw[b][ok]
            want_p = min([1.0, *(a[b][ok][d < 0] / -d[d < 0]), *(s[b][ok][d > 0] / d[d > 0])])
            want_d = min([1.0, *(z[b][ok][nz < 0] / -nz[nz < 0]), *(w[b][ok][nw < 0] / -nw[nw < 0])])
            assert ap[b] == pytest.approx(want_p, rel=1e-12, abs=0), (n, b)
            assert ad[b] == pytest.approx(want_d, rel=1e-12, abs=0), (n, b)
            if b == 3:
                assert np.isnan(gap_aff[b])
                continue
            want_gap = np.sum((a[b] + want_p * da[b]) * (z[b] + want_d * dz[b])
                              + (s[b] - want_p * da[b]) * (w[b] + want_d * dw[b]))
            # relative to the affine gap, and to the current gap where the
            # affine gap is 0 up to rounding (one entry that blocks both steps)
            assert gap_aff[b] == pytest.approx(want_gap, rel=1e-12, abs=1e-12 * gap[b]), (n, b)
        assert ap[1] == 1.0 and ad[1] < 1.0
        assert ap[2] == ad[2] == 1.0 and gap_aff[2] == 0.0


def test_interior_point_leaks_no_warning_and_keeps_error_state():
    # an integer design: row 0 is an exact fit at scale 1e8, so it starts at
    # its gap target; row 1 is all zeros, so every primal direction entry is
    # zero and each primal ratio divides by it; row 2 iterates normally
    Z = np.column_stack([np.ones(12), np.repeat([0.0, 1.0], 6), np.tile([0.0, 0.0, 1.0], 4)])
    Y = np.vstack([Z @ np.array([2e8, -1e8, 3e8]), np.zeros(12), np.arange(12.0) % 5])
    taus = np.array([[0.5], [0.25], [0.75]])
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start, _, ok0 = _qreg_ipm(Z, Y, taus, 1e-10, 0)
        beta, _, ok = _qreg_ipm(Z, Y, taus, 1e-10, 60)
    assert np.geterr() == before
    assert ok0.tolist() == [True, False, False] and ok.all()
    np.testing.assert_array_equal(beta[0], start[0])
    np.testing.assert_array_equal(beta[1], 0.0)


def test_median_regression_on_odd_sample_interpolates():
    # scalar median of an odd sample is an order statistic
    y = np.array([3.0, -1.0, 7.0, 2.0, 5.0])
    beta = _solve_one(y, np.ones((5, 1)), 0.5)
    assert beta[0] == pytest.approx(3.0, abs=1e-9)


def test_weighted_oracle_tilts_solution():
    y = np.array([0.0, 0.0, 10.0])
    Z = np.ones((3, 1))
    # huge weight on the large observation drags the weighted median up
    w = np.array([1.0, 1.0, 5.0])
    b = lp_oracle_quantile(y, Z, 0.5, weights=w)
    assert b[0] == pytest.approx(10.0, abs=1e-9)


def test_lp_oracle_validation():
    with pytest.raises(ValueError, match="1-D"):
        lp_oracle_quantile(np.ones((2, 1)), np.ones((2, 1)), 0.5)
    with pytest.raises(ValueError, match="2-D"):
        lp_oracle_quantile(np.ones(2), np.ones(2), 0.5)
    with pytest.raises(ValueError, match="3 rows but response has 2"):
        lp_oracle_quantile(np.ones(2), np.ones((3, 1)), 0.5)
    with pytest.raises(ValueError, match="finite"):
        lp_oracle_quantile(np.array([1.0, np.nan]), np.ones((2, 1)), 0.5)
    with pytest.raises(ValueError, match="inside"):
        lp_oracle_quantile(np.ones(4), np.ones((4, 1)), 1.2)
    with pytest.raises(ValueError, match="4 levels"):
        lp_oracle_quantile(np.ones(4), np.ones((4, 1)), np.full(3, 0.5))
    with pytest.raises(ValueError, match="4 weights"):
        lp_oracle_quantile(np.ones(4), np.ones((4, 1)), 0.5, weights=np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        lp_oracle_quantile(np.ones(4), np.ones((4, 1)), 0.5, weights=np.zeros(4))


def test_qreg_solve_never_worse_than_previous_iterate():
    # the sweep floor: handing in any candidate must not give a worse objective
    rng = np.random.default_rng(12)
    Z, y = _instance(rng, 40, 3)
    Y, taus = y[None], np.full(40, 0.3)
    b_opt, obj_opt, _ = _qreg_solve(Z, Y, taus, np.zeros((1, 3)), 1e-10, 60)
    for _ in range(5):
        prev = rng.standard_normal((1, 3)) * 10
        _, obj, _ = _qreg_solve(Z, Y, taus, prev, 1e-10, 60)
        assert obj[0] <= _ploss(y - Z @ prev[0], taus) + 1e-12
        assert obj[0] <= obj_opt[0] + 1e-9  # and the solver still finds the optimum
    # a previous iterate that is already optimal is kept
    _, obj_again, _ = _qreg_solve(Z, Y, taus, b_opt, 1e-10, 60)
    assert obj_again[0] <= obj_opt[0] + 1e-12


def _composite_instance(seed, K=3, N=15, r=2):
    rng = np.random.default_rng(seed)
    taus, wts = np.array([0.25, 0.5, 0.75]), np.array([1.0, 2.0, 1.0])
    lam = rng.standard_normal((K, N, r))
    x = rng.standard_normal(N)
    # the stacked weighted problem the sweep must solve
    tau_s = np.repeat(taus, N)
    Zs = (lam * wts[:, None, None]).reshape(K * N, r)
    ys = np.repeat(wts, N) * np.tile(x, K)
    return taus, wts, lam, x, Zs, ys, tau_s


def test_factor_sweep_matches_stacked_oracle():
    for seed in (0, 1, 2):
        taus, wts, lam, x, Zs, ys, tau_s = _composite_instance(seed)
        F, misses = _factor_sweep(x[None], lam, taus, wts, np.zeros((1, 2)), _exact_solve)
        f_lp = lp_oracle_quantile(ys, Zs, tau_s)
        assert misses == 0
        assert _ploss(ys - Zs @ F[0], tau_s) <= _ploss(ys - Zs @ f_lp, tau_s) + 1e-9


# -- the batched layer ---------------------------------------------------------

@st.composite
def _degenerate_batch(draw):
    """One degenerate integer design, several responses, a level per row."""
    Z, y, _ = draw(_degenerate_design())
    rows = [y] + [np.array(draw(st.lists(st.integers(-2, 2), min_size=len(Z), max_size=len(Z))), float)
                  for _ in range(draw(st.integers(1, 4)))]
    taus = draw(st.lists(st.sampled_from([0.01, 0.5, 0.99]), min_size=len(rows), max_size=len(rows)))
    return Z, np.array(rows), np.array(taus)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_degenerate_batch())
def test_batched_rows_match_lp_oracle_on_degenerate_designs(case):
    Z, Y, tau_rows = case
    assume(np.linalg.matrix_rank(Z) == Z.shape[1])
    beta, _, _ = _qreg_solve(Z, Y, tau_rows[:, None], np.zeros((len(Y), Z.shape[1])), 1e-10, 60)
    for y, tau, b in zip(Y, tau_rows, beta):
        taus = np.full(y.size, tau)
        slack = 1e-9 * (1.0 + np.abs(y).sum())
        assert _ploss(y - Z @ b, taus) <= _ploss(y - Z @ lp_oracle_quantile(y, Z, tau), taus) + slack


def test_rows_at_their_gap_target_take_no_step():
    # row 0 is an exact fit at scale 1e8, so the least-squares start already
    # meets its gap target; the noisy rows must still iterate
    rng = np.random.default_rng(4)
    Z, _ = _instance(rng, 20, 3)
    Y = np.vstack([Z @ np.array([1e8, -2e8, 3e8]), rng.standard_normal((3, 20))])
    taus = np.array([[0.5], [0.1], [0.5], [0.9]])
    start, _, ok0 = _qreg_ipm(Z, Y, taus, 1e-10, 0)
    beta, _, ok = _qreg_ipm(Z, Y, taus, 1e-10, 60)
    assert ok0.tolist() == [True, False, False, False] and ok.all()
    np.testing.assert_array_equal(beta[0], start[0])
    assert not np.any(np.all(beta[1:] == start[1:], axis=1))
    # each noisy row reaches the optimum it reaches alone
    for k in range(1, 4):
        alone = _solve_one(Y[k], Z, taus[k, 0])
        solo = _ploss(Y[k] - Z @ alone, taus[k])
        assert _ploss(Y[k] - Z @ beta[k], taus[k]) <= solo + 1e-8 * (1.0 + np.abs(Y[k]).sum())


def test_polish_survives_a_singular_interpolation_system():
    # rows 0 and 1 of Z coincide and so do the responses there, so the two
    # smallest residuals of row 0's start pick a singular 2x2 system
    Z = np.column_stack([np.ones(8), [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    y0 = np.array([1.0, 1.0, 3.0, 2.5, 6.0, 4.0, 9.0, 5.0])
    Y = np.vstack([y0, y0[::-1]])
    taus = np.full(8, 0.5)
    beta0 = np.array([[1.0, 0.3], [0.0, 1.0]])
    assert sorted(np.argsort(np.abs(y0 - Z @ beta0[0]))[:2]) == [0, 1]
    polished, obj = _qreg_polish(Z, Y, taus, beta0)
    # a singular system gives no candidate: row 0 keeps its input bit for bit
    np.testing.assert_array_equal(polished[0], beta0[0])
    for k in range(2):
        alone, obj_alone = _qreg_polish(Z, Y[k:k + 1], taus, beta0[k:k + 1])
        np.testing.assert_allclose(polished[k], alone[0], rtol=1e-12)
        assert obj[k] == pytest.approx(obj_alone[0], rel=1e-12)
    beta, obj, ok = _qreg_solve(Z, Y, taus, beta0, 1e-10, 60)
    for k in range(2):
        _, o1, ok1 = _qreg_solve(Z, Y[k:k + 1], taus, beta0[k:k + 1], 1e-10, 60)
        assert obj[k] == pytest.approx(o1[0], rel=1e-12) and ok[k] == ok1[0]


def test_kept_polish_candidates_interpolate_their_chosen_points():
    rng = np.random.default_rng(5)
    Z, _ = _instance(rng, 40, 3)
    Y = (Z @ rng.standard_normal((3, 30)) + rng.standard_t(df=3, size=(40, 30))).T
    taus = rng.choice([0.1, 0.5, 0.9], size=(30, 1))
    # interior-point iterates a few steps short of the vertex
    beta0 = _qreg_ipm(Z, Y, taus, 1e-10, 4)[0]
    polished, obj = _qreg_polish(Z, Y, taus, beta0)
    kept = np.any(polished != beta0, axis=1)
    assert kept.sum() >= 10
    idx = np.argsort(np.abs(Y - beta0 @ Z.T), axis=1)[:, :3]
    for b in np.flatnonzero(kept):
        resid = Y[b, idx[b]] - Z[idx[b]] @ polished[b]
        assert np.max(np.abs(resid)) <= 1e-12 * (1.0 + np.abs(Y[b]).sum())
        assert obj[b] < _ploss(Y[b] - Z @ beta0[b], taus[b])


def test_every_row_is_floored_at_its_previous_iterate():
    rng = np.random.default_rng(21)
    Z, _ = _instance(rng, 30, 3)
    Y = (Z @ rng.standard_normal((3, 12)) + rng.standard_t(df=2, size=(30, 12))).T
    taus = rng.choice([0.1, 0.5, 0.9], size=(12, 1))
    b_opt, obj_opt, _ = _qreg_solve(Z, Y, taus, np.zeros((12, 3)), 1e-10, 60)
    # half the rows start at their optimum, half far away
    prev = np.where(np.arange(12)[:, None] % 2 == 0, b_opt, 10.0 * rng.standard_normal((12, 3)))
    obj_prev = _ploss(Y - prev @ Z.T, taus)
    # with no interior-point step the floor alone keeps the optimal rows
    for max_iter in (0, 60):
        beta, obj, _ = _qreg_solve(Z, Y, taus, prev, 1e-10, max_iter)
        np.testing.assert_allclose(obj, _ploss(Y - beta @ Z.T, taus), rtol=1e-13)
        assert np.all(obj <= obj_prev)
    assert np.all(obj <= obj_opt + 1e-9)


def _int_array(draw, bound, shape):
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
    return np.array(values, float).reshape(shape)


@st.composite
def _degenerate_panel(draw):
    """Small integer panel, loadings and factors with ties, unequal level weights."""
    r = draw(st.integers(1, 2))
    T, N = draw(st.integers(r, 5)), draw(st.integers(r, 4))
    X = _int_array(draw, 2, (T, N))
    lam, F = _int_array(draw, 3, (3, N, r)), _int_array(draw, 3, (T, r))
    taus = np.array(draw(st.sampled_from([(0.25, 0.5, 0.75), (0.01, 0.5, 0.99)])))
    wts = np.array(draw(st.sampled_from([(0.5, 2.0, 1.25), (3.0, 0.25, 1.0)])))
    return X, lam, F, taus, wts


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_degenerate_panel())
def test_weighted_composite_rows_match_lp_oracle(case):
    # the oracle sees the unscaled design plus weights, so this also checks
    # the sweep's row scaling rho_tau(w e) = w rho_tau(e)
    X, lam, F, taus, wts = case
    (T, N), (K, _, r) = X.shape, lam.shape
    assume(np.linalg.matrix_rank(lam.reshape(K * N, r)) == r)
    assume(np.linalg.matrix_rank(F) == r)
    Zs, tau_s, w_s = lam.reshape(K * N, r), np.repeat(taus, N), np.repeat(wts, N)

    def wloss(y, f):
        e = y - Zs @ f
        return np.sum(w_s * np.maximum(tau_s * e, (tau_s - 1.0) * e))

    F_new, _ = _factor_sweep(X, lam, taus, wts, np.zeros((T, r)), _exact_solve)
    for x_t, f in zip(X, F_new):
        y = np.tile(x_t, K)
        f_lp = lp_oracle_quantile(y, Zs, tau_s, weights=w_s)
        assert wloss(y, f) <= wloss(y, f_lp) + 1e-9 * (1.0 + np.sum(w_s * np.abs(y)))
    lam_new, _ = _loading_sweep(X.T, F, taus, np.zeros((K, N, r)), _exact_solve)
    for k in range(K):
        level = np.full(T, taus[k])
        for i in range(N):
            y = X[:, i]
            slack = 1e-9 * (1.0 + np.abs(y).sum())
            oracle = _ploss(y - F @ lp_oracle_quantile(y, F, taus[k]), level)
            assert _ploss(y - F @ lam_new[k, i], level) <= oracle + slack
