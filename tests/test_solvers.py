"""Quantile-regression solvers against the exact linear-programming oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dafm.grids import QuantileGrid
from dafm.solvers import (
    _max_step,
    _ploss,
    _qreg_solve,
    composite_factor_step,
    lp_oracle_quantile,
    quantile_regress,
)


def _instance(rng, n, r, heavy=False):
    Z = rng.standard_normal((n, r))
    Z[:, 0] = 1.0
    beta = rng.standard_normal(r)
    noise = rng.standard_t(df=2, size=n) if heavy else rng.standard_normal(n)
    return Z, Z @ beta + noise


def test_ipm_matches_lp_oracle_on_random_designs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(15):
        n = int(rng.integers(8, 80))
        r = int(rng.integers(1, 5))
        Z, y = _instance(rng, n, r, heavy=bool(trial % 2))
        tau = float(rng.uniform(0.08, 0.92))
        beta = quantile_regress(y, Z, tau)
        b_lp = lp_oracle_quantile(y, Z, tau)
        taus = np.full(n, tau)
        gap = _ploss(y - Z @ beta, taus) - _ploss(y - Z @ b_lp, taus)
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_per_observation_levels():
    rng = np.random.default_rng(3)
    Z, y = _instance(rng, 60, 3)
    taus = rng.uniform(0.1, 0.9, size=60)
    beta = quantile_regress(y, Z, taus)
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
    beta = quantile_regress(y, Z, tau)
    b_lp = lp_oracle_quantile(y, Z, tau)
    taus = np.full(y.size, tau)
    slack = 1e-9 * (1.0 + np.abs(y).sum())
    assert _ploss(y - Z @ beta, taus) <= _ploss(y - Z @ b_lp, taus) + slack


def test_ploss_and_max_step_match_scalar_loops():
    # _ploss must sum left to right: the fit's tie-breaks depend on it
    rng = np.random.default_rng(5)
    for n in (1, 7, 300):
        resid = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        taus = rng.uniform(0.01, 0.99, size=n)
        total = 0.0
        for e, tau in zip(resid, taus):
            total += max(tau * e, (tau - 1.0) * e)
        assert _ploss(resid, taus) == total
        x, s = rng.uniform(0.1, 2.0, size=(2, n))
        dx, ds = rng.standard_normal((2, n))
        steps = [-a / d for a, d in zip(np.r_[x, s], np.r_[dx, ds]) if d < 0.0]
        assert _max_step(x, dx, s, ds) == min(steps, default=1e30)


def test_median_regression_on_odd_sample_interpolates():
    # scalar median of an odd sample is an order statistic
    y = np.array([3.0, -1.0, 7.0, 2.0, 5.0])
    beta = quantile_regress(y, np.ones((5, 1)), 0.5)
    assert beta[0] == pytest.approx(3.0, abs=1e-9)


def test_weighted_oracle_tilts_solution():
    y = np.array([0.0, 0.0, 10.0])
    Z = np.ones((3, 1))
    # huge weight on the large observation drags the weighted median up
    w = np.array([1.0, 1.0, 5.0])
    b = lp_oracle_quantile(y, Z, 0.5, weights=w)
    assert b[0] == pytest.approx(10.0, abs=1e-9)


def test_qreg_solve_never_worse_than_previous_iterate():
    # the sweep floor: handing in any candidate must not give a worse objective
    rng = np.random.default_rng(12)
    Z, y = _instance(rng, 40, 3)
    taus = np.full(40, 0.3)
    b_opt, obj_opt, _ = _qreg_solve(Z, y, taus, np.zeros(3), 1e-10, 60)
    for _ in range(5):
        prev = rng.standard_normal(3) * 10
        _, obj, _ = _qreg_solve(Z, y, taus, prev, 1e-10, 60)
        assert obj <= _ploss(y - Z @ prev, taus) + 1e-12
        assert obj <= obj_opt + 1e-9  # and the solver still finds the optimum
    # a previous iterate that is already optimal is kept
    _, obj_again, _ = _qreg_solve(Z, y, taus, b_opt, 1e-10, 60)
    assert obj_again <= obj_opt + 1e-12


def test_quantile_regress_validation():
    with pytest.raises(ValueError, match="observations"):
        quantile_regress(np.ones(2), np.ones((2, 3)), 0.5)
    with pytest.raises(ValueError, match="rank deficient"):
        quantile_regress(np.ones(4), np.ones((4, 2)), 0.5)
    with pytest.raises(ValueError, match="inside"):
        quantile_regress(np.ones(4), np.ones((4, 1)), 1.2)
    with pytest.raises(ValueError, match="finite"):
        quantile_regress(np.array([1.0, np.nan]), np.ones((2, 1)), 0.5)


def _composite_instance(seed, K=3, N=15, r=2):
    rng = np.random.default_rng(seed)
    grid = QuantileGrid((0.25, 0.5, 0.75), weights=(1.0, 2.0, 1.0))
    lam = rng.standard_normal((K, N, r))
    x = rng.standard_normal(N)
    # the stacked weighted problem the step must solve
    taus = np.repeat(grid.levels_array(), N)
    wts = np.repeat(grid.weights_array(), N)
    Zs = (lam * grid.weights_array()[:, None, None]).reshape(K * N, r)
    ys = wts * np.tile(x, K)
    return grid, lam, x, Zs, ys, taus


def test_composite_factor_step_matches_stacked_oracle():
    for seed in (0, 1, 2):
        grid, lam, x, Zs, ys, taus = _composite_instance(seed)
        f = composite_factor_step(x, lam, grid)
        f_lp = lp_oracle_quantile(ys, Zs, taus)
        assert _ploss(ys - Zs @ f, taus) <= _ploss(ys - Zs @ f_lp, taus) + 1e-9


def test_composite_factor_step_validation():
    grid = QuantileGrid((0.5,))
    with pytest.raises(ValueError, match="cross-section"):
        composite_factor_step(np.ones(3), np.ones((1, 4, 2)), grid)
    with pytest.raises(ValueError, match="levels"):
        composite_factor_step(np.ones(4), np.ones((2, 4, 2)), grid)
