"""Factor-count selection: penalty arithmetic, eigen spectra, edge cases."""

import warnings

import numpy as np
import pytest

from dafm.estimator import FitConfig, fit_dafm
from dafm.grids import QuantileGrid
from dafm.panel import Panel
from dafm.ranksel import default_penalty, select_rank_eigen, select_rank_ic
from dafm.simgen import ErrorDist


GRID = QuantileGrid((0.25, 0.5, 0.75))


def _noisy_panel(seed=0, T=50, N=30, r=2, noise=0.3):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, r))
    L = rng.standard_normal((N, r))
    return Panel(F @ L.T + noise * rng.standard_normal((T, N)))


def _noiseless_panel(seed=5, T=60, N=25, r=2):
    rng = np.random.default_rng(seed)
    return Panel(rng.standard_normal((T, r)) @ rng.standard_normal((N, r)).T)


def test_default_penalty_arithmetic():
    # L = min(sqrt(N), sqrt(T)); penalty = scale * L^(-2/3)
    assert default_penalty(100, 100, 1.0) == pytest.approx(10.0 ** (-2 / 3))
    assert default_penalty(25, 100, 1.0) == pytest.approx(5.0 ** (-2 / 3))
    assert default_penalty(100, 25, 1.0) == pytest.approx(5.0 ** (-2 / 3))
    assert default_penalty(50, 50, 2.0) == pytest.approx(2.0 * 50.0 ** (-1 / 3))


def test_default_penalty_validation():
    with pytest.raises(ValueError, match="N, T"):
        default_penalty(1, 50, 1.0)
    with pytest.raises(ValueError, match="scale"):
        default_penalty(50, 50, 0.0)


def test_ic_recovers_rank_noiseless():
    sel = select_rank_ic(_noiseless_panel(), GRID, s_max=4)
    assert sel.method == "ic"
    assert sel.r_hat == 2
    assert sel.criteria.shape == (4,)
    assert sel.penalty is not None and sel.thresholds is None
    assert len(sel.converged) == 4


def test_eigen_recovers_rank_noiseless():
    sel = select_rank_eigen(_noiseless_panel(), GRID, s_max=4)
    assert sel.method == "eigen"
    assert sel.r_hat == 2
    assert sel.criteria.shape == (3, 4)  # (K, s_max)
    # junk directions carry essentially zero mass
    assert np.abs(sel.criteria[:, 2:]).max() < 1e-8
    assert sel.thresholds.shape == (3,)
    assert sel.penalty is None


def test_both_methods_on_noisy_panel():
    p = _noisy_panel()
    assert select_rank_ic(p, GRID, s_max=5).r_hat == 2
    assert select_rank_eigen(p, GRID, s_max=5).r_hat == 2


def test_eigen_spectrum_matches_normalized_loadings():
    # on a full-rank fit the inversion-free spectrum equals the eigenvalues
    # of the normalized loading covariance
    p = _noisy_panel(3)
    r = 2
    fit = fit_dafm(p, GRID, FitConfig(r=r))
    sel = select_rank_eigen(p, GRID, s_max=r)
    N = p.n_series
    for k in range(3):
        lam_n = fit.loadings[k]
        direct = np.linalg.eigvalsh(lam_n.T @ lam_n / N)[::-1]
        np.testing.assert_allclose(sel.criteria[k], direct, atol=1e-10)


def test_eigen_trace_identity():
    # sum of reported eigenvalues = trace(A S_k): a spectrum-free cross-check
    p = _noisy_panel(4)
    s_max = 4
    cfg = FitConfig(r=s_max)
    sel = select_rank_eigen(p, GRID, s_max=s_max, cfg=cfg)
    from dafm.estimator import _fit_raw

    F, lam, _, _ = _fit_raw(p.values, GRID, FitConfig(r=s_max))
    T, N = p.shape
    A = F.T @ F / T
    for k in range(3):
        S = lam[k].T @ lam[k] / N
        np.testing.assert_allclose(sel.criteria[k].sum(), np.trace(A @ S), rtol=1e-10)


def test_eigen_threshold_monotonicity():
    p = _noisy_panel(6)
    base = select_rank_eigen(p, GRID, s_max=4)
    lead = base.criteria[:, 0].max()
    r_hats = []
    for mult in (1e-4, 0.05, 0.5):
        sel = select_rank_eigen(p, GRID, s_max=4, thresholds=mult * lead)
        r_hats.append(sel.r_hat)
    assert r_hats == sorted(r_hats, reverse=True)


def test_eigen_degenerate_threshold_raises():
    p = _noisy_panel(6)
    lead = select_rank_eigen(p, GRID, s_max=4).criteria[:, 0].max()
    with pytest.raises(ValueError, match="exceeds leading eigenvalue"):
        select_rank_eigen(p, GRID, s_max=4, thresholds=10.0 * lead)


def test_eigen_per_level_thresholds_and_validation():
    p = _noisy_panel(7)
    sel = select_rank_eigen(p, GRID, s_max=3, thresholds=(0.5, 0.5, 0.5))
    np.testing.assert_array_equal(sel.thresholds, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        select_rank_eigen(p, GRID, s_max=3, thresholds=-1.0)
    with pytest.raises(ValueError, match="auto"):
        select_rank_eigen(p, GRID, s_max=3, thresholds="tight")


def test_ic_explicit_penalty_endpoints():
    p = _noisy_panel(8)
    # an enormous penalty forces the smallest candidate
    sel_hi = select_rank_ic(p, GRID, s_max=4, penalty=1e6)
    assert sel_hi.r_hat == 1
    for penalty in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty must be finite and positive"):
            select_rank_ic(p, GRID, s_max=4, penalty=penalty)


def test_ic_criteria_are_objective_plus_linear_penalty():
    p = _noisy_panel(9)
    pen = 0.05
    sel = select_rank_ic(p, GRID, s_max=3, penalty=pen)
    # removing the penalty leaves the fit objectives, which are non-increasing
    objectives = sel.criteria - pen * np.arange(1, 4)
    assert np.all(np.diff(objectives) <= 1e-8)
    assert sel.penalty == pen


def test_s_max_default_and_validation():
    p = _noisy_panel(10, T=40, N=21)  # min(N,T)//3 = 7
    sel = select_rank_ic(p, GRID)
    assert sel.s_max == 7
    with pytest.raises(ValueError, match="s_max"):
        select_rank_ic(p, GRID, s_max=0)
    with pytest.raises(ValueError, match="s_max"):
        select_rank_ic(p, GRID, s_max=21)


def test_nonconverged_candidates_warn_but_select():
    p = _noisy_panel(11)
    tight = FitConfig(r=1, tol=1e-14, max_outer=2)
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        sel = select_rank_ic(p, GRID, s_max=3, cfg=tight)
    assert sel.r_hat in (1, 2, 3)
    assert not all(sel.converged)


def test_selection_on_simulated_panel():
    # one representative draw of the replication experiment: both rules
    # find the 3-factor location-scale representation
    from dafm.simgen import gen_location_scale_shift

    panel, truth = gen_location_scale_shift(50, 50, ErrorDist.gaussian(), seed=1)
    g = QuantileGrid((0.05, 0.5, 0.95))
    assert truth.n_factors == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert select_rank_eigen(panel, g, s_max=5).r_hat == 3
        assert select_rank_ic(panel, g, s_max=5).r_hat == 3
