"""Alternating estimation and the normalized parametrization.

The identities here hold by construction for every converged fit, so they are
asserted at tight tolerances on moderate panels; the larger replication-based
checks live in the acceptance suite.
"""

import re
import warnings

import numpy as np
import pytest

from dafm.errors import NumericalError
from dafm.estimator import (
    FactorFit,
    FitConfig,
    _outer_loop,
    fit_dafm,
    mean_pca,
    normalize_fit,
)
from dafm.grids import QuantileGrid
from dafm.losses import composite_objective
from dafm.panel import Panel
from dafm.simgen import ErrorDist, gen_location_shift


GRID3 = QuantileGrid((0.25, 0.5, 0.75))


def _panel(seed=0, T=40, N=25, r=2):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, r))
    L = rng.standard_normal((N, r))
    return Panel(F @ L.T + 0.5 * rng.standard_normal((T, N)))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(r=0)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            FitConfig(r=2, tol=tol)
    with pytest.raises(ValueError):
        FitConfig(r=2, max_outer=0)
    with pytest.raises(ValueError, match="init"):
        FitConfig(r=2, init="warm")
    for k_star in (0, 2.0, True):
        with pytest.raises(ValueError, match="k_star is a 1-based index"):
            FitConfig(r=2, k_star=k_star)


def test_objective_trace_is_monotone_and_converges():
    fit = fit_dafm(_panel(), GRID3, FitConfig(r=2))
    trace = np.array(fit.objective_trace)
    assert fit.converged
    assert trace.size >= 2
    assert np.all(np.diff(trace) <= 1e-8)
    # final relative change is below the default tolerance
    assert abs(trace[-1] - trace[-2]) / max(trace[-2], 1e-12) < 1e-6


def test_fit_is_deterministic():
    a = fit_dafm(_panel(3), GRID3, FitConfig(r=2))
    b = fit_dafm(_panel(3), GRID3, FitConfig(r=2))
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.loadings, b.loadings)
    assert a.objective_trace == b.objective_trace


def test_normalization_identities():
    p = _panel(1, T=50, N=30)
    fit = fit_dafm(p, GRID3, FitConfig(r=2))
    T, N = p.values.shape
    r = fit.r
    # factors are orthonormal in the T-average inner product
    np.testing.assert_allclose(fit.F.T @ fit.F / T, np.eye(r), atol=1e-10)
    # reference-level loading cross-product is diagonal, non-increasing
    k_star = fit.k_star
    G = fit.loadings[k_star - 1].T @ fit.loadings[k_star - 1] / N
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() <= 1e-10
    d = np.diag(G)
    assert np.all(np.diff(d) <= 1e-12)
    # sign rule: each factor's largest-magnitude entry is positive
    idx = np.argmax(np.abs(fit.F), axis=0)
    assert np.all(fit.F[idx, np.arange(r)] > 0)


def test_normalize_preserves_common_components():
    rng = np.random.default_rng(9)
    F_raw = rng.standard_normal((30, 3)) @ np.diag([3.0, 1.0, 0.5])
    lam_raw = rng.standard_normal((2, 12, 3))
    F_n, lam_n = normalize_fit(F_raw, lam_raw, k=1)
    for k in range(2):
        np.testing.assert_allclose(
            F_n @ lam_n[k].T, F_raw @ lam_raw[k].T, atol=1e-10
        )
    assert np.all(np.diff(np.diag(lam_n[0].T @ lam_n[0] / lam_n.shape[1])) <= 1e-12)


def test_normalize_reference_level_only_rotates():
    # different reference levels give the same common components
    rng = np.random.default_rng(14)
    F_raw = rng.standard_normal((40, 2))
    lam_raw = rng.standard_normal((3, 15, 2))
    F1, lam1 = normalize_fit(F_raw, lam_raw, k=1)
    F3, lam3 = normalize_fit(F_raw, lam_raw, k=3)
    for k in range(3):
        np.testing.assert_allclose(F1 @ lam1[k].T, F3 @ lam3[k].T, atol=1e-9)


def test_normalize_rejects_rank_deficient_factors():
    F_raw = np.ones((20, 2))  # two identical columns
    lam_raw = np.ones((1, 5, 2))
    with pytest.raises(NumericalError, match="rank deficient"):
        normalize_fit(F_raw, lam_raw, k=1)


def test_normalize_rejects_rank_deficient_loadings_at_the_reference_level():
    rng = np.random.default_rng(3)
    F_raw = rng.standard_normal((20, 2))
    lam_raw = rng.standard_normal((3, 8, 2))
    lam_raw[1, :, 1] = 0.0  # a zero loading column at level 2 only
    for k in (1, 3):
        normalize_fit(F_raw, lam_raw, k=k)
    with pytest.raises(NumericalError, match="loadings at level k=2 are rank deficient"):
        normalize_fit(F_raw, lam_raw, k=2)


def test_normalize_validation():
    with pytest.raises(ValueError, match="level index"):
        normalize_fit(np.ones((5, 1)), np.ones((1, 3, 1)), k=2)
    with pytest.raises(ValueError, match="columns"):
        normalize_fit(np.ones((5, 2)), np.ones((1, 3, 1)), k=1)
    # one level's loadings are (1, N, r), not N x r
    with pytest.raises(ValueError, match="loadings of shape"):
        normalize_fit(np.ones((5, 1)), np.ones((3, 1)), k=1)


def test_k_star_override_and_validation():
    p = _panel(2)
    fit = fit_dafm(p, GRID3, FitConfig(r=1, k_star=3))
    assert fit.k_star == 3
    with pytest.raises(ValueError, match="k_star"):
        fit_dafm(p, GRID3, FitConfig(r=1, k_star=4))


def test_factor_fit_checks_its_k_star():
    fit = fit_dafm(_panel(5), GRID3, FitConfig(r=1))
    assert fit.k_star == 2
    for k_star in (None, 1, 3, np.int64(3)):
        kept = FactorFit(F=fit.F, loadings=fit.loadings, grid=GRID3, k_star=k_star)
        assert kept.k_star == k_star and type(kept.k_star) in (type(None), int)
    for k_star in (0, len(GRID3) + 1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="k_star must be None or an int in 1..3"):
            FactorFit(F=fit.F, loadings=fit.loadings, grid=GRID3, k_star=k_star)


def test_qfm_is_the_single_level_special_case():
    # a single-level fit normalizes at its one level
    with pytest.raises(ValueError, match="k_star"):
        fit_dafm(_panel(4), QuantileGrid((0.5,)), FitConfig(r=2, k_star=2))


def test_objective_property_matches_recomputation():
    p = _panel(6)
    fit = fit_dafm(p, GRID3, FitConfig(r=2))
    recomputed = composite_objective(p, fit.F, fit.loadings, fit.grid)
    # normalization preserves components, hence the objective, exactly
    assert recomputed == pytest.approx(fit.objective, abs=1e-12)


def test_factor_fit_holds_read_only_copies():
    F, lam = np.zeros((4, 1)), np.ones((1, 3, 1))
    fit = FactorFit(F=F, loadings=lam, grid=QuantileGrid((0.5,)))
    with pytest.raises(ValueError, match="read-only"):
        fit.F[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        fit.loadings[0, 0, 0] = 2.0
    # the arrays passed in stay writable, and writing them leaves the fit alone
    F[0, 0], lam[0, 0, 0] = 1.0, 2.0
    assert fit.F[0, 0] == 0.0 and fit.loadings[0, 0, 0] == 1.0


def test_factor_fit_checks_its_shapes():
    fit = fit_dafm(_panel(3), GRID3, FitConfig(r=2, max_outer=5))
    FactorFit(F=fit.F, loadings=fit.loadings[:1], grid=QuantileGrid((0.5,)))
    for F, lam, grid in [
        (fit.F, fit.loadings, QuantileGrid((0.5,))),  # three levels' loadings, one level
        (fit.F, fit.loadings[0], QuantileGrid((0.5,))),  # an N x r matrix is not (1, N, r)
        (fit.F[:, :1], fit.loadings, GRID3),  # r = 1 factor, r = 2 loading columns
        (fit.F[:, 0], fit.loadings[:, :, :1], GRID3),  # F not 2-D
    ]:
        with pytest.raises(ValueError, match="expected F of shape"):
            FactorFit(F=F, loadings=lam, grid=grid)


def test_noiseless_panel_recovers_quantile_surface():
    # exact factor structure, no noise: the fitted median surface matches X
    rng = np.random.default_rng(21)
    F = rng.standard_normal((36, 2))
    L = rng.standard_normal((18, 2))
    p = Panel(F @ L.T)
    fit = fit_dafm(p, QuantileGrid((0.5,)), FitConfig(r=2))
    np.testing.assert_allclose(fit.F @ fit.loadings[0].T, p.values, atol=1e-7)


def test_random_orthonormal_init_reaches_comparable_objective():
    # a random start is a usable fallback; note alternating minimization is
    # non-convex, so some seeds converge to worse blockwise-optimal points
    p = _panel(8)
    a = fit_dafm(p, GRID3, FitConfig(r=2, init="pca"))
    b = fit_dafm(p, GRID3, FitConfig(r=2, init="random-orthonormal", seed=0))
    assert b.converged
    assert b.objective <= a.objective * 1.02 + 1e-9


def test_small_panel_guards():
    g = QuantileGrid((0.5,))
    with pytest.raises(ValueError, match="periods"):
        fit_dafm(Panel(np.random.default_rng(0).standard_normal((2, 9))), g, FitConfig(r=2))
    with pytest.raises(ValueError, match="series"):
        fit_dafm(Panel(np.random.default_rng(0).standard_normal((9, 2))), g, FitConfig(r=2))


def test_mean_pca_properties():
    p = _panel(10, T=60, N=20)
    F, Lam = mean_pca(p, 3)
    np.testing.assert_allclose(F.T @ F / 60, np.eye(3), atol=1e-12)
    assert Lam.shape == (20, 3)
    # reconstruction through Lambda = X'F/T is the rank-3 projection
    X3 = F @ Lam.T
    resid = p.values - X3
    assert np.linalg.norm(resid) < np.linalg.norm(p.values)
    # a rank-1 panel is a numerical failure (CLI exit 3), not a usage error
    with pytest.raises(NumericalError, match="rank"):
        mean_pca(Panel(np.outer(np.arange(1.0, 7.0), np.ones(5)) + 0.0), 2)
    assert not issubclass(NumericalError, ValueError)


def test_factor_recovery_on_simulated_panel():
    # the estimated factor space should explain the true factors well
    dist = ErrorDist.gaussian()
    panel, truth = gen_location_shift(40, 60, dist, seed=0)
    fit = fit_dafm(panel, QuantileGrid((0.2, 0.5, 0.8)), FitConfig(r=4))
    from dafm.evalmetrics import adjusted_r2

    r2 = [adjusted_r2(truth.F0[:, j], fit.F) for j in range(3)]
    assert min(r2) > 0.9


def _drive(objectives, F=None, max_outer=10, tol=1e-6):
    """Run the outer loop with a sweep that returns its input unchanged and
    an objective that replays ``objectives``; returns the loop's result and
    the outer-iteration numbers the sweep saw."""
    replay = iter(objectives)
    seen = []

    def sweep(F, lam, outer):
        seen.append(outer)
        return F, lam, 0

    F = np.ones((4, 1)) if F is None else F
    cfg = FitConfig(r=1, tol=tol, max_outer=max_outer)
    out = _outer_loop(F, np.zeros((1, 3, 1)), cfg, sweep,
                      lambda F, lam: np.float64(next(replay)))
    return out, seen


def test_outer_loop_guards_raise():
    with pytest.raises(NumericalError, match="non-finite iterate at outer iteration 1"):
        _drive([1.0], F=np.full((4, 1), np.nan))
    with pytest.raises(NumericalError, match="factor magnitude exceeded 1.0e\\+08 at outer "
                       "iteration 1 \\(largest \\|loading\\| 0.0e\\+00\\)"):
        _drive([1.0], F=np.full((4, 1), 2e8))
    # a 0/1 panel whose first loading sweep returns zero loadings: the guard
    # names the vanished loadings behind the diverged factors.  Their size is
    # rounding, and the solver's arithmetic decides its digits
    binary = Panel((np.random.default_rng(1).random((25, 12)) > 0.5).astype(float))
    with pytest.raises(NumericalError, match="factor magnitude exceeded 1.0e\\+08 at outer iteration "
                       "1 \\(largest \\|loading\\| \\d\\.\\de[-+]\\d+\\)") as info:
        fit_dafm(binary, GRID3, FitConfig(r=1))
    loading = float(re.search(r"\|loading\| (\S+)\)", str(info.value)).group(1))
    assert loading <= 1e-12
    with pytest.raises(NumericalError, match="increased from 1 to 1.000001 at outer iteration 2"):
        _drive([1.0, 1.0 + 1e-6])


@pytest.mark.parametrize("ulps", [1, 4])
def test_ascent_guard_is_relative_to_the_objective(ulps):
    # a rounding-size rise on an objective of 1e8 is no ascent; an absolute
    # 1e-8 margin, below one ulp of 1e8, would raise on the 4-ulp rise
    rise = ulps * np.spacing(1e8)
    (_, _, trace, converged), _ = _drive([1e8, 1e8 + rise])
    assert trace == (1e8, 1e8 + rise) and converged


def test_outer_loop_stopping_rule_and_cap():
    (_, _, trace, converged), seen = _drive([1.0, 0.5, 0.5 - 1e-7])
    assert converged is True and trace == (1.0, 0.5, 0.5 - 1e-7) and seen == [1, 2, 3]
    (_, _, trace, converged), seen = _drive([1.0, 0.9, 0.8, 0.7, 0.6], max_outer=4)
    assert converged is False and len(trace) == 4 and seen == [1, 2, 3, 4]


def test_gap_misses_warn_once_with_their_count(monkeypatch):
    import dafm.solvers as solvers

    ipm = solvers._qreg_ipm
    monkeypatch.setattr(solvers, "_qreg_ipm", lambda *a: (*ipm(*a)[:2], np.zeros(len(a[1]), bool)))
    p = _panel(11, T=12, N=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_dafm(p, GRID3, FitConfig(r=1, max_outer=3))
    misses = [w for w in caught if "stopped short of the duality-gap target" in str(w.message)]
    assert len(misses) == 1 and misses[0].category is RuntimeWarning
    outer = len(fit.objective_trace)
    assert str(misses[0].message).startswith(f"{outer * (3 * 8 + 12)} inner")
