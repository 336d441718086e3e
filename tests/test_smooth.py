"""Smoothed estimation and plug-in inference.

The smoothed fit is a refinement pass: it starts at the unsmoothed solution
and minimizes a differentiable surrogate.  Tests assert the relationships
that hold by construction (monotone trace, vanishing-bandwidth agreement,
objective improvement) plus Monte Carlo recovery of the plug-in density
matrices, where the target is known exactly for uniform errors.
"""

import functools
import warnings

import numpy as np
import pytest

from dafm.cli import main
from dafm.errors import NumericalError
from dafm.estimator import FactorFit, FitConfig, fit_dafm
from dafm.evalmetrics import adjusted_r2
from dafm.grids import QuantileGrid
from dafm.kernels import SmoothConfig, build_kernel
from dafm.losses import composite_objective, smoothed_composite_objective
from dafm.panel import Panel, save_panel
from dafm.simgen import ErrorDist, density_weights, gen_location_shift
from dafm.smooth import (
    DENSITY_FLOOR,
    factor_ci,
    fit_smoothed_dafm,
    loading_ci,
    plug_in_phi,
    plug_in_psi,
    tau_comoments,
)


@functools.lru_cache(maxsize=1)
def _t2_fits():
    """Shared heavy setup: base and smoothed fits on a t(2) location-shift panel."""
    dist = ErrorDist.student_t(2)
    panel, truth = gen_location_shift(50, 50, dist, seed=0)
    grid = density_weights(dist, QuantileGrid((0.1, 0.3, 0.5, 0.7, 0.9)))
    cfg = FitConfig(r=4, seed=0)
    base = fit_dafm(panel, grid, cfg)
    scfg = SmoothConfig.for_sample(50)
    sm = fit_smoothed_dafm(panel, grid, cfg, scfg, init_fit=base)
    return panel, truth, grid, cfg, base, scfg, sm


def test_smoothed_fit_basics():
    panel, _, grid, _, _, _, sm = _t2_fits()
    T = panel.n_periods
    assert sm.converged
    trace = np.array(sm.objective_trace)
    assert np.all(np.diff(trace) <= 1e-8)
    np.testing.assert_allclose(sm.F.T @ sm.F / T, np.eye(4), atol=1e-10)


def test_smoothed_fit_does_not_worsen_the_exact_objective():
    # the surrogate's minimizer may move, but it must not degrade the
    # unsmoothed composite objective materially
    panel, _, grid, _, base, _, sm = _t2_fits()
    m_base = composite_objective(panel, base.F, base.loadings, grid)
    m_sm = composite_objective(panel, sm.F, sm.loadings, grid)
    assert m_sm <= m_base + 1e-3


def test_smoothed_and_base_fits_agree_on_the_factor_space():
    _, truth, _, _, base, _, sm = _t2_fits()
    for j in range(3):
        assert adjusted_r2(truth.F0[:, j], base.F) >= 0.9
        assert adjusted_r2(truth.F0[:, j], sm.F) >= 0.9


def test_vanishing_bandwidth_recovers_the_exact_objective():
    panel, _, grid, cfg, base, _, _ = _t2_fits()
    tiny = SmoothConfig(kernel=build_kernel(8), bandwidth=1e-8)
    s = smoothed_composite_objective(panel, base.F, base.loadings, grid, tiny)
    m = composite_objective(panel, base.F, base.loadings, grid)
    assert s == pytest.approx(m, abs=1e-10)
    # refining at a vanishing bandwidth cannot leave the unsmoothed solution
    # (it may polish the objective by a few ulps, never worsen it)
    sm = fit_smoothed_dafm(panel, grid, cfg, tiny, init_fit=base)
    m_sm = composite_objective(panel, sm.F, sm.loadings, grid)
    assert m_sm <= m + 1e-10
    assert m_sm == pytest.approx(m, abs=1e-6)


def test_component_distance_shrinks_with_the_bandwidth():
    panel, _, grid, cfg, base, _, _ = _t2_fits()
    kern = build_kernel(8)

    def dist_at(h):
        sm = fit_smoothed_dafm(
            panel, grid, cfg, SmoothConfig(kernel=kern, bandwidth=h), init_fit=base
        )
        return max(
            np.linalg.norm(sm.common_component(k) - base.common_component(k))
            / np.sqrt(50 * 50)
            for k in range(1, 6)
        )

    assert dist_at(0.01) < dist_at(0.5)


def test_smoothed_fit_validation():
    panel, _, grid, cfg, base, scfg, _ = _t2_fits()
    with pytest.raises(TypeError, match="SmoothConfig"):
        fit_smoothed_dafm(panel, grid, cfg, scfg=0.5)
    bad = FitConfig(r=3)
    with pytest.raises(ValueError, match="init_fit"):
        fit_smoothed_dafm(panel, grid, bad, scfg, init_fit=base)
    with pytest.raises(ValueError, match="k_star"):
        fit_smoothed_dafm(panel, grid, FitConfig(r=2, k_star=9), scfg)


def _known_fit(seed=0, T=400, N=500, r=2):
    """Synthetic fit with known factors/loadings and uniform(-5,5) errors."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, r))
    lam = rng.standard_normal((1, N, r))
    E = rng.uniform(-5.0, 5.0, size=(T, N))
    X = F @ lam[0].T + E
    grid = QuantileGrid((0.5,))
    fit = FactorFit(F=F, loadings=lam, grid=grid)
    return fit, Panel(X), lam


def test_plug_in_psi_recovers_uniform_density():
    # uniform(-5,5) errors have constant density 0.1; with h=4 the curvature
    # kernel integrates the density, so Psi_t -> 0.1 * Lambda'Lambda / N.
    # Each Psi_t averages N=500 draws, so test the time-average tightly and
    # individual periods loosely.
    fit, panel, lam = _known_fit()
    scfg = SmoothConfig(kernel=build_kernel(8), bandwidth=4.0)
    psi = plug_in_psi(fit, panel, scfg)
    assert psi.shape == (400, 2, 2)
    target = 0.1 * lam[0].T @ lam[0] / lam.shape[1]
    scale = np.abs(target).max()
    assert np.abs(psi.mean(axis=0) - target).max() / scale < 0.1
    single_errs = np.abs(psi - target).max(axis=(1, 2)) / scale
    assert np.median(single_errs) < 0.5


def test_plug_in_phi_recovers_uniform_density():
    # Phi_ki -> 0.1 * F'F / T, but a single series only averages T=400
    # curvature draws, so test the average over series tightly and the
    # per-series estimates loosely.
    fit, panel, lam = _known_fit(seed=1)
    scfg = SmoothConfig(kernel=build_kernel(8), bandwidth=4.0)
    target = 0.1 * fit.F.T @ fit.F / panel.n_periods
    scale = np.abs(target).max()
    phis = np.array(
        [plug_in_phi(fit, panel, scfg, k=1, i=i) for i in range(1, panel.n_series + 1)]
    )
    assert np.abs(phis.mean(axis=0) - target).max() / scale < 0.1
    single_errs = np.abs(phis - target).max(axis=(1, 2)) / scale
    assert np.median(single_errs) < 0.6
    with pytest.raises(ValueError, match="level index"):
        plug_in_phi(fit, panel, scfg, k=2, i=3)
    with pytest.raises(ValueError, match="series index"):
        plug_in_phi(fit, panel, scfg, k=1, i=0)


def test_tau_comoments_hand_values():
    grid = QuantileGrid((0.25, 0.5))
    expected = np.array([[0.25 * 0.75, 0.25 * 0.5], [0.25 * 0.5, 0.5 * 0.5]])
    np.testing.assert_allclose(tau_comoments(grid), expected)


def _ci_setup():
    rng = np.random.default_rng(42)
    T = N = 60
    F = rng.standard_normal((T, 2))
    lam = rng.standard_normal((N, 2))
    X = F @ lam.T + rng.standard_normal((T, N))
    panel = Panel(X)
    grid = QuantileGrid((0.25, 0.5, 0.75))
    cfg = FitConfig(r=2)
    scfg = SmoothConfig.for_sample(T)
    fit = fit_smoothed_dafm(panel, grid, cfg, scfg)
    return fit, panel, scfg


@functools.lru_cache(maxsize=1)
def _ci_fixture():
    return _ci_setup()


def test_factor_ci_shape_and_order():
    fit, panel, scfg = _ci_fixture()
    ci = factor_ci(fit, panel, scfg, t=7)
    assert ci.estimate.shape == (2,)
    assert np.all(ci.lower < ci.estimate) and np.all(ci.estimate < ci.upper)
    np.testing.assert_array_equal(ci.estimate, fit.F[6])
    assert ci.level == 0.95
    # covariance is symmetric positive semidefinite
    np.testing.assert_allclose(ci.cov, ci.cov.T, atol=1e-15)
    assert np.linalg.eigvalsh(ci.cov)[0] >= -1e-12
    assert ci.asym.psd


def test_factor_ci_width_scales_with_level():
    fit, panel, scfg = _ci_fixture()
    narrow = factor_ci(fit, panel, scfg, t=3, level=0.5)
    wide = factor_ci(fit, panel, scfg, t=3, level=0.99)
    assert np.all((wide.upper - wide.lower) > (narrow.upper - narrow.lower))


def test_loading_ci_matches_manual_sandwich():
    fit, panel, scfg = _ci_fixture()
    ci = loading_ci(fit, panel, scfg, k=2, i=5)
    tau = fit.grid.levels[1]
    # the covariance is built from the floored curvature matrix the report
    # exposes; the raw plug-in can differ because higher-order kernels give
    # some observations negative curvature
    phi = ci.asym.phi_ki
    cov = tau * (1 - tau) * (np.linalg.inv(phi) @ np.linalg.inv(phi)) / panel.n_periods
    np.testing.assert_allclose(ci.cov, cov, rtol=1e-12, atol=1e-15)
    raw = plug_in_phi(fit, panel, scfg, k=2, i=5)
    assert np.linalg.eigvalsh(phi)[0] > 0.0
    assert raw.shape == phi.shape
    np.testing.assert_array_equal(ci.estimate, fit.loadings[1, 4])


def test_ci_validation_and_aspect_warning():
    fit, panel, scfg = _ci_fixture()
    with pytest.raises(ValueError, match="period index"):
        factor_ci(fit, panel, scfg, t=0)
    with pytest.raises(ValueError, match="confidence level"):
        factor_ci(fit, panel, scfg, t=1, level=1.0)
    with pytest.raises(ValueError, match="series index"):
        loading_ci(fit, panel, scfg, k=1, i=61)

    # a long skinny panel triggers the aspect-ratio warning
    rng = np.random.default_rng(0)
    T, N = 80, 12
    F = rng.standard_normal((T, 1))
    lam = rng.standard_normal((N, 1))
    p = Panel(F @ lam.T + 0.5 * rng.standard_normal((T, N)))
    g = QuantileGrid((0.5,))
    sc = SmoothConfig.for_sample(T)
    f = fit_smoothed_dafm(p, g, FitConfig(r=1), sc)
    with pytest.warns(RuntimeWarning, match="aspect ratio"):
        factor_ci(f, p, sc, t=1)


def test_density_floor_rescues_far_out_residuals():
    # push one series' loading so its residuals leave the kernel support:
    # every raw curvature is zero, yet the floored matrix stays invertible,
    # so the interval is produced (enormously wide) with the psd flag down
    fit, panel, scfg = _ci_fixture()
    lam = fit.loadings.copy()
    lam[:, 0, :] += 50.0  # series 1 residuals are now huge at every level
    shifted = FactorFit(F=fit.F, loadings=lam, grid=fit.grid)
    phi_raw = plug_in_phi(shifted, panel, scfg, k=1, i=1)
    assert np.abs(phi_raw).max() == 0.0  # every curvature vanished
    ci = loading_ci(shifted, panel, scfg, k=1, i=1)
    assert not ci.asym.psd
    healthy = loading_ci(fit, panel, scfg, k=1, i=1)
    assert (ci.upper - ci.lower).min() > (healthy.upper - healthy.lower).max()
    assert DENSITY_FLOOR == 1e-8


def _failing_newton(monkeypatch, factor, fail_at):
    """Make the ``fail_at``-th loading (or factor) Newton solve report a
    failed line search; factor subproblems have K*N rows."""
    import dafm.smooth as smooth

    newton = smooth._smooth_newton
    calls = []

    def patched(Z, *args):
        beta, obj, status = newton(Z, *args)
        if (Z.shape[0] == 3 * 8) == factor:
            calls.append(1)
            if len(calls) == fail_at:
                status = 1
        return beta, obj, status

    monkeypatch.setattr(smooth, "_smooth_newton", patched)


@pytest.mark.parametrize("factor, fail_at, where", [
    (False, 2, "loading subproblem at level k=1, series i=2 (outer iteration 1)"),
    (True, 21, "factor subproblem at period t=1 (outer iteration 2)"),
])
def test_line_search_failure_raises(monkeypatch, tmp_path, factor, fail_at, where):
    # T=20 periods, K*N=24 factor rows: the two subproblem kinds differ in size
    panel = gen_location_shift(8, 20, ErrorDist.gaussian(), seed=3)[0]
    grid = QuantileGrid((0.25, 0.5, 0.75))
    cfg = FitConfig(r=1, max_outer=4)
    scfg = SmoothConfig.for_sample(20)
    base = fit_dafm(panel, grid, cfg)
    _failing_newton(monkeypatch, factor, fail_at)
    with pytest.raises(NumericalError, match="line search failed") as exc:
        fit_smoothed_dafm(panel, grid, cfg, scfg, init_fit=base)
    assert where in str(exc.value)

    monkeypatch.undo()
    _failing_newton(monkeypatch, factor, fail_at)
    save_panel(panel, tmp_path / "panel.csv")
    argv = ["infer", "--panel", str(tmp_path / "panel.csv"), "--r", "1",
            "--levels", "0.25,0.5,0.75", "--t", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
