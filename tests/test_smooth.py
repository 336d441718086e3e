"""Smoothed estimation and plug-in inference.

The smoothed fit is a refinement pass: it starts at the unsmoothed solution
and minimizes a differentiable surrogate.  Tests assert the relationships
that hold by construction (monotone trace, vanishing-bandwidth agreement,
objective improvement) plus Monte Carlo recovery of the plug-in density
matrices, where the target is known exactly for uniform errors.
"""

import functools
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from dafm.cli import main
from dafm.errors import NumericalError
from dafm.estimator import FactorFit, FitConfig, fit_dafm
from dafm.evalmetrics import adjusted_r2
from dafm.grids import QuantileGrid
from dafm.kernels import SmoothConfig, build_kernel
from dafm.losses import _scurv_vals, _sgrad_curv_vals, _smoothed_objective_core, composite_objective
from dafm.panel import Panel, save_panel
from dafm.simgen import ErrorDist, density_weights, gen_location_scale_shift, gen_location_shift
import dafm.smooth as smooth
from dafm.smooth import (
    DENSITY_FLOOR,
    PSD_TOL,
    _smooth_newton,
    factor_ci,
    fit_smoothed_dafm,
    loading_ci,
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
    T = panel.values.shape[0]
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
    tiny = SmoothConfig(kernel=build_kernel(8), h=1e-8)
    s = _smoothed_objective_core(panel.values, base.F, base.loadings, grid.levels_array(),
                                 grid.weights_array(), tiny.h, tiny.kernel)
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
            panel, grid, cfg, SmoothConfig(kernel=kern, h=h), init_fit=base
        )
        return max(
            np.linalg.norm(sm.F @ sm.loadings[k].T - base.F @ base.loadings[k].T)
            / np.sqrt(50 * 50)
            for k in range(5)
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


def _raw_curvature(fit, panel, scfg):
    """The (K, T, N) residual curvature that both plug-in matrices weight."""
    return smooth._residual_curvature(panel.values, fit.F, fit.loadings, scfg)


def test_plug_in_psi_recovers_uniform_density():
    # uniform(-5,5) errors have constant density 0.1; with h=4 the curvature
    # kernel integrates the density, so Psi_t -> 0.1 * Lambda'Lambda / N.
    # Each Psi_t averages N=500 draws, so test the time-average tightly and
    # individual periods loosely.
    fit, panel, lam = _known_fit()
    scfg = SmoothConfig(kernel=build_kernel(8), h=4.0)
    psi = smooth._psi(fit.grid.weights_array(), fit.loadings, _raw_curvature(fit, panel, scfg))
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
    scfg = SmoothConfig(kernel=build_kernel(8), h=4.0)
    target = 0.1 * fit.F.T @ fit.F / panel.values.shape[0]
    scale = np.abs(target).max()
    phis = smooth._phi(fit.F, _raw_curvature(fit, panel, scfg))[0]
    assert phis.shape == (500, 2, 2)
    assert np.abs(phis.mean(axis=0) - target).max() / scale < 0.1
    single_errs = np.abs(phis - target).max(axis=(1, 2)) / scale
    assert np.median(single_errs) < 0.6


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
    assert ci.psd


def test_factor_ci_width_scales_with_level():
    fit, panel, scfg = _ci_fixture()
    narrow = factor_ci(fit, panel, scfg, t=3, level=0.5)
    wide = factor_ci(fit, panel, scfg, t=3, level=0.99)
    assert np.all((wide.upper - wide.lower) > (narrow.upper - narrow.lower))


def test_loading_ci_matches_manual_sandwich():
    fit, panel, scfg = _ci_fixture()
    ci = loading_ci(fit, panel, scfg, k=2, i=5)
    tau = fit.grid.levels[1]
    # the covariance is built from the floored curvature matrix; the raw
    # plug-in can differ because higher-order kernels give some observations
    # negative curvature
    raw_curvature = _raw_curvature(fit, panel, scfg)
    phi = smooth._phi(fit.F, np.maximum(raw_curvature, DENSITY_FLOOR))[1, 4]
    cov = tau * (1 - tau) * (np.linalg.inv(phi) @ np.linalg.inv(phi)) / panel.values.shape[0]
    np.testing.assert_allclose(ci.cov, cov, rtol=1e-12, atol=1e-15)
    raw = smooth._phi(fit.F, raw_curvature)[1, 4]
    assert np.linalg.eigvalsh(phi)[0] > 0.0
    assert raw.shape == phi.shape
    np.testing.assert_array_equal(ci.estimate, fit.loadings[1, 4])


def _weighted_ci_fit():
    """The interval fixture's fit on a grid with unequal, non-unit weights."""
    fit, panel, scfg = _ci_fixture()
    grid = fit.grid.with_weights((0.5, 2.0, 1.25))
    return FactorFit(F=fit.F, loadings=fit.loadings, grid=grid), panel, scfg


def test_factor_ci_matches_manual_sandwich():
    fit, panel, scfg = _weighted_ci_fit()
    ci = factor_ci(fit, panel, scfg, t=11)
    lam = fit.loadings
    K, N, _ = lam.shape
    w = fit.grid.weights
    comoments = tau_comoments(fit.grid)
    sigma = np.einsum("kia,mib->kmab", lam, lam) / N
    omega = sum(w[k] * w[m] * comoments[k, m] * sigma[k, m] for k in range(K) for m in range(K))
    # built from the floored density matrix
    floored = np.maximum(_raw_curvature(fit, panel, scfg), DENSITY_FLOOR)
    psi_inv = np.linalg.inv(smooth._psi(fit.grid.weights_array(), lam, floored)[10])
    cov = psi_inv @ omega @ psi_inv / N
    np.testing.assert_allclose(ci.cov, 0.5 * (cov + cov.T), rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(ci.estimate, fit.F[10])


def test_plug_in_matrices_match_naive_loops():
    fit, panel, scfg = _weighted_ci_fit()
    X, F, lam = panel.values, fit.F, fit.loadings
    T, N = X.shape
    K, _, r = lam.shape
    w, taus = fit.grid.weights, fit.grid.levels
    c = np.empty((K, T, N))
    for k in range(K):
        for t in range(T):
            for i in range(N):
                c[k, t, i] = _scurv_vals(scfg.kernel, X[t, i] - lam[k, i] @ F[t], scfg.h)
    floored = np.maximum(c, DENSITY_FLOOR)
    z = NormalDist().inv_cdf(0.975)

    def assert_interval(ci, est, raw, M, middle, n):
        # the sandwich M^-1 middle M^-1 / n on the floored matrix; the psd
        # flag on the raw one
        M_inv = np.linalg.inv(M)
        cov = M_inv @ middle @ M_inv / n
        np.testing.assert_allclose(ci.cov, cov, rtol=1e-12, atol=1e-14 * np.abs(cov).max())
        half = z * np.sqrt(np.diag(cov))
        np.testing.assert_allclose(ci.lower, est - half, rtol=1e-12, atol=1e-12 * half.max())
        np.testing.assert_allclose(ci.upper, est + half, rtol=1e-12, atol=1e-12 * half.max())
        np.testing.assert_array_equal(ci.estimate, est)
        assert ci.psd == (np.linalg.eigvalsh(raw)[0] >= PSD_TOL)

    def psi_t(cc, t):
        return sum(w[k] * cc[k, t, i] * np.outer(lam[k, i], lam[k, i])
                   for k in range(K) for i in range(N)) / N

    naive = np.array([psi_t(c, t) for t in range(T)])
    raw = _raw_curvature(fit, panel, scfg)
    psi = smooth._psi(fit.grid.weights_array(), lam, raw)
    np.testing.assert_allclose(psi, naive, rtol=1e-12, atol=1e-14 * np.abs(naive).max())
    comoments = tau_comoments(fit.grid)
    omega = sum(w[k] * w[m] * comoments[k, m] * lam[k].T @ lam[m] / N
                for k in range(K) for m in range(K))
    for t in range(T):
        assert_interval(factor_ci(fit, panel, scfg, t + 1), F[t], naive[t],
                        psi_t(floored, t), omega, N)

    def phi_ki(cc, k, i):
        return sum(cc[k, t, i] * np.outer(F[t], F[t]) for t in range(T)) / T

    phis = smooth._phi(F, raw)
    for k, i in [(0, 0), (0, 59), (1, 4), (1, 16), (1, 33), (2, 16), (2, 2), (2, 41),
                 (0, 27), (1, 50), (2, 59)]:
        phi = phi_ki(c, k, i)
        np.testing.assert_allclose(phis[k, i], phi,
                                   rtol=1e-12, atol=1e-14 * np.abs(phi).max())
        assert_interval(loading_ci(fit, panel, scfg, k + 1, i + 1), lam[k, i], phi,
                        phi_ki(floored, k, i), taus[k] * (1 - taus[k]) * np.eye(r), T)


def _fresh(ci_fn, *args, **kwargs):
    """An interval computed with no batch to reuse."""
    smooth._MEMO.clear()
    return ci_fn(*args, **kwargs)


def _assert_same_interval(a, b):
    for name in ("estimate", "lower", "upper", "cov"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.psd == b.psd and a.level == b.level


def test_interval_batch_is_never_reused_for_other_inputs():
    fit, panel, scfg = _ci_fixture()
    rng = np.random.default_rng(3)
    base = (fit, panel, scfg)
    X = np.array(panel.values)
    # each differs from base in one input; base runs before and after each,
    # so a batch keyed on too little would be served to it
    variants = [(FactorFit(F=fit.F + 0.05, loadings=fit.loadings, grid=fit.grid), panel, scfg),
                (fit, Panel(panel.values + 0.1 * rng.standard_normal(panel.values.shape)), scfg),
                (fit, panel, SmoothConfig(kernel=scfg.kernel, h=2.0 * scfg.h)),
                (fit, X, scfg)]
    for ci_fn, idx in [(factor_ci, (5,)), (loading_ci, (2, 7))]:
        expected = _fresh(ci_fn, *base, *idx)
        for variant in variants:
            _assert_same_interval(ci_fn(*base, *idx), expected)
            got = ci_fn(*variant, *idx)
            _assert_same_interval(got, _fresh(ci_fn, *variant, *idx))
            if variant[1] is X:
                # an array goes through the same batch as a Panel of it
                _assert_same_interval(got, expected)
            else:
                assert not np.array_equal(got.cov, expected.cov)
        _assert_same_interval(ci_fn(*base, *idx), expected)
    # a plain array is read again on every call
    before = factor_ci(fit, X, scfg, 5)
    X += 0.1 * rng.standard_normal(X.shape)
    after = factor_ci(fit, X, scfg, 5)
    _assert_same_interval(after, _fresh(factor_ci, fit, X, scfg, 5))
    assert not np.array_equal(after.cov, before.cov)
    # the level is applied per call, not cached with the batch
    for level in (0.5, 0.99):
        for ci_fn, idx in [(factor_ci, (5,)), (loading_ci, (2, 7))]:
            ci_fn(*base, *idx)
            _assert_same_interval(ci_fn(*base, *idx, level=level),
                                  _fresh(ci_fn, *base, *idx, level=level))


def test_returned_intervals_belong_to_the_caller():
    fit, panel, scfg = _ci_fixture()
    for ci_fn, idx in [(factor_ci, (3,)), (loading_ci, (1, 8))]:
        def arrays(ci):
            return [ci.estimate, ci.lower, ci.upper, ci.cov]

        ci = ci_fn(fit, panel, scfg, *idx)
        kept = [arr.copy() for arr in arrays(ci)]
        for arr in arrays(ci):
            arr[...] = 0.0
        for arr, want in zip(arrays(ci_fn(fit, panel, scfg, *idx)), kept):
            np.testing.assert_array_equal(arr, want)


def test_rank_deficient_loadings_raise_for_every_period_on_every_call():
    fit, panel, scfg = _ci_fixture()
    lam = np.array(fit.loadings)
    lam[:, :, 1] = 0.0  # Psi_t has a zero row at every period
    flat = FactorFit(F=fit.F, loadings=lam, grid=fit.grid)
    for t in (4, 4, 9):
        with pytest.raises(NumericalError, match=f"at period {t} is not positive definite"):
            factor_ci(flat, panel, scfg, t)
    loading_ci(flat, panel, scfg, 1, 1)  # Phi_ki does not involve the loadings


def test_ci_validation_and_aspect_warning(monkeypatch):
    fit, panel, scfg = _ci_fixture()
    factor_ci(fit, panel, scfg, t=1)
    loading_ci(fit, panel, scfg, k=1, i=1)

    def no_work(*args):
        raise AssertionError("the arguments are checked before any work")

    # the batches above are reused, and a new one is never started
    monkeypatch.setattr(smooth, "_residual_curvature", no_work)
    with pytest.raises(ValueError, match="period index"):
        factor_ci(fit, panel, scfg, t=0)
    with pytest.raises(ValueError, match="confidence level"):
        factor_ci(fit, panel, scfg, t=1, level=1.0)
    with pytest.raises(ValueError, match="level index"):
        loading_ci(fit, panel, scfg, k=4, i=1)
    with pytest.raises(ValueError, match="series index"):
        loading_ci(fit, panel, scfg, k=1, i=61)
    with pytest.raises(ValueError, match="confidence level"):
        loading_ci(fit, panel, scfg, k=1, i=1, level=0.0)
    # so are a new fit and a plain array, which would need a new batch
    with pytest.raises(ValueError, match="confidence level"):
        factor_ci(FactorFit(F=fit.F, loadings=fit.loadings, grid=fit.grid), panel, scfg,
                  t=1, level=2.0)
    with pytest.raises(ValueError, match="confidence level"):
        loading_ci(fit, panel.values, scfg, k=1, i=1, level=-1.0)
    monkeypatch.undo()

    # a long skinny panel triggers the aspect-ratio warning, on every call
    rng = np.random.default_rng(0)
    T, N = 80, 12
    F = rng.standard_normal((T, 1))
    lam = rng.standard_normal((N, 1))
    p = Panel(F @ lam.T + 0.5 * rng.standard_normal((T, N)))
    g = QuantileGrid((0.5,))
    sc = SmoothConfig.for_sample(T)
    f = fit_smoothed_dafm(p, g, FitConfig(r=1), sc)
    for ci_fn, idx in [(factor_ci, (1,)), (factor_ci, (2,)), (loading_ci, (1, 1)),
                       (loading_ci, (1, 2))]:
        with pytest.warns(RuntimeWarning, match="aspect ratio") as record:
            ci_fn(f, p, sc, *idx)
        assert record[0].filename == __file__


def test_ci_indices_must_be_integers(monkeypatch):
    fit, panel, scfg = _ci_fixture()
    fresh = FactorFit(F=fit.F, loadings=fit.loadings, grid=fit.grid)

    def no_work(*args):
        raise AssertionError("the indices are checked before any batch is built")

    monkeypatch.setattr(smooth, "_residual_curvature", no_work)
    for bad in (1.5, 1.0, True, np.True_, "1", None):
        with pytest.raises(ValueError, match=f"period index must be an integer, got {bad!r}"):
            factor_ci(fresh, panel, scfg, bad)
        with pytest.raises(ValueError, match=f"level index must be an integer, got {bad!r}"):
            loading_ci(fresh, panel, scfg, bad, 2)
        with pytest.raises(ValueError, match=f"series index must be an integer, got {bad!r}"):
            loading_ci(fresh, panel, scfg, 1, bad)
    monkeypatch.undo()
    # numpy integers are indices
    a, b = factor_ci(fit, panel, scfg, np.int64(2)), factor_ci(fit, panel, scfg, 2)
    assert np.array_equal(a.estimate, b.estimate) and np.array_equal(a.cov, b.cov)
    a, b = loading_ci(fit, panel, scfg, np.int32(1), np.int64(3)), loading_ci(fit, panel, scfg, 1, 3)
    assert np.array_equal(a.estimate, b.estimate) and np.array_equal(a.cov, b.cov)


def test_density_floor_rescues_far_out_residuals():
    # push one series' loading so its residuals leave the kernel support:
    # every raw curvature is zero, yet the floored matrix stays invertible,
    # so the interval is produced (enormously wide) with the psd flag down
    fit, panel, scfg = _ci_fixture()
    lam = fit.loadings.copy()
    lam[:, 0, :] += 50.0  # series 1 residuals are now huge at every level
    shifted = FactorFit(F=fit.F, loadings=lam, grid=fit.grid)
    phi_raw = smooth._phi(shifted.F, _raw_curvature(shifted, panel, scfg))[0, 0]
    assert np.abs(phi_raw).max() == 0.0  # every curvature vanished
    ci = loading_ci(shifted, panel, scfg, k=1, i=1)
    assert not ci.psd
    healthy = loading_ci(fit, panel, scfg, k=1, i=1)
    assert (ci.upper - ci.lower).min() > (healthy.upper - healthy.lower).max()
    assert DENSITY_FLOOR == 1e-8


def _loading_batch(N=40, T=60, seed=5):
    """Smoothed loading subproblems as the loading sweep batches them: row
    k*N + i is series i at level k, on two random factors."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, 2))
    X = F @ rng.standard_normal((2, N)) + rng.standard_normal((T, N))
    taus = np.repeat([0.25, 0.5, 0.75], N)[:, None]
    scfg = SmoothConfig.for_sample(T)

    def solve(rows, beta0, max_newton=40):
        return _smooth_newton(F, np.tile(X.T, (3, 1))[rows], taus[rows], np.ones(T), beta0,
                              scfg.h, scfg.kernel, max_newton, 1e-8)

    return solve, 3 * N


def _factor_batch(K=5, N=30, T=40, r=3, seed=6):
    """Smoothed factor subproblems as the factor sweep batches them: row t is
    period t on the K*N stacked loadings, design row k*N + i at level k with
    weight w_k, as the ``infer`` workload runs them."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((K, N, r))
    X = rng.standard_normal((T, r)) @ lam[K // 2].T + rng.standard_normal((T, N))
    taus = np.repeat(np.linspace(0.1, 0.9, K), N)
    cvec = np.repeat(rng.uniform(0.5, 2.0, K), N)
    Y = np.tile(X, (1, K))
    scfg = SmoothConfig.for_sample(T)

    def solve(rows, beta0, max_newton=40):
        return _smooth_newton(lam.reshape(K * N, r), Y[rows], taus, cvec, beta0,
                              scfg.h, scfg.kernel, max_newton, 1e-8)

    return solve, T, r


def _assert_objective_independent_of_batch(solve, B, r):
    beta, obj, failed = solve(slice(None), np.zeros((B, r)))
    assert not failed.any()
    for b in range(B):
        beta_b, obj_b, failed_b = solve([b], beta[b:b + 1], max_newton=0)
        assert obj_b[0] == obj[b] and not failed_b[0]
        np.testing.assert_array_equal(beta_b[0], beta[b])
    rng = np.random.default_rng(1)
    for size in rng.integers(2, B, 40):
        rows = np.sort(rng.choice(B, size, replace=False))
        np.testing.assert_array_equal(solve(rows, beta[rows], max_newton=0)[1], obj[rows])


def test_newton_row_objective_does_not_depend_on_its_batch():
    # the Armijo test compares objectives from working sets of different
    # sizes, so a row's objective must be the same in any batch
    solve, B = _loading_batch()
    _assert_objective_independent_of_batch(solve, B, 2)


def test_newton_factor_row_objective_does_not_depend_on_its_batch():
    # The same with per-observation levels, non-unit weights and r = 3.  The
    # residuals must not be formed as ``b @ Z.T``: BLAS rounds that product
    # differently for batches of different sizes.
    _assert_objective_independent_of_batch(*_factor_batch())


def test_newton_rows_that_finished_take_no_step():
    solve, _ = _loading_batch()
    done = solve([0], np.zeros((1, 2)))[0]
    beta, obj, failed = solve([0, 45], np.vstack([done, np.zeros((1, 2))]))
    assert not failed.any()
    np.testing.assert_array_equal(beta[0], done[0])
    start = solve([45], np.zeros((1, 2)), max_newton=0)[1]
    alone, alone_obj, _ = solve([45], np.zeros((1, 2)))
    assert obj[1] < start[0]
    np.testing.assert_allclose(beta[1], alone[0], rtol=0, atol=1e-8)
    assert obj[1] == pytest.approx(alone_obj[0], rel=0, abs=1e-8)


def _first_newton_step(Z, y, beta0):
    """Gradient and Hessian at ``beta0`` of one smoothed median regression,
    and the step its first Newton iteration takes."""
    scfg = SmoothConfig.for_sample(len(y))
    e = y - Z @ beta0
    grad, curv = _sgrad_curv_vals(scfg.kernel, 0.5, e, scfg.h)
    g = -(grad @ Z)
    H = Z.T @ (curv[:, None] * Z)
    beta, _, failed = _smooth_newton(Z, y[None], 0.5, np.ones(len(y)), beta0[None],
                                     scfg.h, scfg.kernel, 1, 1e-8)
    assert not failed[0]
    return g, H, beta[0] - beta0


def _assert_parallel(step, direction):
    along = step @ direction / (direction @ direction)
    assert along > 0
    np.testing.assert_allclose(step, along * direction, rtol=1e-7, atol=0)


def test_newton_keeps_a_positive_definite_hessian_unshifted():
    # correlated columns and residuals inside the kernel's central lobe: H is
    # positive definite while its Gershgorin bound is negative, and the shift
    # stays at its 1e-10 floor, so the first direction is the Newton one
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((60, 1)) + 0.3 * rng.standard_normal((60, 3))
    y = Z.sum(axis=1) + 0.04 * rng.uniform(-1.0, 1.0, 60)
    g, H, step = _first_newton_step(Z, y, np.ones(3))
    off = np.abs(H).sum(axis=1) - np.abs(np.diag(H))
    assert np.min(np.diag(H) - off) < 0.0 < np.linalg.eigvalsh(H)[0]
    _assert_parallel(step, -np.linalg.solve(H, g))


def test_newton_shifts_an_indefinite_hessian_past_its_smallest_eigenvalue():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((60, 1)) + 0.3 * rng.standard_normal((60, 3))
    y = Z.sum(axis=1) + rng.standard_normal(60)
    g, H, step = _first_newton_step(Z, y, np.zeros(3))
    lmin = np.linalg.eigvalsh(H)[0]
    assert lmin < 0.0
    shifted = H + (1e-10 * max(1.0, np.abs(np.diag(H)).max()) - 1.01 * lmin) * np.eye(3)
    assert np.linalg.eigvalsh(shifted)[0] > 0.0
    _assert_parallel(step, -np.linalg.solve(shifted, g))


def _exit_gradient(panel, fit, scfg):
    """Largest factor-subproblem gradient over the periods, relative to
    sum_k w_k sum_i |lam_ki| componentwise."""
    X, grid = panel.values, fit.grid
    grad = np.zeros_like(fit.F)
    scale = np.zeros(fit.F.shape[1])
    for L, tau, w in zip(fit.loadings, grid.levels_array(), grid.weights_array()):
        grad -= w * _sgrad_curv_vals(scfg.kernel, tau, X - fit.F @ L.T, scfg.h)[0] @ L
        scale += w * np.abs(L).sum(axis=0)
    return np.abs(grad / scale).max()


@pytest.mark.parametrize("gen, N, T, seed, r", [
    (gen_location_scale_shift, 30, 40, 0, 3),
    (gen_location_scale_shift, 30, 40, 1, 3),
    (gen_location_scale_shift, 30, 40, 2, 3),
    (gen_location_shift, 12, 20, 11, 2),
])
def test_smoothed_fit_ends_at_a_stationary_factor_subproblem(gen, N, T, seed, r):
    # the Newton solves stop on their gradient, not on a short damped step
    panel = gen(N, T, ErrorDist.gaussian(), seed)[0]
    grid = QuantileGrid((0.1, 0.3, 0.5, 0.7, 0.9))
    scfg = SmoothConfig.for_sample(T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_smoothed_dafm(panel, grid, FitConfig(r=r), scfg)
    assert fit.converged
    assert _exit_gradient(panel, fit, scfg) <= 1e-6


def _failing_newton(monkeypatch, factor, fail_at, row):
    """Make row ``row`` of the ``fail_at``-th loading (or factor) Newton batch
    report a failed line search; factor batches have K*N design rows."""
    import dafm.smooth as smooth

    newton = smooth._smooth_newton
    calls = []

    def patched(Z, *args):
        beta, obj, failed = newton(Z, *args)
        if (Z.shape[0] == 3 * 8) == factor:
            calls.append(1)
            if len(calls) == fail_at:
                failed[row] = True
        return beta, obj, failed

    monkeypatch.setattr(smooth, "_smooth_newton", patched)


@pytest.mark.parametrize("factor, fail_at, row, where", [
    (False, 1, 1, "loading subproblem at level k=1, series i=2 (outer iteration 1)"),
    (True, 2, 0, "factor subproblem at period t=1 (outer iteration 2)"),
])
def test_line_search_failure_raises(monkeypatch, tmp_path, factor, fail_at, row, where):
    # T=20 periods, K*N=24 factor rows: the two subproblem kinds differ in size
    panel = gen_location_shift(8, 20, ErrorDist.gaussian(), seed=3)[0]
    grid = QuantileGrid((0.25, 0.5, 0.75))
    cfg = FitConfig(r=1, max_outer=4)
    scfg = SmoothConfig.for_sample(20)
    base = fit_dafm(panel, grid, cfg)
    _failing_newton(monkeypatch, factor, fail_at, row)
    with pytest.raises(NumericalError, match="line search failed") as exc:
        fit_smoothed_dafm(panel, grid, cfg, scfg, init_fit=base)
    assert where in str(exc.value)

    monkeypatch.undo()
    _failing_newton(monkeypatch, factor, fail_at, row)
    save_panel(panel, tmp_path / "panel.csv")
    argv = ["infer", "--panel", str(tmp_path / "panel.csv"), "--r", "1",
            "--levels", "0.25,0.5,0.75", "--t", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
