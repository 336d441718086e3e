"""Loss functions against naive-loop and finite-difference oracles."""

from fractions import Fraction

import numpy as np
import pytest

from dafm.grids import QuantileGrid
from dafm.kernels import Kernel, SmoothConfig, build_kernel
from dafm.losses import (
    _scurv_vals,
    _sgrad_curv_vals,
    _sloss_vals,
    _smoothed_objective_core,
    check_loss,
    composite_objective,
)
from dafm.panel import Panel


def _kernel(m):
    """The order-m kernel; order 2 is the Epanechnikov kernel, which
    ``build_kernel`` rejects."""
    return Kernel(order=2, coef=np.array([0.75, 0.0, -0.75])) if m == 2 else build_kernel(m)


def test_check_loss_known_values():
    assert check_loss(2.0, 0.25) == pytest.approx(0.5)
    assert check_loss(-2.0, 0.25) == pytest.approx(1.5)
    assert check_loss(0.0, 0.9) == 0.0
    # median: half the absolute value
    np.testing.assert_allclose(check_loss([-3.0, 3.0], 0.5), [1.5, 1.5])


def test_check_loss_validates_level():
    with pytest.raises(ValueError):
        check_loss(1.0, 0.0)
    with pytest.raises(ValueError):
        check_loss(1.0, 1.5)


def test_composite_objective_matches_naive_loops():
    rng = np.random.default_rng(11)
    T, N, r, K = 9, 7, 2, 3
    X = rng.standard_normal((T, N))
    F = rng.standard_normal((T, r))
    lam = rng.standard_normal((K, N, r))
    grid = QuantileGrid((0.2, 0.5, 0.8), weights=(1.0, 2.5, 0.5))

    total = 0.0
    for k, (tau, w) in enumerate(zip(grid.levels, grid.weights)):
        for i in range(N):
            for t in range(T):
                e = X[t, i] - lam[k, i] @ F[t]
                total += w * (tau - (e <= 0)) * e
    naive = total / (N * T)

    val = composite_objective(Panel(X), F, lam, grid)
    assert val == pytest.approx(naive, rel=1e-12)


def test_composite_objective_shape_errors():
    g = QuantileGrid((0.5,))
    X = np.zeros((4, 3))
    with pytest.raises(ValueError, match="rows"):
        composite_objective(Panel(X), np.zeros((5, 1)), np.zeros((1, 3, 1)), g)
    with pytest.raises(ValueError, match="loadings shape"):
        composite_objective(Panel(X), np.zeros((4, 1)), np.zeros((2, 3, 1)), g)
    # a single level's loadings are (1, N, r), not N x r
    with pytest.raises(ValueError, match="loadings shape"):
        composite_objective(Panel(X), np.zeros((4, 1)), np.zeros((3, 1)), g)


def _scfg(h=0.7):
    return SmoothConfig(kernel=build_kernel(8), h=h)


def _loss(e, tau, scfg):
    return _sloss_vals(scfg.kernel, tau, e, scfg.h)


def _grad(e, tau, scfg):
    return _sgrad_curv_vals(scfg.kernel, tau, e, scfg.h)[0]


def test_smoothed_equals_plain_outside_bandwidth():
    # exact equality, not approximate: K saturates at 0/1 for |e| >= h
    scfg = _scfg(0.5)
    e = np.array([0.5, -0.5, 0.7, -2.0, 13.0])
    for tau in (0.1, 0.5, 0.85):
        np.testing.assert_array_equal(_loss(e, tau, scfg), check_loss(e, tau))


def test_smoothed_loss_below_plain_for_nonnegative_kernel():
    # K in [0,1] for the order-2 variant, so smoothing only relaxes the loss;
    # higher orders have negative kernel lobes and lose this property
    scfg = SmoothConfig(kernel=_kernel(2), h=1.0)
    e = np.linspace(-0.99, 0.99, 101)
    s = _loss(e, 0.3, scfg)
    c = check_loss(e, 0.3)
    assert np.all(s <= c + 1e-12)


def test_smoothed_loss_deviation_is_order_h():
    # |vrho - rho| = |1{e<=0} - K(e/h)| |e| <= (1 + max|K|) h inside the band
    for h in (1.0, 0.25):
        scfg = _scfg(h)
        e = np.linspace(-h, h, 201)
        gap = np.abs(_loss(e, 0.3, scfg) - check_loss(e, 0.3))
        kmax = np.abs(scfg.kernel.survival(np.linspace(-1, 1, 512))).max()
        assert gap.max() <= (1.0 + kmax) * h


def test_smoothed_grad_matches_central_differences():
    scfg = _scfg(0.8)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, size=100)
    eps = 1e-6
    for tau in (0.25, 0.5, 0.9):
        g = _grad(pts, tau, scfg)
        fd = (_loss(pts + eps, tau, scfg) - _loss(pts - eps, tau, scfg)) / (2 * eps)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= 1e-5


def test_smoothed_curv_matches_grad_differences():
    scfg = _scfg(0.8)
    pts = np.linspace(-1.5, 1.5, 61)
    eps = 1e-6
    curv = _scurv_vals(scfg.kernel, pts, scfg.h)
    fd = (_grad(pts + eps, 0.4, scfg) - _grad(pts - eps, 0.4, scfg)) / (2 * eps)
    np.testing.assert_allclose(curv, fd, atol=1e-5)
    # curvature does not depend on the level
    fd2 = (_grad(pts + eps, 0.9, scfg) - _grad(pts - eps, 0.9, scfg)) / (2 * eps)
    np.testing.assert_allclose(fd, fd2, atol=1e-8)


def test_smoothed_composite_objective_matches_naive():
    rng = np.random.default_rng(8)
    T, N, r, K = 8, 5, 2, 2
    X = rng.standard_normal((T, N))
    F = rng.standard_normal((T, r))
    lam = rng.standard_normal((K, N, r))
    grid = QuantileGrid((0.3, 0.7), weights=(2.0, 1.0))
    scfg = _scfg(0.6)

    total = 0.0
    for k, (tau, w) in enumerate(zip(grid.levels, grid.weights)):
        for i in range(N):
            for t in range(T):
                e = X[t, i] - lam[k, i] @ F[t]
                total += w * _loss(e, tau, scfg)
    naive = total / (N * T)

    val = _smoothed_objective_core(X, F, lam, grid.levels_array(), grid.weights_array(),
                                   scfg.h, scfg.kernel)
    assert val == pytest.approx(naive, rel=1e-12)


def _exact_cores(coef, tau, e, h):
    """Smoothed loss, derivative and curvature of the float kernel
    coefficients over Fractions, with a scale of their terms' sizes."""
    tau, e, h = Fraction(tau), Fraction(e), Fraction(h)
    u = e / h
    c = [Fraction(x) for x in coef]
    scale = 1 + sum((i + 2) * abs(ci) * abs(u) ** i for i, ci in enumerate(c))
    scale *= 1 + abs(e) + 1 / h
    if abs(u) >= 1:
        K = 1 if u < 0 else 0
        return ((tau - K) * e, tau - K, 0), scale
    k = sum(ci * u**i for i, ci in enumerate(c))
    dk = sum(i * ci * u ** (i - 1) for i, ci in enumerate(c) if i)
    K = Fraction(1, 2) - sum(ci / (i + 1) * u ** (i + 1) for i, ci in enumerate(c))
    return ((tau - K) * e, tau - K + u * k, (2 * k + u * dk) / h), scale


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_smoothed_cores_match_exact_polynomial(m):
    h = 0.6
    scfg = SmoothConfig(kernel=_kernel(m), h=h)
    e = h * np.r_[np.linspace(-1.3, 1.3, 41), -1.0, 1.0, np.nextafter(1.0, 0.0), 0.0]
    for tau in (0.1, 0.5, 0.9):
        got = (_loss(e, tau, scfg), _grad(e, tau, scfg), _scurv_vals(scfg.kernel, e, h))
        for j in range(3):
            for ej, val in zip(e, got[j]):
                values, scale = _exact_cores(scfg.kernel.coef, tau, ej, h)
                assert abs(val - float(values[j])) <= 1e-13 * float(scale), (j, tau, ej)


def test_fused_gradient_and_curvature_match_the_per_level_calls():
    scfg = _scfg(0.5)
    rng = np.random.default_rng(3)
    e = rng.uniform(-0.8, 0.8, size=(4, 30))
    taus = np.array([0.1, 0.3, 0.5, 0.9])[:, None]
    grad, curv = _sgrad_curv_vals(scfg.kernel, taus, e, scfg.h)
    # a level column broadcast over the rows gives each row's scalar-level values
    for b in range(4):
        np.testing.assert_array_equal(grad[b], _grad(e[b], taus[b, 0], scfg))
    np.testing.assert_array_equal(curv, _scurv_vals(scfg.kernel, e, scfg.h))
    # outside the band the derivative is exactly tau or tau - 1
    t = np.broadcast_to(taus, e.shape)
    np.testing.assert_array_equal(grad[e >= scfg.h], t[e >= scfg.h])
    np.testing.assert_array_equal(grad[e <= -scfg.h], t[e <= -scfg.h] - 1.0)
