"""Kernel construction checks against quadrature oracles.

The kernels are polynomials, so scipy's quadrature integrates them to
machine precision — an oracle independent of the exact-fraction linear
solve used to construct them.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from dafm.kernels import Kernel, SmoothConfig, build_kernel, default_bandwidth_exponent


@pytest.mark.parametrize("m", [8, 10, 12])
def test_moments_by_quadrature(m):
    kern = build_kernel(m)
    total, _ = quad(kern.pdf, -1, 1, limit=200)
    assert abs(total - 1.0) <= 1e-8
    for j in range(1, m):
        mom, _ = quad(lambda s, j=j: s**j * kern.pdf(s), -1, 1, limit=200)
        assert abs(mom) <= 1e-8, f"moment {j} of order-{m} kernel: {mom}"
    # the order-m moment must NOT vanish, otherwise the order claim is wrong
    mom_m, _ = quad(lambda s: s**m * kern.pdf(s), -1, 1, limit=200)
    assert abs(mom_m) > 1e-6


def test_epanechnikov_test_variant():
    kern = build_kernel(2)
    assert kern.order == 2
    assert not kern.conforming
    np.testing.assert_allclose(kern.pdf(0.0), 0.75)
    total, _ = quad(kern.pdf, -1, 1)
    assert abs(total - 1.0) <= 1e-12


def test_rejected_orders():
    for m in (4, 6):
        with pytest.raises(ValueError, match="order"):
            build_kernel(m)
    with pytest.raises(ValueError, match="even"):
        build_kernel(9)


def test_smoothness_at_support_edges():
    # k and k' vanish at +-1: the (1-s^2)^3 factor guarantees C^2 glue
    kern = build_kernel(8)
    assert abs(kern.pdf(1.0 - 1e-9)) < 1e-6
    assert abs(kern.deriv(1.0 - 1e-9)) < 1e-5
    assert kern.pdf(1.5) == 0.0 and kern.deriv(-2.0) == 0.0


def test_survival_matches_quadrature():
    kern = build_kernel(8)
    for u in (-1.0, -0.62, -0.25, 0.0, 0.33, 0.8, 1.0):
        val, _ = quad(kern.pdf, u, 1, limit=200)
        assert abs(kern.survival(u) - val) <= 1e-10
    assert kern.survival(-5.0) == 1.0
    assert kern.survival(5.0) == 0.0


def test_survival_derivative_is_minus_pdf():
    kern = build_kernel(8)
    u = np.linspace(-0.95, 0.95, 41)
    eps = 1e-6
    fd = (kern.survival(u + eps) - kern.survival(u - eps)) / (2 * eps)
    np.testing.assert_allclose(fd, -kern.pdf(u), atol=1e-6)


def test_deriv_matches_pdf_finite_difference():
    kern = build_kernel(10)
    u = np.linspace(-0.9, 0.9, 37)
    eps = 1e-6
    fd = (kern.pdf(u + eps) - kern.pdf(u - eps)) / (2 * eps)
    np.testing.assert_allclose(fd, kern.deriv(u), atol=1e-4)


def test_kernel_is_even():
    kern = build_kernel(8)
    u = np.linspace(0, 1, 11)
    np.testing.assert_allclose(kern.pdf(u), kern.pdf(-u), rtol=1e-14)


def test_default_bandwidth_exponent():
    c = default_bandwidth_exponent(8)
    assert c == pytest.approx((1 / 8 + 1 / 6) / 2)
    assert 1 / 8 < c < 1 / 6
    with pytest.raises(ValueError):
        default_bandwidth_exponent(6)


def test_smooth_config_for_sample():
    scfg = SmoothConfig.for_sample(100)
    assert scfg.kernel.order == 8
    assert scfg.h == pytest.approx(100.0 ** -default_bandwidth_exponent(8))
    # explicit bandwidth bypasses the exponent window
    tiny = SmoothConfig(kernel=build_kernel(8), bandwidth=1e-8)
    assert tiny.h == 1e-8


def test_smooth_config_validation():
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            SmoothConfig(kernel=build_kernel(8), bandwidth=h)
    with pytest.raises(ValueError, match="1/m < c < 1/6"):
        SmoothConfig(kernel=build_kernel(8), bandwidth=0.5, bandwidth_exponent=0.2)
    with pytest.raises(ValueError):
        SmoothConfig.for_sample(1)


def _exact_kernel(coef, u):
    """k(u), K(u), k'(u) of the float coefficients, evaluated over Fractions,
    and for each the sum of its terms' absolute values (the scale of the
    rounding error any evaluation in floating point makes)."""
    u = Fraction(u)
    c = [Fraction(x) for x in coef]
    a = abs(u)
    scale = (
        sum(abs(ci) * a**i for i, ci in enumerate(c)),
        Fraction(1, 2) + sum(abs(ci) / (i + 1) * a ** (i + 1) for i, ci in enumerate(c)),
        sum(i * abs(ci) * a ** (i - 1) for i, ci in enumerate(c) if i),
    )
    if a >= 1:
        return (0, 1 if u < 0 else 0, 0), scale
    values = (
        sum(ci * u**i for i, ci in enumerate(c)),
        Fraction(1, 2) - sum(ci / (i + 1) * u ** (i + 1) for i, ci in enumerate(c)),
        sum(i * ci * u ** (i - 1) for i, ci in enumerate(c) if i),
    )
    return values, scale


EDGE_POINTS = np.r_[np.linspace(-1.25, 1.25, 51), -1.0, 1.0, np.nextafter(1.0, 0.0),
                    np.nextafter(-1.0, 0.0), 0.0, 1e-9]


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_even_power_evaluator_matches_exact_polynomial(m):
    kern = build_kernel(m)
    for method, j in ((kern.pdf, 0), (kern.survival, 1), (kern.deriv, 2)):
        got = method(EDGE_POINTS)
        for u, val in zip(EDGE_POINTS, got):
            values, scale = _exact_kernel(kern.coef, u)
            assert abs(val - float(values[j])) <= 1e-13 * (1 + float(scale[j])), (method, u)
        # a scalar in gives a float out
        assert isinstance(method(0.3), float) and method(0.3) == method(np.array([0.3]))[0]


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_saturation_is_exact_and_continuous(m):
    kern = build_kernel(m)
    out = np.array([1.0, 1.5, 40.0, np.inf])
    for u in (out, -out):
        assert np.all(kern.pdf(u) == 0.0) and np.all(kern.deriv(u) == 0.0)
    assert np.all(kern.survival(out) == 0.0) and np.all(kern.survival(-out) == 1.0)
    # just inside the support k and K are already at their saturated values,
    # and so is k' where the (1 - s^2)^3 factor makes k continuously
    # differentiable (the order-2 test kernel's k' jumps at the edges)
    inside = 1.0 - 2.0**-40
    for u, surv in ((inside, 0.0), (-inside, 1.0)):
        assert abs(kern.pdf(u)) <= 1e-10 and abs(kern.survival(u) - surv) <= 1e-10
        assert not kern.conforming or abs(kern.deriv(u)) <= 1e-10


def test_kernel_with_an_odd_coefficient_is_rejected():
    with pytest.raises(ValueError, match="even"):
        Kernel(order=2, coef=np.array([0.75, 1e-3, -0.75]))
    # odd positions that are exactly zero are fine
    assert Kernel(order=2, coef=np.array([0.75, 0.0, -0.75])).pdf(0.0) == 0.75


def test_kernels_compare_and_hash_by_order_and_coefficients():
    a, b = build_kernel(8), build_kernel(8)
    assert a == b and hash(a) == hash(b)
    assert a != build_kernel(10)
    assert a != build_kernel(2)
    cfg = SmoothConfig.for_sample(100)
    assert hash(cfg) == hash(SmoothConfig.for_sample(100))
    assert cfg == SmoothConfig.for_sample(100)
    assert cfg != SmoothConfig.for_sample(101)
