"""Kernel construction checks against quadrature oracles.

The kernels are polynomials, so scipy's quadrature integrates them to
machine precision — an oracle independent of the exact-fraction linear
solve used to construct them.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from dafm.kernels import (
    Kernel,
    SmoothConfig,
    _even_vals,
    _reduce,
    build_kernel,
    default_bandwidth_exponent,
)
from dafm.losses import _scurv_vals


def _kernel(m):
    """The order-m kernel; order 2 is the Epanechnikov kernel, which
    ``build_kernel`` rejects but whose short polynomial checks the
    evaluators on a kernel without the (1 - s^2)^3 factor."""
    return Kernel(order=2, coef=np.array([0.75, 0.0, -0.75])) if m == 2 else build_kernel(m)


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
    kern = _kernel(2)
    assert kern.order == 2
    # no bandwidth exponent is admissible below order 8
    with pytest.raises(ValueError, match="no admissible bandwidth exponent"):
        default_bandwidth_exponent(kern.order)
    np.testing.assert_allclose(kern.pdf(0.0), 0.75)
    total, _ = quad(kern.pdf, -1, 1)
    assert abs(total - 1.0) <= 1e-12


def test_rejected_orders():
    for m in (2, 4, 6):
        with pytest.raises(ValueError, match="kernel order must be an even value >= 8"):
            build_kernel(m)
    with pytest.raises(ValueError, match="even"):
        build_kernel(9)


def test_each_order_is_built_once():
    kern = build_kernel(8)
    assert build_kernel(8) is kern
    assert build_kernel(np.int64(8)) is kern
    assert build_kernel(10) is not kern
    assert not kern.coef.flags.writeable
    # a failed build is not cached: invalid orders raise on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="even"):
            build_kernel(9)
        with pytest.raises(ValueError, match="order"):
            build_kernel(6)


def test_smoothness_at_support_edges():
    # k and k' vanish at +-1: the (1-s^2)^3 factor guarantees C^2 glue, so
    # the curvature 2 k(u) + u k'(u) vanishes there too
    kern = build_kernel(8)
    assert abs(kern.pdf(1.0 - 1e-9)) < 1e-6
    assert abs(_scurv_vals(kern, 1.0 - 1e-9, 1.0)) < 1e-5
    assert kern.pdf(1.5) == 0.0 and _scurv_vals(kern, -2.0, 1.0) == 0.0


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


def test_curvature_matches_pdf_finite_difference():
    # at h = 1 the smoothed-loss curvature is 2 k(u) + u k'(u)
    kern = build_kernel(10)
    u = np.linspace(-0.9, 0.9, 37)
    eps = 1e-6
    fd = (kern.pdf(u + eps) - kern.pdf(u - eps)) / (2 * eps)
    np.testing.assert_allclose(2.0 * kern.pdf(u) + u * fd, _scurv_vals(kern, u, 1.0), atol=1e-4)


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
    tiny = SmoothConfig(kernel=build_kernel(8), h=1e-8)
    assert tiny.h == 1e-8


def test_smooth_config_validation():
    for h in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            SmoothConfig(kernel=build_kernel(8), h=h)
    with pytest.raises(ValueError):
        SmoothConfig.for_sample(1)


def _exact_kernel(coef, u):
    """k(u) and K(u) of the float coefficients, evaluated over Fractions,
    and for each the sum of its terms' absolute values (the scale of the
    rounding error any evaluation in floating point makes)."""
    u = Fraction(u)
    c = [Fraction(x) for x in coef]
    a = abs(u)
    scale = (
        sum(abs(ci) * a**i for i, ci in enumerate(c)),
        Fraction(1, 2) + sum(abs(ci) / (i + 1) * a ** (i + 1) for i, ci in enumerate(c)),
    )
    if a >= 1:
        return (0, 1 if u < 0 else 0), scale
    values = (
        sum(ci * u**i for i, ci in enumerate(c)),
        Fraction(1, 2) - sum(ci / (i + 1) * u ** (i + 1) for i, ci in enumerate(c)),
    )
    return values, scale


EDGE_POINTS = np.r_[np.linspace(-1.25, 1.25, 51), -1.0, 1.0, np.nextafter(1.0, 0.0),
                    np.nextafter(-1.0, 0.0), 0.0, 1e-9]


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_even_power_evaluator_matches_exact_polynomial(m):
    kern = _kernel(m)
    for method, j in ((kern.pdf, 0), (kern.survival, 1)):
        got = method(EDGE_POINTS)
        for u, val in zip(EDGE_POINTS, got):
            values, scale = _exact_kernel(kern.coef, u)
            assert abs(val - float(values[j])) <= 1e-13 * (1 + float(scale[j])), (method, u)
        # a scalar in gives a float out
        assert isinstance(method(0.3), float) and method(0.3) == method(np.array([0.3]))[0]


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_saturation_is_exact_and_continuous(m):
    kern = _kernel(m)
    out = np.array([1.0, 1.5, 40.0, np.inf])
    for u in (out, -out):
        assert np.all(kern.pdf(u) == 0.0) and np.all(_scurv_vals(kern, u, 1.0) == 0.0)
    assert np.all(kern.survival(out) == 0.0) and np.all(kern.survival(-out) == 1.0)
    # just inside the support k and K are already at their saturated values,
    # and so is the curvature 2 k + u k' where the (1 - s^2)^3 factor makes k
    # continuously differentiable (the order-2 test kernel's k' jumps at the
    # edges)
    inside = 1.0 - 2.0**-40
    for u, surv in ((inside, 0.0), (-inside, 1.0)):
        assert abs(kern.pdf(u)) <= 1e-10 and abs(kern.survival(u) - surv) <= 1e-10
        assert m < 8 or abs(_scurv_vals(kern, u, 1.0)) <= 1e-10


def _reduce_reference(e, h):
    """``_reduce`` as first written, with ``np.clip``."""
    u = np.divide(e, h, out=np.empty(np.shape(e)))
    v = np.multiply(u, u, out=np.empty_like(u))
    outside = v >= 1.0
    np.minimum(v, 1.0, out=v)
    np.clip(u, -1.0, 1.0, out=u)
    return u, v, outside


def _even_vals_reference(coef, v, outside, edge):
    """``_even_vals`` as first written: a fill with the last coefficient,
    then Horner in place."""
    out = np.full_like(v, coef[-1])
    for c in coef[-2::-1]:
        out *= v
        out += c
    np.copyto(out, edge, where=outside)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [2, 8, 10, 12])
def test_reduce_and_even_vals_match_their_reference_formulas(m):
    # the evaluators skip np.clip's wrapper and the Horner fill; every value
    # must stay the same, bit for bit
    kern = _kernel(m)
    rng = np.random.default_rng(m)
    h = 0.37
    inputs = [rng.standard_normal(200) * 0.5, rng.standard_normal((7, 9)),
              np.array([h, -h, 2 * h, -2 * h, np.inf, -np.inf, np.nan, 0.0, -0.0]),
              np.float64(0.1), np.float64(-h), np.float64(np.inf), np.float64(np.nan),
              np.array(0.2), 0.05]
    # the last is the one-coefficient case
    coefs = [kern.pdf_v, kern.surv_v, kern.grad_v, kern.curv_v, kern.pdf_v[:1]]
    for e in inputs:
        got, want = _reduce(e, h), _reduce_reference(e, h)
        assert all(_same_bits(a, b) for a, b in zip(got, want)), e
        u, v, outside = want
        for coef in coefs:
            for edge in (0.0, 0.5):
                assert _same_bits(_even_vals(coef, v, outside, edge),
                                  _even_vals_reference(coef, v, outside, edge)), (e, coef)


def test_kernel_with_an_odd_coefficient_is_rejected():
    with pytest.raises(ValueError, match="even"):
        Kernel(order=2, coef=np.array([0.75, 1e-3, -0.75]))
    # odd positions that are exactly zero are fine
    assert Kernel(order=2, coef=np.array([0.75, 0.0, -0.75])).pdf(0.0) == 0.75


def test_kernels_compare_by_identity():
    assert build_kernel(8) is build_kernel(8)
    assert build_kernel(8) != build_kernel(10)
    cfg = SmoothConfig.for_sample(100)
    assert hash(cfg) == hash(SmoothConfig.for_sample(100))
    assert cfg == SmoothConfig.for_sample(100)
    assert cfg != SmoothConfig.for_sample(101)
