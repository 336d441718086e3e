import numpy as np
import pytest

from dafm import adjusted_r2, relative_mse


def test_adjusted_r2_perfect_fit_and_formula():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((60, 2))
    y = F @ [1.5, -0.7] + 3.0
    assert adjusted_r2(y, F) == pytest.approx(1.0)
    # hand-check the adjustment against a plain OLS fit
    noisy = y + rng.standard_normal(60)
    Z = np.column_stack([np.ones(60), F])
    beta, *_ = np.linalg.lstsq(Z, noisy, rcond=None)
    resid = noisy - Z @ beta
    tss = float(((noisy - noisy.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / tss
    expected = 1.0 - (1.0 - r2) * 59 / 57
    assert adjusted_r2(noisy, F) == pytest.approx(expected, rel=1e-12)


def test_adjusted_r2_invariant_to_invertible_maps():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((80, 3))
    y = F @ [0.5, 1.0, -2.0] + 0.3 * rng.standard_normal(80)
    base = adjusted_r2(y, F)
    A = np.array([[2.0, 0.1, 0.0], [-1.0, 1.0, 0.5], [0.3, 0.0, 1.0]])
    assert adjusted_r2(y, F @ A) == pytest.approx(base, rel=1e-10)
    assert adjusted_r2(y, F + 7.0) == pytest.approx(base, rel=1e-10)
    assert adjusted_r2(y, 100.0 * F) == pytest.approx(base, rel=1e-10)


def test_adjusted_r2_collinear_and_errors():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(40)
    F = np.column_stack([f, 2.0 * f])
    y = f + 0.1 * rng.standard_normal(40)
    with pytest.warns(RuntimeWarning, match="collinear"):
        val = adjusted_r2(y, F)
    assert val <= 1.0
    with pytest.raises(ValueError, match="constant"):
        adjusted_r2(np.ones(40), rng.standard_normal((40, 1)))
    with pytest.raises(ValueError, match="rows"):
        adjusted_r2(np.arange(10.0), rng.standard_normal((11, 1)))
    with pytest.raises(ValueError, match="T > r"):
        adjusted_r2(np.arange(4.0), rng.standard_normal((4, 3)))


def test_relative_mse_values_and_errors():
    a = np.array([1.0, 2.0, 3.0])
    f = np.array([1.0, 2.0, 4.0])
    b = np.array([0.0, 2.0, 3.0])
    # mse(f) = 1/3, mse(b) = 1/3
    assert relative_mse(f, a, b) == pytest.approx(1.0)
    assert relative_mse(a, a, b) == 0.0
    with pytest.raises(ValueError, match="baseline MSE is zero"):
        relative_mse(f, a, a)
    with pytest.raises(ValueError, match="share a length"):
        relative_mse(f, a, b[:2])
