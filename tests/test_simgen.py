import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from dafm import (
    ErrorDist,
    QuantileGrid,
    ar1_series,
    density_weights,
    gen_location_scale_shift,
    gen_location_shift,
    parse_dist,
    weight_scheme,
)
from dafm.simgen import DGPS


def test_error_dist_validation():
    with pytest.raises(ValueError, match="sigma must be positive"):
        ErrorDist.gaussian(0.0, 0.0)
    with pytest.raises(ValueError, match="degrees of freedom"):
        ErrorDist.student_t(-1.0)
    with pytest.raises(ValueError, match="df > 1"):
        ErrorDist.student_t(1.0)
    with pytest.raises(ValueError, match="probability"):
        ErrorDist.gauss_mixture(1.5, 0, 1, 0, 1)
    with pytest.raises(ValueError, match="variances"):
        ErrorDist.gauss_mixture(0.5, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="omega must be positive"):
        ErrorDist.skew_t(0, 0, 1, 5)
    with pytest.raises(ValueError, match="nu > 1"):
        ErrorDist.skew_t(0, 1, 1, 0.5)
    with pytest.raises(ValueError, match="unknown error kind"):
        ErrorDist("laplace", (1.0,))
    with pytest.raises(ValueError, match="takes"):
        ErrorDist("gaussian", (1.0,))
    # a non-finite parameter is named before any range check reads it
    for kind, params, message in [
        ("gaussian", (np.nan, 1.0), "gaussian mu must be finite, got nan"),
        ("gaussian", (0.0, np.inf), "gaussian sigma must be finite, got inf"),
        ("t", (np.inf,), "t df must be finite, got inf"),
        ("mixture", (np.nan, 0, 1, 0, 1), "mixture p must be finite, got nan"),
        ("skewt", (0.0, 1.0, -np.inf, 5.0), "skewt alpha must be finite, got -inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErrorDist(kind, params)
    assert ErrorDist("gaussian") == ErrorDist.gaussian(0.0, 1.0)


def test_gaussian_density_weights_exact():
    grid = QuantileGrid((0.1, 0.3, 0.5, 0.7, 0.9))
    g = density_weights(ErrorDist.gaussian(), grid)
    # the median weight is the standard normal density at zero
    assert g.weights[2] == pytest.approx(0.3989422804014327, rel=1e-15)
    # symmetric levels get symmetric weights
    assert g.weights[0] == pytest.approx(g.weights[4], rel=1e-12)
    assert g.weights[1] == pytest.approx(g.weights[3], rel=1e-12)
    # centering shift does not change the weights
    shifted = density_weights(ErrorDist.gaussian(5.0, 2.0), grid)
    base = density_weights(ErrorDist.gaussian(0.0, 2.0), grid)
    np.testing.assert_allclose(shifted.weights, base.weights, rtol=1e-12)


def test_t2_density_weights_exact():
    grid = QuantileGrid((0.25, 0.5, 0.75))
    g = density_weights(ErrorDist.student_t(2.0), grid)
    # t(2) density at its median: 1 / (2 sqrt(2))
    assert g.weights[1] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
    assert g.weights[0] == pytest.approx(g.weights[2], rel=1e-10)


def test_weight_schemes_positions():
    grid = QuantileGrid((0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95))
    np.testing.assert_array_equal(weight_scheme(grid, "uniform").weights, np.ones(7))
    np.testing.assert_array_equal(
        weight_scheme(grid, "low2x").weights, [2, 2, 1, 1, 1, 1, 1]
    )
    np.testing.assert_array_equal(
        weight_scheme(grid, "high2x").weights, [1, 1, 1, 1, 1, 2, 2]
    )
    # the middle third of the 7-level grid is the 0.3/0.5/0.7 block
    np.testing.assert_array_equal(
        weight_scheme(grid, "med2x").weights, [1, 1, 2, 2, 2, 1, 1]
    )
    five = QuantileGrid((0.1, 0.3, 0.5, 0.7, 0.9))
    np.testing.assert_array_equal(
        weight_scheme(five, "med2x").weights, [1, 2, 2, 2, 1]
    )
    with pytest.raises(ValueError, match="at least 2"):
        weight_scheme(QuantileGrid((0.5,)), "low2x")
    with pytest.raises(ValueError, match="at least 3"):
        weight_scheme(QuantileGrid((0.3, 0.7)), "med2x")
    with pytest.raises(ValueError, match="unknown scheme"):
        weight_scheme(five, "mid2x")


def test_ar1_series_moments_and_validation():
    x = ar1_series(0.8, 200_000, seed=5)
    var_target = 1.0 / (1.0 - 0.64)
    assert np.var(x) == pytest.approx(var_target, rel=0.05)
    corr = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert corr == pytest.approx(0.8, abs=0.02)
    # exact recursion with the innovations implied by a fresh generator
    rng = np.random.default_rng(np.random.SeedSequence(5))
    x0 = rng.standard_normal() / math.sqrt(1.0 - 0.8 * 0.8)
    innov = rng.standard_normal(9)
    y = ar1_series(0.8, 10, seed=5)
    assert y[0] == x0
    for t in range(1, 10):
        assert y[t] == pytest.approx(0.8 * y[t - 1] + innov[t - 1], rel=1e-15)
    with pytest.raises(ValueError, match="phi"):
        ar1_series(1.0, 10, seed=0)
    with pytest.raises(ValueError, match="T >= 1"):
        ar1_series(0.5, 0, seed=0)


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDist.gaussian(2.0, 1.5),
        ErrorDist.student_t(3.0),
        ErrorDist.gauss_mixture(0.3, -2.0, 1.0, 4.0, 2.0),
        ErrorDist.skew_t(0.0, 1.0, 3.0, 5.0),
    ],
    ids=["gaussian", "t", "mixture", "skewt"],
)
def test_centered_samples_have_mean_zero(dist):
    draws = dist.sample(400_000, np.random.default_rng(11))
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean()) < 5 * se


@pytest.mark.parametrize(
    "dist",
    [
        ErrorDist.gaussian(1.0, 2.0),
        ErrorDist.student_t(2.0),
        ErrorDist.gauss_mixture(0.3, -2.0, 1.0, 4.0, 2.0),
        ErrorDist.skew_t(0.5, 1.2, -2.0, 4.0),
    ],
    ids=["gaussian", "t", "mixture", "skewt"],
)
def test_quantile_cdf_round_trip(dist):
    for q in (0.05, 0.25, 0.5, 0.9):
        x = dist.quantile(q)
        assert dist.cdf(x) == pytest.approx(q, abs=1e-8)
    with pytest.raises(ValueError, match="quantile level"):
        dist.quantile(0.0)


def test_gaussian_quantile_is_norm_ppf_bit_for_bit():
    levels = (np.arange(200) + 0.5) / 200
    for mu, sigma in [(0.0, 1.0), (1.0, 2.0), (-3.5, 0.25)]:
        dist = ErrorDist.gaussian(mu, sigma)
        for q in levels:
            assert dist.quantile(q) == scipy.stats.norm.ppf(q, mu, sigma) - mu


def test_skewt_raw_mean_matches_integral():
    # the distribution functions are shifted by the raw mean's formula, so
    # the shifted variable integrates to mean zero only if the formula is right
    for dist, scale in [(ErrorDist.skew_t(0.5, 1.2, 3.0, 5.0), 1.2),
                        (ErrorDist.gauss_mixture(0.3, -2.0, 1.0, 4.0, 2.0), 3.0)]:
        val, err = scipy.integrate.quad(
            lambda x: x * dist.pdf(x), -np.inf, np.inf, limit=400
        )
        assert abs(val) < 1e-8 * scale


def test_skewt_sampling_matches_analytic_quantiles():
    dist = ErrorDist.skew_t(0.0, 1.0, 4.0, 6.0)
    draws = dist.sample(200_000, np.random.default_rng(3))
    for q in (0.1, 0.5, 0.9):
        assert np.quantile(draws, q) == pytest.approx(dist.quantile(q), abs=0.02)


def test_location_shift_panel_and_truth():
    dist = ErrorDist.gaussian()
    panel, truth = gen_location_shift(30, 50, dist, seed=9)
    assert panel.values.shape == (50, 30)
    panel2, truth2 = gen_location_shift(30, 50, dist, seed=9)
    np.testing.assert_array_equal(panel.values, panel2.values)
    np.testing.assert_array_equal(truth.F0, truth2.F0)
    assert truth.n_factors == 4
    Fd = truth.dafm_factors()
    assert Fd.shape == (50, 4)
    np.testing.assert_array_equal(Fd[:, 3], np.ones(50))
    grid = QuantileGrid((0.2, 0.5, 0.8))
    lam = truth.dafm_loadings(grid)
    assert lam.shape == (3, 30, 4)
    # the representation is the base common component plus the error quantile
    for k, tau in enumerate(grid.levels):
        manual = truth.F0 @ truth.loadings0.T + dist.quantile(tau)
        np.testing.assert_allclose(Fd @ lam[k].T, manual, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="N, T >= 1"):
        gen_location_shift(0, 10, dist, seed=0)


def test_location_scale_shift_truth_structure():
    dist = ErrorDist.gaussian()
    panel, truth = gen_location_scale_shift(40, 60, dist, seed=4)
    assert truth.n_factors == 3
    assert np.all(truth.F0[:, 2] >= 0)
    assert np.all(truth.loadings0[:, 2] >= 0)
    lam = truth.dafm_loadings(QuantileGrid((0.25, 0.5, 0.75)))
    # at the median the error quantile is exactly zero, so the scale factor
    # drops out of the representation entirely
    np.testing.assert_array_equal(lam[1, :, 2], np.zeros(40))
    np.testing.assert_allclose(lam[0, :, 2], -lam[2, :, 2], rtol=1e-10)
    np.testing.assert_array_equal(lam[0, :, :2], truth.loadings0[:, :2])


def _ar1_by_hand(rng, phi, T):
    x = [rng.standard_normal() / math.sqrt(1.0 - phi * phi)]
    for e in rng.standard_normal(T - 1):
        x.append(phi * x[-1] + e)
    return np.array(x)


def test_draw_order_is_pinned():
    # each panel rebuilt from one generator in the documented draw order
    N, T, seed = 7, 11, 3
    rng = np.random.default_rng(seed)
    F0 = np.column_stack([_ar1_by_hand(rng, phi, T) for phi in (0.8, 0.5, 0.2)])
    lam = rng.standard_normal((N, 3))
    eps = rng.normal(0.0, 1.0, size=T * N).reshape(T, N)
    panel, truth = gen_location_shift(N, T, ErrorDist.gaussian(), seed)
    np.testing.assert_array_equal(panel.values, F0 @ lam.T + eps)
    np.testing.assert_array_equal(truth.F0, F0)

    rng = np.random.default_rng(seed)
    f1, f2 = _ar1_by_hand(rng, 0.8, T), _ar1_by_hand(rng, 0.5, T)
    f3 = np.abs(rng.standard_normal(T))
    lam12 = rng.standard_normal((N, 2))
    lam3 = np.abs(rng.standard_normal(N))
    eps = rng.normal(0.0, 1.0, size=T * N).reshape(T, N)
    X = np.outer(f1, lam12[:, 0]) + np.outer(f2, lam12[:, 1]) + np.outer(f3, lam3) * eps
    panel, truth = gen_location_scale_shift(N, T, ErrorDist.gaussian(), seed)
    np.testing.assert_array_equal(panel.values, X)
    np.testing.assert_array_equal(truth.loadings0, np.column_stack([lam12, lam3]))


@pytest.mark.parametrize("dgp", ["location-shift", "location-scale-shift"])
def test_representation_gives_conditional_quantiles(dgp):
    # P(X_it <= Q_it(tau)) should be tau when the representation is right
    panel, truth = DGPS[dgp](100, 400, ErrorDist.student_t(3.0), seed=21)
    grid = QuantileGrid((0.25, 0.5, 0.9))
    Fd = truth.dafm_factors()
    lam = truth.dafm_loadings(grid)
    for k, tau in enumerate(grid.levels):
        frac = np.mean(panel.values <= Fd @ lam[k].T)
        assert frac == pytest.approx(tau, abs=0.01)


def test_parse_dist_forms_and_errors():
    d = parse_dist("gaussian")
    assert d.kind == "gaussian" and d.params == (0.0, 1.0)
    d = parse_dist("gaussian:1,2")
    assert d.params == (1.0, 2.0)
    d = parse_dist("t:2")
    assert d.kind == "t" and d.params == (2.0,)
    d = parse_dist("mixture:0.5,-1,1,1,2")
    assert d.kind == "mixture" and d.params == (0.5, -1.0, 1.0, 1.0, 2.0)
    d = parse_dist("skewt:0,1,3,5")
    assert d.kind == "skewt" and d.params == (0.0, 1.0, 3.0, 5.0)
    assert parse_dist("Gaussian").params == (0.0, 1.0)
    with pytest.raises(ValueError, match="unknown distribution"):
        parse_dist("cauchy:1")
    with pytest.raises(ValueError, match="numeric"):
        parse_dist("t:two")
    with pytest.raises(ValueError, match="exactly one"):
        parse_dist("t:1,2")
    with pytest.raises(ValueError, match="mu,sigma"):
        parse_dist("gaussian:1")
    with pytest.raises(ValueError, match="mixture takes"):
        parse_dist("mixture:0.5")
    with pytest.raises(ValueError, match="skewt takes"):
        parse_dist("skewt:0,1")
