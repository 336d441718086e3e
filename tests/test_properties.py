"""Invariance and monotonicity on small generated panels.

Rotating a fit to the normalized parametrization must leave every common
component F lambda_k' unchanged, and neither the exact nor the smoothed
alternating fit may ever raise its objective between outer iterations.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dafm.estimator import FitConfig, fit_dafm, normalize_fit
from dafm.grids import QuantileGrid
from dafm.kernels import SmoothConfig
from dafm.simgen import DGPS, ErrorDist
from dafm.smooth import fit_smoothed_dafm

_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(r=st.integers(1, 3), K=st.integers(1, 3), extra_T=st.integers(1, 10),
       extra_N=st.integers(1, 8), k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_normalize_fit_preserves_every_common_component(r, K, extra_T, extra_N, k, seed):
    rng = np.random.default_rng(seed)
    T, N = r + extra_T, r + extra_N
    # unequal column scales and a shift, so the rotation is far from identity
    F = rng.standard_normal((T, r)) * rng.uniform(0.1, 10.0, r) + rng.standard_normal(r)
    lam = rng.standard_normal((K, N, r))
    F_n, lam_n = normalize_fit(F, lam, min(k, K))
    for j in range(K):
        before = F @ lam[j].T
        after = F_n @ lam_n[j].T
        assert np.max(np.abs(after - before)) <= 1e-10 * np.max(np.abs(before))


@st.composite
def _small_panel(draw):
    dgp = draw(st.sampled_from(sorted(DGPS)))
    N, T = draw(st.integers(6, 12)), draw(st.integers(8, 16))
    dist = draw(st.sampled_from([ErrorDist.gaussian(), ErrorDist.student_t(3.0)]))
    panel, _ = DGPS[dgp](N, T, dist, draw(st.integers(0, 2**16)))
    levels = draw(st.sampled_from([(0.5,), (0.25, 0.5, 0.75), (0.1, 0.3, 0.5, 0.7, 0.9)]))
    grid = QuantileGrid(levels, weights=tuple(draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(levels), max_size=len(levels)))))
    return panel, grid, FitConfig(r=draw(st.integers(1, 2)), max_outer=15)


def _never_rises(trace):
    # The trace is recomputed with a summation order other than the one each
    # subproblem is floored on, so allow a rounding-level slack only.
    return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


@settings(_SETTINGS, max_examples=25)
@given(_small_panel())
def test_exact_and_smoothed_objective_traces_never_rise(case):
    panel, grid, cfg = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_dafm(panel, grid, cfg)
        smoothed = fit_smoothed_dafm(panel, grid, cfg, SmoothConfig.for_sample(panel.values.shape[0]),
                                     init_fit=fit)
    assert _never_rises(fit.objective_trace)
    assert _never_rises(smoothed.objective_trace)
