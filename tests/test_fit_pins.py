"""Pinned fits: a refactor that silently changes what a fit returns fails here.

Two seeded small panels are fitted exactly and then smoothed from the exact
fit.  Each fit's outer-iteration count and final objective are pinned to
1e-12 relative.  A change that alters fits on purpose (a new density
estimate, bandwidth or Newton stopping rule, say) updates these pins and
says so in CHANGES.md, with the reason the values moved.
"""

import warnings

import pytest

from dafm.estimator import FitConfig, fit_dafm
from dafm.grids import QuantileGrid
from dafm.kernels import SmoothConfig
from dafm.simgen import ErrorDist, gen_location_scale_shift, gen_location_shift, weight_scheme
from dafm.smooth import fit_smoothed_dafm

# (generator, N, T, errors, seed, levels, weighting scheme, r,
#  exact (outer iterations, objective), smoothed (outer iterations, objective))
CASES = [
    (gen_location_shift, 12, 20, ErrorDist.gaussian(), 11, (0.25, 0.5, 0.75), "uniform", 2,
     (7, 0.992649396784922), (38, 0.9813508761677622)),
    (gen_location_scale_shift, 10, 16, ErrorDist.student_t(4.0), 5,
     (0.1, 0.3, 0.5, 0.7, 0.9), "low2x", 3,
     (12, 0.852320554318875), (66, 0.7840071370117059)),
]


@pytest.mark.parametrize("gen, N, T, dist, seed, levels, scheme, r, exact, smoothed", CASES)
def test_fits_match_their_pins(gen, N, T, dist, seed, levels, scheme, r, exact, smoothed):
    panel, _ = gen(N, T, dist, seed)
    grid = weight_scheme(QuantileGrid(levels), scheme)
    cfg = FitConfig(r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_dafm(panel, grid, cfg)
        sfit = fit_smoothed_dafm(panel, grid, cfg, SmoothConfig.for_sample(T), init_fit=fit)
    for got, (iters, objective) in ((fit, exact), (sfit, smoothed)):
        assert got.converged
        assert len(got.objective_trace) == iters
        assert got.objective == pytest.approx(objective, rel=1e-12, abs=0)
