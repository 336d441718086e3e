"""The benchmark's traced run still finds and fits every function it wraps.

``perfbench/layers.py`` wraps dafm functions by module and name and reads
their arguments and return values in hooks.  A change that renames such a
function, or changes what it returns, leaves its probe absent or broken,
and the traced benchmark run then drops the metrics that need it.  This
test runs one tiny call of each benchmark workload under the tracer.
"""

import sys
import warnings
from pathlib import Path

import numpy as np

import dafm

_BENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from layers import PROBES  # noqa: E402
from tracing import Tracer  # noqa: E402

LEVELS = (0.1, 0.5, 0.9)


def _workloads():
    gauss = dafm.ErrorDist.gaussian()
    grid = dafm.QuantileGrid(LEVELS)
    panel, _ = dafm.gen_location_scale_shift(12, 12, gauss, seed=0)
    dafm.fit_dafm(panel, grid, dafm.FitConfig(r=2, max_outer=3))

    panel, truth = dafm.gen_location_scale_shift(8, 24, gauss, seed=1)
    scfg = dafm.SmoothConfig.for_sample(24)
    start = dafm.FactorFit(F=truth.dafm_factors(), loadings=truth.dafm_loadings(grid), grid=grid)
    fit = dafm.fit_smoothed_dafm(panel, grid, dafm.FitConfig(r=truth.n_factors, max_outer=2),
                                 scfg, init_fit=start)
    dafm.factor_ci(fit, panel, scfg, 1)
    dafm.loading_ci(fit, panel, scfg, 1, 1)

    # two forecast origins: the first window is fitted cold, the second warm
    panel, truth = dafm.gen_location_shift(8, 14, gauss, seed=2)
    task = dafm.ForecastTask(target=np.cumsum(truth.F0[:, 0]), horizon=1, window=12,
                             max_lag=1, method="ar+dafm")
    forecasts, _ = dafm.rolling_forecast(panel, None, task, grid, dafm.FitConfig(r=2, max_outer=3))
    assert forecasts.size == 2


def test_every_probe_is_wrapped_called_and_its_hook_fits():
    tracer = Tracer()
    tracer.install(PROBES)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _workloads()
    finally:
        tracer.uninstall()
    spans = {probe.span for probe in PROBES}
    assert len(spans) == 22
    # smooth imports no normalize_fit of its own; the estimator binding carries the span
    assert tracer.absent == ["dafm.smooth.normalize_fit"]
    assert tracer.broken == set()
    assert tracer.present == spans
    stats = tracer.stats()
    assert {span for span, st in stats.items() if st.calls} == spans
    assert stats["forecast.cold_fit"].calls == 1 and stats["forecast.warm_fit"].calls == 1
