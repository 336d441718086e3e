import numpy as np
import pytest

from dafm import (
    FitConfig,
    ForecastTask,
    QuantileGrid,
    SmoothConfig,
    composite_objective,
    factor_ci,
    fit_dafm,
    mean_pca,
    rolling_forecast,
    select_rank_eigen,
    select_rank_ic,
)
from dafm.panel import Panel, load_panel, save_panel


def test_panel_defaults_and_shape():
    p = Panel(np.arange(12.0).reshape(4, 3))
    assert p.values.shape == (4, 3)
    assert p.series_ids == ("s1", "s2", "s3")
    assert p.time_labels == ("t1", "t2", "t3", "t4")


def test_panel_values_are_read_only_and_copied():
    src = np.ones((2, 2))
    p = Panel(src)
    src[0, 0] = 99.0  # mutating the source must not reach the panel
    assert p.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.values[0, 0] = 5.0


def test_panel_rejects_bad_input():
    with pytest.raises(ValueError, match="2-d"):
        Panel(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        Panel(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="unique"):
        Panel(np.ones((2, 2)), series_ids=("a", "a"))
    with pytest.raises(ValueError, match="length"):
        Panel(np.ones((2, 2)), time_labels=("t1",))


def test_save_load_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    p = Panel(rng.standard_normal((7, 4)) * 1e-3, series_ids=("a", "b", "c", "d"))
    path = tmp_path / "panel.csv"
    save_panel(p, path)
    q = load_panel(path)
    assert q.series_ids == p.series_ids
    assert q.time_labels == p.time_labels
    assert np.array_equal(q.values, p.values)  # exact, not approximate


def test_load_panel_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="ragged row 3"):
        load_panel(ragged)
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("a,b\n1,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_panel(nonnum)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entry_points_take_an_array_through_the_panel_checks():
    rng = np.random.default_rng(0)
    X = np.outer(rng.standard_normal(20), rng.standard_normal(8)) + rng.standard_normal((20, 8))
    bad = X.copy()
    bad[3, 2] = np.nan
    grid = QuantileGrid((0.25, 0.5, 0.75))
    cfg = FitConfig(r=1, max_outer=4)
    fit = fit_dafm(Panel(X), grid, cfg)
    task = ForecastTask(target=X[:, 0], horizon=1, window=15, max_lag=0, method="ar")
    for call in [
        lambda A: fit_dafm(A, grid, cfg),
        lambda A: mean_pca(A, 1),
        lambda A: composite_objective(A, fit.F, fit.loadings, grid),
        lambda A: rolling_forecast(A, X[:, 0], task),
        lambda A: select_rank_ic(A, grid, s_max=2, cfg=cfg),
        lambda A: select_rank_eigen(A, grid, s_max=2, cfg=cfg),
        lambda A: factor_ci(fit, A, SmoothConfig.for_sample(20), 1),
    ]:
        call(X)  # a plain array works
        with pytest.raises(ValueError, match="panel values must be finite"):
            call(bad)
