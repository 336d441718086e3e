import numpy as np
import pytest

from dafm.panel import Panel, load_panel, save_panel


def test_panel_defaults_and_shape():
    p = Panel(np.arange(12.0).reshape(4, 3))
    assert p.shape == (4, 3)
    assert p.n_periods == 4 and p.n_series == 3
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
