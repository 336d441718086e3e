import numpy as np
import pytest

from dafm.grids import QuantileGrid


def test_construction_and_defaults():
    g = QuantileGrid((0.1, 0.5, 0.9))
    assert g.levels == (0.1, 0.5, 0.9)
    assert g.weights == (1.0, 1.0, 1.0)
    assert len(g) == 3
    np.testing.assert_array_equal(g.levels_array(), [0.1, 0.5, 0.9])


def test_single_level_grid():
    g = QuantileGrid((0.5,))
    assert len(g) == 1
    assert g.median_index() == 1


def test_validation():
    with pytest.raises(ValueError, match="at least one"):
        QuantileGrid(())
    with pytest.raises(ValueError, match="inside"):
        QuantileGrid((0.0, 0.5))
    with pytest.raises(ValueError, match="inside"):
        QuantileGrid((0.5, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        QuantileGrid((0.5, 0.5))
    with pytest.raises(ValueError, match="increasing"):
        QuantileGrid((0.7, 0.3))
    with pytest.raises(ValueError, match="length"):
        QuantileGrid((0.3, 0.7), weights=(1.0,))
    with pytest.raises(ValueError, match="positive"):
        QuantileGrid((0.3, 0.7), weights=(1.0, 0.0))


def test_with_weights_returns_new_grid():
    g = QuantileGrid((0.25, 0.75))
    h = g.with_weights((2.0, 3.0))
    assert h.weights == (2.0, 3.0)
    assert g.weights == (1.0, 1.0)
    assert h.levels == g.levels


def test_median_index_prefers_closest_then_first():
    assert QuantileGrid((0.1, 0.5, 0.9)).median_index() == 2
    assert QuantileGrid((0.1, 0.3, 0.8)).median_index() == 2  # 0.3 is closest
    # 0.4 and 0.6 tie; the earlier level wins
    assert QuantileGrid((0.4, 0.6)).median_index() == 1
