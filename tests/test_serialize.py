import math

import numpy as np
import pytest

from dafm import (
    ErrorDist,
    FactorFit,
    FitConfig,
    QuantileGrid,
    fit_dafm,
    gen_location_shift,
    load_fit,
    save_fit,
)
from dafm.serialize import (
    parse_bool,
    parse_floats,
    read_kv,
    read_matrix,
    write_kv,
    write_matrix,
)


def test_matrix_round_trip_awkward_values(tmp_path):
    M = np.array(
        [
            [math.pi, 0.1 + 0.2, -1.0 / 3.0],
            [1e-300, -1e300, 123456789.123456789],
        ]
    )
    path = tmp_path / "m.csv"
    write_matrix(path, M)
    np.testing.assert_array_equal(read_matrix(path), M)
    # 1-d input is promoted to a single row
    write_matrix(path, np.array([1.0, 2.0]))
    assert read_matrix(path).shape == (1, 2)


def test_matrix_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix(p)


def test_kv_format(tmp_path):
    path = tmp_path / "conf"
    write_kv(
        path,
        {
            "n": 5,
            "rate": 0.1,
            "flag": True,
            "off": False,
            "levels": (0.25, 0.5, 0.75),
            "name": "dafm",
            "empty": "",
        },
    )
    text = path.read_text()
    assert "flag=true" in text and "off=false" in text
    raw = read_kv(path)
    assert raw["n"] == "5"
    assert parse_floats(raw["levels"]) == (0.25, 0.5, 0.75)
    assert parse_floats(raw["empty"]) == ()
    assert parse_bool(raw["flag"]) is True
    assert parse_bool(raw["off"]) is False
    # comments and blank lines are skipped
    path.write_text("# a comment\n\nkey=value\n")
    assert read_kv(path) == {"key": "value"}
    path.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="expected key=value"):
        read_kv(path)
    with pytest.raises(ValueError, match="not a boolean"):
        parse_bool("maybe")


def test_fit_round_trip_is_bit_identical(tmp_path):
    panel, _ = gen_location_shift(12, 25, ErrorDist.gaussian(), seed=3)
    grid = QuantileGrid((0.25, 0.5, 0.75), (1.0, 2.0, 1.0))
    fit = fit_dafm(panel, grid, FitConfig(r=2, tol=1e-5, max_outer=40))
    d = tmp_path / "fit"
    save_fit(fit, d)
    loaded = load_fit(d)
    np.testing.assert_array_equal(loaded.F, fit.F)
    np.testing.assert_array_equal(loaded.loadings, fit.loadings)
    assert loaded.grid.levels == fit.grid.levels
    assert loaded.grid.weights == fit.grid.weights
    assert loaded.objective_trace == fit.objective_trace
    assert loaded.converged == fit.converged
    # the derived normalization report is not serialized, but its k_star is
    # still visible in the meta file
    assert loaded.normalization is None
    meta = read_kv(d / "meta")
    assert meta["k_star"] == str(fit.normalization.k_star)
    # saving the loaded fit reproduces the files byte for byte
    d2 = tmp_path / "fit2"
    save_fit(loaded, d2)
    for name in ["F.csv", "Lambda_1.csv", "Lambda_2.csv", "Lambda_3.csv"]:
        assert (d2 / name).read_bytes() == (d / name).read_bytes()


def test_fit_directory_contents(tmp_path):
    F = np.array([[1.0], [2.0], [-3.0]])
    lam = np.array([[[0.5], [1.5]]])
    # a hand-built fit exercises save_fit without a normalization report
    fit = FactorFit(
        F=F, loadings=lam, grid=QuantileGrid((0.5,)),
        objective_trace=(2.0, 1.0), converged=False,
    )
    d = tmp_path / "f"
    save_fit(fit, d)
    assert sorted(p.name for p in d.iterdir()) == ["F.csv", "Lambda_1.csv", "meta"]
    loaded = load_fit(d)
    np.testing.assert_array_equal(loaded.F, F)
    assert loaded.converged is False
    assert loaded.objective_trace == (2.0, 1.0)


def test_numpy_bools_are_written_lowercase(tmp_path):
    # a numpy bool, alone or in an array, is written like a Python bool
    path = tmp_path / "conf"
    write_kv(path, {"flag": np.bool_(True), "off": np.False_, "mask": np.array([True, False])})
    assert path.read_text() == "flag=true\noff=false\nmask=true,false\n"
    raw = read_kv(path)
    assert parse_bool(raw["flag"]) is True and parse_bool(raw["off"]) is False
    assert [parse_bool(v) for v in raw["mask"].split(",")] == [True, False]
