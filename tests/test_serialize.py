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
    save_fit,
)
from dafm.serialize import parse_floats, read_kv, write_kv, write_matrix, write_table


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def test_matrix_round_trip_awkward_values(tmp_path):
    M = np.array(
        [
            [math.pi, 0.1 + 0.2, -1.0 / 3.0],
            [1e-300, -1e300, 123456789.123456789],
        ]
    )
    path = tmp_path / "m.csv"
    write_matrix(path, M)
    np.testing.assert_array_equal(_read_matrix(path), M)
    # 1-d input is promoted to a single row
    write_matrix(path, np.array([1.0, 2.0]))
    assert _read_matrix(path).shape == (1, 2)


def test_write_table_formats_cells_by_type(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1 + 0.2, "a"), (np.int64(-7), np.float64(math.nan), "%g" % 0.95)]
    write_table(path, ["n", "x", "label"], rows)
    assert path.read_text() == (
        "n,x,label\n"
        "1,0.30000000000000004,a\n"
        "-7,nan,0.95\n"
    )
    write_table(path, None, [(2.5, math.pi)])
    assert path.read_text() == "2.5,3.1415926535897931\n"


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
    assert raw["flag"] == "true" and raw["off"] == "false"
    # comments and blank lines are skipped
    path.write_text("# a comment\n\nkey=value\n")
    assert read_kv(path) == {"key": "value"}
    path.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="expected key=value"):
        read_kv(path)


def test_fit_round_trip_is_bit_identical(tmp_path):
    panel, _ = gen_location_shift(12, 25, ErrorDist.gaussian(), seed=3)
    grid = QuantileGrid((0.25, 0.5, 0.75), (1.0, 2.0, 1.0))
    fit = fit_dafm(panel, grid, FitConfig(r=2, tol=1e-5, max_outer=40))
    d = tmp_path / "fit"
    save_fit(fit, d)
    F = _read_matrix(d / "F.csv")
    loadings = np.stack([_read_matrix(d / f"Lambda_{k}.csv") for k in (1, 2, 3)])
    np.testing.assert_array_equal(F, fit.F)
    np.testing.assert_array_equal(loadings, fit.loadings)
    meta = read_kv(d / "meta")
    assert parse_floats(meta["levels"]) == fit.grid.levels
    assert parse_floats(meta["weights"]) == fit.grid.weights
    assert parse_floats(meta["trace"]) == fit.objective_trace
    assert meta["converged"] == str(fit.converged).lower()
    # the normalization level is written as its 1-based index
    assert meta["k_star"] == str(fit.k_star)
    # saving the read-back fit reproduces the files byte for byte
    loaded = FactorFit(
        F=F, loadings=loadings,
        grid=QuantileGrid(parse_floats(meta["levels"]), parse_floats(meta["weights"])),
        objective_trace=parse_floats(meta["trace"]), converged=meta["converged"] == "true",
    )
    d2 = tmp_path / "fit2"
    save_fit(loaded, d2)
    for name in ["F.csv", "Lambda_1.csv", "Lambda_2.csv", "Lambda_3.csv"]:
        assert (d2 / name).read_bytes() == (d / name).read_bytes()


def test_fit_directory_contents(tmp_path):
    F = np.array([[1.0], [2.0], [-3.0]])
    lam = np.array([[[0.5], [1.5]]])
    # a hand-built fit has no normalization level: k_star is written empty
    fit = FactorFit(
        F=F, loadings=lam, grid=QuantileGrid((0.5,)),
        objective_trace=(2.0, 1.0), converged=False,
    )
    d = tmp_path / "f"
    save_fit(fit, d)
    assert sorted(p.name for p in d.iterdir()) == ["F.csv", "Lambda_1.csv", "meta"]
    np.testing.assert_array_equal(_read_matrix(d / "F.csv"), F)
    meta = read_kv(d / "meta")
    assert meta["converged"] == "false" and meta["k_star"] == ""
    assert parse_floats(meta["trace"]) == (2.0, 1.0)


def test_numpy_bools_are_written_lowercase(tmp_path):
    # a numpy bool, alone or in an array, is written like a Python bool
    path = tmp_path / "conf"
    write_kv(path, {"flag": np.bool_(True), "off": np.False_, "mask": np.array([True, False])})
    assert path.read_text() == "flag=true\noff=false\nmask=true,false\n"
    assert read_kv(path) == {"flag": "true", "off": "false", "mask": "true,false"}
