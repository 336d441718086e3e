"""The package's public names: every exported name resolves, and the
smoothed-loss, kernel, plug-in and fit-loading wrappers that had no caller,
the second spellings of a single-level fit, a shape and a bandwidth, and the
normalization report, stay gone."""

import importlib
import pkgutil

import pytest

import dafm
from dafm import estimator, losses, serialize, smooth
from dafm.estimator import FactorFit
from dafm.grids import QuantileGrid
from dafm.kernels import SmoothConfig, build_kernel
from dafm.panel import Panel


def test_every_exported_name_resolves():
    missing = [name for name in dafm.__all__ if not hasattr(dafm, name)]
    for info in pkgutil.iter_modules(dafm.__path__):
        module = importlib.import_module(f"dafm.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("owner, names", [
    (dafm, ("plug_in_psi", "plug_in_phi", "load_fit", "fit_qfm", "NormalizationReport")),
    (losses, ("smoothed_check_loss", "smoothed_check_grad", "smoothed_check_curv",
              "smoothed_composite_objective", "_sgrad_vals")),
    (smooth, ("plug_in_psi", "plug_in_phi", "AsymptoticCov")),
    (build_kernel(8), ("deriv", "deriv_v", "conforming", "_key")),
    (FactorFit, ("common_component", "n_periods", "n_series", "normalization")),
    (serialize, ("load_fit", "read_matrix", "parse_bool")),
    (SmoothConfig.for_sample(50), ("bandwidth_exponent", "bandwidth")),
    (estimator, ("fit_qfm", "NormalizationReport")),
    (QuantileGrid((0.5,)), ("K",)),
    (Panel([[1.0]]), ("shape", "n_periods", "n_series")),
], ids=["dafm", "losses", "smooth", "Kernel", "FactorFit", "serialize", "SmoothConfig",
        "estimator", "QuantileGrid", "Panel"])
def test_deleted_wrappers_stay_deleted(owner, names):
    exported = getattr(owner, "__all__", ())
    for name in names:
        assert not hasattr(owner, name) and name not in exported, name


def test_for_sample_takes_no_bandwidth_exponent():
    with pytest.raises(TypeError):
        SmoothConfig.for_sample(100, bandwidth_exponent=0.2)
