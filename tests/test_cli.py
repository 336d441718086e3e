import os
import subprocess
import sys

import numpy as np
import pytest

import dafm.cli
from dafm import Panel, save_panel
from dafm.serialize import read_kv


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dafm.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    res = run_cli(
        "simulate", "--dgp", "location-shift", "--dist", "gaussian",
        "--n", 15, "--t", 40, "--seed", 1, "--out", d,
    )
    assert res.returncode == 0, res.stderr
    return d


def test_simulate_outputs(sim_dir):
    assert (sim_dir / "panel.csv").exists()
    assert (sim_dir / "truth" / "F0.csv").exists()
    assert (sim_dir / "truth" / "loadings0.csv").exists()
    manifest = read_kv(sim_dir / "manifest")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == "1"
    assert "package_version" in manifest and "wall_time_s" in manifest


def test_fit_median_equals_qfm(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    res = run_cli(
        "fit", "--panel", sim_dir / "panel.csv", "--r", 2,
        "--levels", "0.5", "--out", a,
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "fit-qfm", "--panel", sim_dir / "panel.csv", "--r", 2,
        "--tau", "0.5", "--out", b,
    )
    assert res.returncode == 0, res.stderr
    for name in ["fit/F.csv", "fit/Lambda_1.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_rerun_is_bit_identical(sim_dir, tmp_path):
    first = tmp_path / "first"
    res = run_cli(
        "fit", "--panel", sim_dir / "panel.csv", "--r", 2,
        "--levels", "0.25,0.5,0.75", "--weights", "low2x",
        "--tol", "1e-5", "--out", first,
    )
    assert res.returncode == 0, res.stderr
    again = tmp_path / "again"
    res = run_cli(
        "fit", "--config", first / "manifest", "--out", again,
    )
    assert res.returncode == 0, res.stderr
    for name in ["fit/F.csv", "fit/Lambda_1.csv", "fit/Lambda_2.csv",
                 "fit/Lambda_3.csv", "fit/meta"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()
    m = read_kv(again / "manifest")
    assert m["levels"] == "0.25,0.5,0.75"
    assert m["weights"] == "low2x"


def test_config_errors_exit_2(sim_dir, tmp_path):
    res = run_cli("fit", "--panel", sim_dir / "panel.csv", "--r", 0,
                  "--out", tmp_path)
    assert res.returncode == 2
    assert "error:" in res.stderr
    res = run_cli("rank", "--panel", sim_dir / "panel.csv", "--method", "bad",
                  "--out", tmp_path)
    assert res.returncode == 2
    res = run_cli("fit", "--panel", tmp_path / "missing.csv", "--r", 1,
                  "--out", tmp_path)
    assert res.returncode == 2
    # option values the library validates (FitConfig, QuantileGrid)
    res = run_cli("fit", "--panel", sim_dir / "panel.csv", "--r", 1, "--init", "bogus",
                  "--out", tmp_path)
    assert res.returncode == 2 and "init must be" in res.stderr
    res = run_cli("fit-qfm", "--panel", sim_dir / "panel.csv", "--r", 1, "--tau", 1.5,
                  "--out", tmp_path)
    assert res.returncode == 2 and "levels must lie strictly inside (0, 1)" in res.stderr


def test_numerical_failure_exits_3(tmp_path):
    # a constant panel makes every fitted factor row identical, so the
    # normalization's rank check fails
    save_panel(Panel(np.full((20, 8), 3.0)), tmp_path / "const.csv")
    res = run_cli(
        "fit", "--panel", tmp_path / "const.csv", "--r", 2,
        "--levels", "0.5", "--init", "random-orthonormal",
        "--out", tmp_path / "out",
    )
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_linalg_failure_exits_3(sim_dir, tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError; it is still a numerical failure
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(dafm.cli, "fit_dafm", singular)
    argv = ["fit", "--panel", str(sim_dir / "panel.csv"), "--r", "2",
            "--levels", "0.5", "--out", str(tmp_path / "out")]
    assert dafm.cli.main(argv) == 3
    assert "numerical failure: Singular matrix" in capsys.readouterr().err


def test_out_dir_env_default(sim_dir, tmp_path):
    target = tmp_path / "via_env"
    res = run_cli(
        "rank", "--panel", sim_dir / "panel.csv", "--method", "eigen",
        "--smax", 3, "--levels", "0.5",
        env_extra={"DAFM_OUT_DIR": str(target)},
    )
    assert res.returncode == 0, res.stderr
    assert (target / "rank.csv").exists()
    header = (target / "rank.csv").read_text().splitlines()[0]
    assert header == "k,i,eigenvalue,threshold"


def test_rank_ic_output(sim_dir, tmp_path):
    res = run_cli(
        "rank", "--panel", sim_dir / "panel.csv", "--method", "ic",
        "--smax", 3, "--levels", "0.25,0.5,0.75", "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert lines[0] == "l,criterion"
    assert len(lines) == 4
    assert "r_hat=" in res.stdout


def test_infer_output(sim_dir, tmp_path):
    res = run_cli(
        "infer", "--panel", sim_dir / "panel.csv", "--r", 2,
        "--levels", "0.25,0.5,0.75", "--t", 3, "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "ci.csv").read_text().splitlines()
    assert lines[0] == "index,estimate,lower,upper,level"
    assert len(lines) == 3  # r = 2 rows
    for line in lines[1:]:
        _, est, lo, hi, level = line.split(",")
        assert float(lo) <= float(est) <= float(hi)
        assert float(level) == 0.95
    # exactly one of --t / --loading must be given
    res = run_cli(
        "infer", "--panel", sim_dir / "panel.csv", "--r", 2,
        "--levels", "0.5", "--out", tmp_path,
    )
    assert res.returncode == 2


def test_forecast_cli(sim_dir, tmp_path):
    res = run_cli(
        "forecast", "--panel", sim_dir / "panel.csv", "--target", 1,
        "--horizon", 1, "--window", 25, "--max-lag", 1, "--method", "ar",
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "forecasts.csv").read_text().splitlines()
    assert lines[0] == "origin,horizon,forecast,actual"
    assert len(lines) == 1 + (40 - 25 - 1 + 1)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,n_forecasts,n_missing,rel_mse_vs_ar"
    method, n_fc, n_miss, rel = summary[1].split(",")
    assert method == "ar" and int(n_fc) == 15 and int(n_miss) == 0


def test_eval_sim_jobs_deterministic(tmp_path):
    # eval-sim once had a --jobs option; a manifest that still holds jobs=2
    # re-runs through --config, and the same seed gives the same bytes
    a, b = tmp_path / "a", tmp_path / "b"
    res = run_cli(
        "eval-sim", "--table", 1, "--dist", "gaussian", "--sizes", "20x20",
        "--reps", 2, "--methods", "dafm,pca", "--levels", "0.25,0.5,0.75",
        "--seed", 3, "--out", a,
    )
    assert res.returncode == 0, res.stderr
    old_manifest = tmp_path / "old_manifest"
    old_manifest.write_text((a / "manifest").read_text() + "jobs=2\n")
    res = run_cli("eval-sim", "--config", old_manifest, "--out", b)
    assert res.returncode == 0, res.stderr
    assert "jobs" not in read_kv(b / "manifest")
    reps = sorted(p.name for p in (a / "reps").iterdir())
    assert reps == ["rep_20x20_0.csv", "rep_20x20_1.csv"]
    assert sorted(p.name for p in (b / "reps").iterdir()) == reps
    for name in ["table.csv"] + [f"reps/{r}" for r in reps]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_option_errors_name_their_source(sim_dir, tmp_path, capsys):
    argv = ["fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(tmp_path)]
    assert dafm.cli.main(argv + ["--r", "two"]) == 2
    assert "invalid value for --r: 'two'" in capsys.readouterr().err
    config = tmp_path / "conf"
    config.write_text("r=two\n")
    assert dafm.cli.main(argv + ["--config", str(config)]) == 2
    assert "config key r='two' is invalid" in capsys.readouterr().err
    # a flag overrides the config file, and an empty config value means unset:
    # neither r=two nor tol= is parsed, and the error is the later --max-outer
    config.write_text("r=two\ntol=\n")
    assert dafm.cli.main(argv + ["--config", str(config), "--r", "2", "--max-outer", "0"]) == 2
    assert "--max-outer must be a positive integer, got 0" in capsys.readouterr().err


def test_import_does_not_load_scipy_special():
    code = "import sys, dafm; assert 'scipy.special' not in sys.modules, 'loaded'"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
