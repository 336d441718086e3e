import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dafm.cli
from dafm import Panel, save_panel
from dafm.serialize import read_kv
from dafm.simgen import _FAMILIES, DGPS


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


def test_unusable_paths_exit_2(sim_dir, tmp_path, capsys):
    # a path that exists but is the wrong kind is a usage error, not a traceback
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    fit = ["fit", "--r", "1", "--levels", "0.5"]
    for argv, message in [
        (fit + ["--panel", str(sim_dir / "panel.csv"), "--out", str(a_file / "x")],
         "Not a directory"),
        (fit + ["--panel", str(tmp_path), "--out", str(tmp_path / "o")], "Is a directory"),
        (["fit", "--config", str(tmp_path), "--out", str(tmp_path / "o")], "Is a directory"),
    ]:
        assert dafm.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
    for argv, message in [
        (fit + ["--panel", str(tmp_path / "missing.csv")], "panel file not found"),
        (["fit", "--config", str(tmp_path / "missing")], "config file not found"),
    ]:
        assert dafm.cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}: ")


@pytest.mark.parametrize("weights, message", [
    ("1,2", "weights length 2 != levels length 3"),
    ("1,0,1", "weights must be positive: (1.0, 0.0, 1.0)"),
    ("1,a,1", "--weights must be a scheme name, 'density:<dist>', or numbers; got '1,a,1'"),
])
def test_weights_errors_say_what_is_wrong(sim_dir, tmp_path, capsys, weights, message):
    argv = ["fit", "--panel", str(sim_dir / "panel.csv"), "--r", "1",
            "--levels", "0.25,0.5,0.75", "--weights", weights, "--out", str(tmp_path)]
    assert dafm.cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--dgp", "location-shift", "--dist", "t:5", "--n", "12", "--t", "30",
                  "--seed", "4"]),
    ("fit", ["--panel", "p.csv", "--r", "2", "--levels", "0.25,0.5,0.75", "--weights",
             "low2x", "--k-star", "2", "--tol", "1e-5", "--max-outer", "7", "--init",
             "random-orthonormal", "--seed", "3"]),
    ("fit-qfm", ["--panel", "p.csv", "--tau", "0.3", "--r", "1", "--tol", "2.5e-7"]),
    ("rank", ["--panel", "p.csv", "--method", "ic", "--smax", "4", "--penalty", "0.75",
              "--thresholds", "0.1,0.2", "--levels", "0.5"]),
    ("infer", ["--panel", "p.csv", "--r", "2", "--loading", "1,3", "--level", "0.9",
               "--kernel-order", "4", "--bandwidth", "0.35"]),
    ("forecast", ["--panel", "p.csv", "--target", "2", "--horizon", "2", "--window", "30",
                  "--max-lag", "0", "--method", "ar"]),
    ("eval-sim", ["--table", "2", "--sizes", "10x20,20x20", "--reps", "3", "--methods",
                  "dafm,qfm:0.5", "--r", "1", "--levels", "0.2,0.5,0.8", "--weights",
                  "1,2,1", "--seed", "5"]),
])
def test_every_manifest_reruns_to_the_same_options(tmp_path, monkeypatch, command, flags):
    # the runner is replaced by a recorder: this checks option resolution only
    seen = []
    _, help_text, options = dafm.cli._COMMANDS[command]
    monkeypatch.setitem(dafm.cli._COMMANDS, command, (seen.append, help_text, options))
    out, out_again = str(tmp_path / "out"), str(tmp_path / "again")
    assert dafm.cli.main([command, *flags, "--out", out]) == 0
    assert dafm.cli.main([command, "--config", os.path.join(out, "manifest"),
                          "--out", out_again]) == 0
    first, again = seen
    assert list(first) == [name for name, _, _ in options if name != "config"]
    assert again == dict(first, out=out_again)


def test_manifest_rerun_never_writes_into_the_first_run(sim_dir, tmp_path, monkeypatch):
    first = tmp_path / "first"
    argv = ["fit", "--panel", str(sim_dir / "panel.csv"), "--r", "2", "--levels", "0.5"]
    assert dafm.cli.main(argv + ["--out", str(first)]) == 0
    before = {name: (first / name).read_bytes() for name in ["fit/F.csv", "manifest"]}
    # without --out the re-run writes to $DAFM_OUT_DIR, else the working directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.delenv("DAFM_OUT_DIR", raising=False)
    assert dafm.cli.main(["fit", "--config", str(first / "manifest")]) == 0
    assert {name: (first / name).read_bytes() for name in before} == before
    assert (elsewhere / "fit" / "F.csv").read_bytes() == before["fit/F.csv"]


@pytest.mark.parametrize("argv, message", [
    (["rank", "--method", "ic", "--smax", "3", "--penalty", "nan"],
     "--penalty must be finite and positive, got nan"),
    (["fit", "--r", "2", "--tol", "inf"], "--tol must be finite and positive, got inf"),
    (["infer", "--r", "2", "--t", "3", "--bandwidth", "inf"],
     "--bandwidth must be finite and positive, got inf"),
])
def test_non_finite_numbers_are_usage_errors(sim_dir, tmp_path, capsys, argv, message):
    argv = argv + ["--panel", str(sim_dir / "panel.csv"), "--out", str(tmp_path)]
    assert dafm.cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_command_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"^\| `([^`]+)` +\|", section, flags=re.M)
    assert commands == list(dafm.cli._COMMANDS)


def test_readme_lists_the_dgps_and_dists():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Simulated panels", 1)[1].split("\n## ", 1)[0]
    first_cells = re.findall(r"^\| (.+?) +\|", section, flags=re.M)
    split = first_cells.index("`--dist`")
    dgps = [cell.strip("`") for cell in first_cells[1:split]]
    forms = [cell.split("`")[-2] for cell in first_cells[split + 1:]]  # a row's last form
    assert sorted(dgps) == sorted(DGPS)
    assert forms == [f"{kind}:{','.join(names)}" for kind, (names, *_) in _FAMILIES.items()]


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


def test_infer_checks_its_indices_before_the_fit(sim_dir, tmp_path, monkeypatch, capsys):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_smoothed_dafm was called")

    monkeypatch.setattr(dafm.cli, "fit_smoothed_dafm", no_fit)
    argv = ["infer", "--panel", str(sim_dir / "panel.csv"), "--r", "2",
            "--levels", "0.25,0.5,0.75", "--out", str(tmp_path)]
    for flags, message in [
        (["--t", "999"], "--t 999 exceeds panel length 40"),
        (["--loading", "2"], "--loading expects K,I (1-based integers)"),
        (["--loading", "1,x"], "--loading expects K,I (1-based integers)"),
        (["--loading", "9,1"], "level index must be in 1..3, got 9"),
        (["--loading", "0,1"], "level index must be in 1..3, got 0"),
        (["--loading", "1,16"], "series index must be in 1..15, got 16"),
    ]:
        assert dafm.cli.main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
