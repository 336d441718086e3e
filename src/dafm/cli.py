"""Command-line interface for simulation, fitting, and experiment runs.

Each command is declared once, in the ``_COMMANDS`` table: its runner, its
help line, and its options as (name, parser, default) in manifest order;
``build_parser`` and ``main`` read that table.  Every command resolves its
options as flags > config file > defaults, writes its outputs plus a
``manifest`` (the resolved configuration, library versions, and wall time)
into the output directory, and can be re-run bit-identically from that
manifest via ``--config``.  Exit codes: 0 on success, 2 for usage or
configuration errors (an unusable path included), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import NumericalError
from .estimator import FitConfig, _factor_method, fit_dafm, mean_pca
from .evalmetrics import adjusted_r2, relative_mse
from .forecast import ForecastTask, rolling_forecast
from .grids import QuantileGrid
from .kernels import SmoothConfig, build_kernel
from .panel import load_panel, save_panel
from .ranksel import select_rank_eigen, select_rank_ic
from .serialize import parse_floats, read_kv, save_fit, write_kv, write_matrix, write_table
from .simgen import DGPS, WEIGHT_SCHEMES, density_weights, parse_dist, weight_scheme
from .smooth import _check_index, factor_ci, fit_smoothed_dafm, loading_ci


class ConfigError(ValueError):
    """Invalid option value or combination; exits with code 2, as any ValueError."""


# --------------------------------------------------------------------------
# options and their resolution

_REQUIRED = object()


def _above(kind, floor, rule):
    """Parser for a finite ``kind`` value above ``floor``; ``_resolve``
    prefixes the flag name to its range error."""

    def parse(s):
        v = kind(s)
        if not (v > floor and math.isfinite(v)):
            raise ConfigError(f"must be {rule}, got {s}")
        return v

    return parse


_POS_INT = _above(int, 0, "a positive integer")
_NONNEG_INT = _above(int, -1, ">= 0")
_POS_FLOAT = _above(float, 0, "finite and positive")


def _dgp(name):
    if name not in DGPS:
        raise ConfigError(f"must be one of {sorted(DGPS)}, got {name!r}")
    return name


def _dist(spec):
    try:
        parse_dist(spec)
    except ValueError as exc:
        raise ConfigError(f"{spec!r}: {exc}") from None
    return spec


def _levels(s):
    vals = parse_floats(s)
    if not vals:
        raise ConfigError("must list at least one level")
    return vals


_COMMON = [("out", str, None), ("config", str, None)]
_GRID = [("levels", _levels, (0.1, 0.3, 0.5, 0.7, 0.9)), ("weights", str, "uniform")]
_FIT = [("tol", _POS_FLOAT, 1e-6), ("max-outer", _POS_INT, 100), ("init", str, "pca"),
        ("seed", int, 0)]


def _resolve(args, options):
    """Merge flags > config file > defaults into one plain dict.

    Each option's raw string comes from its flag, else the config file (an
    empty value there means unset), and goes through the option's parser.
    ``out`` alone never comes from the config file: a re-run from a manifest
    must not write into the run that wrote it.
    """
    config = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        config = read_kv(args.config)
    resolved = {"out": args.out if args.out is not None else os.environ.get("DAFM_OUT_DIR", ".")}
    for name, parse, default in options:
        if name in ("out", "config"):
            continue
        flag = getattr(args, name.replace("-", "_"))
        raw = flag if flag is not None else (config.get(name) or None)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required option --{name}")
            resolved[name] = default
            continue
        try:
            resolved[name] = parse(raw)
        except ConfigError as exc:
            raise ConfigError(f"--{name} {exc}") from None
        except ValueError:
            raise ConfigError(
                f"invalid value for --{name}: {raw!r}" if flag is not None
                else f"config key {name}={raw!r} is invalid"
            ) from None
    return resolved


def _write_manifest(outdir, command, resolved, t0):
    meta = dict(resolved)
    meta.update(
        command=command,
        package_version=__version__,
        python_version=sys.version.split()[0],
        numpy_version=np.__version__,
        scipy_version=__import__("scipy").__version__,
        wall_time_s="%.3f" % (time.perf_counter() - t0),
    )
    for key, val in list(meta.items()):
        if val is None:
            meta[key] = ""
    write_kv(os.path.join(outdir, "manifest"), meta)


def _build_grid(levels, weights_spec):
    grid = QuantileGrid(levels)
    spec = weights_spec.strip()
    if spec.startswith("density:"):
        return density_weights(parse_dist(spec[len("density:"):]), grid)
    if spec in WEIGHT_SCHEMES:
        return weight_scheme(grid, spec)
    try:
        weights = parse_floats(spec)
    except ValueError:
        raise ConfigError(
            f"--weights must be a scheme name, 'density:<dist>', or numbers; got {spec!r}"
        ) from None
    return grid.with_weights(weights)


def _fit_config(cfg, r, k_star=None):
    return FitConfig(
        r=r,
        tol=cfg["tol"],
        max_outer=cfg["max-outer"],
        init=cfg["init"],
        seed=cfg["seed"],
        k_star=k_star,
    )


def _load_panel_arg(path):
    # each runner makes the checks that need no panel before it calls this
    if not os.path.exists(path):
        raise ConfigError(f"panel file not found: {path}")
    return load_panel(path)


# --------------------------------------------------------------------------
# commands


def cmd_simulate(cfg):
    dist = parse_dist(cfg["dist"])
    outdir = cfg["out"]
    panel, truth = DGPS[cfg["dgp"]](cfg["n"], cfg["t"], dist, cfg["seed"])
    save_panel(panel, os.path.join(outdir, "panel.csv"))
    truth_dir = os.path.join(outdir, "truth")
    os.makedirs(truth_dir, exist_ok=True)
    write_matrix(os.path.join(truth_dir, "F0.csv"), truth.F0)
    write_matrix(os.path.join(truth_dir, "loadings0.csv"), truth.loadings0)
    write_kv(
        os.path.join(truth_dir, "meta"),
        {"dgp": truth.dgp, "dist": cfg["dist"], "seed": truth.seed,
         "n": cfg["n"], "t": cfg["t"], "representation_rank": truth.n_factors},
    )
    print(f"wrote {outdir}/panel.csv ({cfg['t']}x{cfg['n']}) and {truth_dir}/")


def cmd_fit(cfg):
    grid = _build_grid(cfg["levels"], cfg["weights"])
    fc = _fit_config(cfg, cfg["r"], cfg["k-star"])
    fit = fit_dafm(_load_panel_arg(cfg["panel"]), grid, fc)
    outdir = cfg["out"]
    save_fit(fit, os.path.join(outdir, "fit"))
    print(
        f"wrote {outdir}/fit: r={fit.r} K={len(grid)} objective={fit.objective:.6g} "
        f"converged={str(fit.converged).lower()}"
    )


def cmd_rank(cfg):
    if cfg["method"] not in ("ic", "eigen"):
        raise ConfigError(f"--method must be ic or eigen, got {cfg['method']!r}")
    # an option of the other rule would be recorded in the manifest but unused
    if cfg["method"] == "ic" and cfg["thresholds"] != "auto":
        raise ConfigError("--thresholds applies to --method eigen only")
    if cfg["method"] == "eigen" and cfg["penalty"] is not None:
        raise ConfigError("--penalty applies to --method ic only")
    thresholds = cfg["thresholds"]
    if thresholds != "auto":
        thresholds = parse_floats(thresholds)
    grid = _build_grid(cfg["levels"], cfg["weights"])
    fc = _fit_config(cfg, 1)
    panel = _load_panel_arg(cfg["panel"])
    path = os.path.join(cfg["out"], "rank.csv")
    if cfg["method"] == "ic":
        sel = select_rank_ic(panel, grid, s_max=cfg["smax"], penalty=cfg["penalty"], cfg=fc)
        write_table(path, ["l", "criterion"], enumerate(sel.criteria, start=1))
    else:
        sel = select_rank_eigen(panel, grid, s_max=cfg["smax"], thresholds=thresholds, cfg=fc)
        write_table(path, ["k", "i", "eigenvalue", "threshold"], [
            (k + 1, i + 1, eig, sel.thresholds[k])
            for k, row in enumerate(sel.criteria) for i, eig in enumerate(row)
        ])
    print(f"wrote {path}: method={sel.method} r_hat={sel.r_hat}")


def cmd_infer(cfg):
    if (cfg["t"] is None) == (cfg["loading"] is None):
        raise ConfigError("pass exactly one of --t (factor CI) or --loading K,I")
    if not 0.0 < cfg["level"] < 1.0:
        raise ConfigError(f"--level must be in (0, 1), got {cfg['level']}")
    grid = _build_grid(cfg["levels"], cfg["weights"])
    if cfg["loading"] is not None:
        try:
            k, i = (int(v) for v in cfg["loading"].split(","))
        except ValueError:
            raise ConfigError("--loading expects K,I (1-based integers)") from None
        _check_index("level", k, len(grid))
    fc = _fit_config(cfg, cfg["r"])
    kernel = build_kernel(cfg["kernel-order"])
    panel = _load_panel_arg(cfg["panel"])
    T, N = panel.values.shape
    if cfg["bandwidth"] is not None:
        scfg = SmoothConfig(kernel=kernel, h=cfg["bandwidth"])
    else:
        scfg = SmoothConfig.for_sample(T, kernel=kernel)
    # every index is checked before the fit, which takes the time
    if cfg["t"] is not None:
        if cfg["t"] > T:
            raise ConfigError(f"--t {cfg['t']} exceeds panel length {T}")
    else:
        _check_index("series", i, N)
    fit = fit_smoothed_dafm(panel, grid, fc, scfg)
    if cfg["t"] is not None:
        ci = factor_ci(fit, panel, scfg, cfg["t"], level=cfg["level"])
    else:
        ci = loading_ci(fit, panel, scfg, k, i, level=cfg["level"])
    path = os.path.join(cfg["out"], "ci.csv")
    level = "%g" % ci.level
    write_table(path, ["index", "estimate", "lower", "upper", "level"], [
        (j, est, lo, hi, level)
        for j, (est, lo, hi) in enumerate(zip(ci.estimate, ci.lower, ci.upper), start=1)
    ])
    print(f"wrote {path}: {ci.estimate.size} interval(s) at level {ci.level}")


def _target_column(panel, spec):
    if spec in panel.series_ids:
        return panel.series_ids.index(spec)
    try:
        idx = int(spec)
    except ValueError:
        raise ConfigError(f"--target {spec!r} is not a series id or 1-based index") from None
    if not 1 <= idx <= len(panel.series_ids):
        raise ConfigError(f"--target index {idx} outside 1..{len(panel.series_ids)}")
    return idx - 1


def cmd_forecast(cfg):
    grid = _build_grid(cfg["levels"], cfg["weights"])
    fc = None
    if cfg["method"] != "ar":
        if cfg["r"] is None:
            raise ConfigError(f"--r is required for method {cfg['method']!r}")
        fc = _fit_config(cfg, cfg["r"])
    panel = _load_panel_arg(cfg["panel"])
    task = ForecastTask(
        target=panel.values[:, _target_column(panel, cfg["target"])],
        horizon=cfg["horizon"],
        window=cfg["window"],
        max_lag=cfg["max-lag"],
        method=cfg["method"],
    )
    forecasts, actuals = rolling_forecast(panel, None, task, grid=grid, cfg=fc)
    outdir = cfg["out"]
    W = task.window
    path = os.path.join(outdir, "forecasts.csv")
    write_table(path, ["origin", "horizon", "forecast", "actual"], [
        (origin, task.horizon, f, a)
        for origin, f, a in zip(panel.time_labels[W - 1:], forecasts, actuals)
    ])
    # benchmark for the summary: the same rolling scheme without factors
    if task.method != "ar":
        base, _ = rolling_forecast(panel, None, dataclasses.replace(task, method="ar"))
        ok = ~(np.isnan(forecasts) | np.isnan(base))
        rel = (
            relative_mse(forecasts[ok], actuals[ok], base[ok]) if ok.any() else float("nan")
        )
    else:
        rel = 1.0
    spath = os.path.join(outdir, "summary.csv")
    write_table(spath, ["method", "n_forecasts", "n_missing", "rel_mse_vs_ar"],
                [(task.method, forecasts.size, int(np.isnan(forecasts).sum()), rel)])
    print(f"wrote {path} and {spath}: rel MSE vs ar = {rel:.4g}")


def _parse_sizes(spec):
    sizes = []
    for part in spec.split(","):
        try:
            n, t = part.lower().split("x")
            size = (int(n), int(t))
        except ValueError:
            raise ConfigError(f"--sizes expects NxT[,NxT...], got {spec!r}") from None
        if size in sizes:
            raise ConfigError(f"--sizes repeats {part!r}")
        sizes.append(size)
    return sizes


def _eval_methods(spec):
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must list at least one method")
    parsed = []
    for m in methods:
        try:
            method = _factor_method(m)
        except ValueError as exc:
            raise ConfigError(f"--methods: {exc}") from None
        if method in parsed:
            raise ConfigError(f"--methods repeats {m!r}")
        parsed.append(method)
    return methods


def _eval_one_rep(gen, dist, N, T, seed, methods, grid, r_over):
    """Adjusted R² of each true factor under each method, one replication."""
    panel, truth = gen(N, T, dist, seed=seed)
    r = truth.n_factors if r_over is None else r_over
    rows = []
    for m in methods:
        name, fit_grid = _factor_method(m, grid)
        if name == "pca":
            F_hat, _ = mean_pca(panel, r)
        else:
            F_hat = fit_dafm(panel, fit_grid, FitConfig(r=r)).F
        r2 = [adjusted_r2(truth.F0[:, j], F_hat) for j in range(truth.F0.shape[1])]
        rows.append((m, r2))
    return rows


def _r2_header(n_factors):
    return ["method", "size"] + [f"f{j + 1}" for j in range(n_factors)]


def cmd_eval_sim(cfg):
    gen = DGPS[cfg["dgp"]]
    dist = parse_dist(cfg["dist"])
    sizes = _parse_sizes(cfg["sizes"])
    methods = _eval_methods(cfg["methods"])
    grid = _build_grid(cfg["levels"], cfg["weights"])
    outdir = cfg["out"]
    rep_dir = os.path.join(outdir, "reps")
    os.makedirs(rep_dir, exist_ok=True)

    results = {}  # (size, method) -> list over reps of per-factor r2
    for N, T in sizes:
        for rep in range(cfg["reps"]):
            rows = _eval_one_rep(gen, dist, N, T, cfg["seed"] + rep, methods, grid, cfg["r"])
            write_table(os.path.join(rep_dir, f"rep_{N}x{T}_{rep}.csv"),
                        _r2_header(len(rows[0][1])),
                        [(m, f"{N}x{T}", *r2) for m, r2 in rows])
            for m, r2 in rows:
                results.setdefault(((N, T), m), []).append(r2)

    path = os.path.join(outdir, "table.csv")
    n_fac = len(next(iter(results.values()))[0])
    write_table(path, _r2_header(n_fac), [
        (m, f"{N}x{T}", *np.mean(results[((N, T), m)], axis=0))
        for N, T in sizes for m in methods
    ])
    print(f"wrote {path}: {len(sizes)} size(s) x {len(methods)} method(s) x {cfg['reps']} rep(s)")


# --------------------------------------------------------------------------
# the command table and argument parsing

_COMMANDS = {
    "simulate": (cmd_simulate, "generate a synthetic panel plus its ground truth", _COMMON + [
        ("dgp", _dgp, _REQUIRED), ("dist", _dist, "gaussian"), ("n", _POS_INT, _REQUIRED),
        ("t", _POS_INT, _REQUIRED), ("seed", int, 0)]),
    "fit": (cmd_fit, "estimate a composite-quantile factor model", _COMMON + _GRID + [
        ("panel", str, _REQUIRED), ("r", _POS_INT, _REQUIRED), ("k-star", _POS_INT, None),
    ] + _FIT),
    "rank": (cmd_rank, "select the number of factors", _COMMON + _GRID + [
        ("panel", str, _REQUIRED), ("method", str, "eigen"), ("smax", _POS_INT, None),
        ("penalty", _POS_FLOAT, None), ("thresholds", str, "auto"),
    ] + _FIT),
    "infer": (cmd_infer, "smoothed fit and plug-in confidence intervals", _COMMON + _GRID + [
        ("panel", str, _REQUIRED), ("r", _POS_INT, _REQUIRED), ("t", _POS_INT, None),
        ("loading", str, None), ("level", _POS_FLOAT, 0.95), ("kernel-order", _POS_INT, 8),
        ("bandwidth", _POS_FLOAT, None),
    ] + _FIT),
    "forecast": (cmd_forecast, "rolling factor-augmented AR forecasts", _COMMON + _GRID + [
        ("panel", str, _REQUIRED), ("target", str, _REQUIRED), ("horizon", _POS_INT, 1),
        ("window", _POS_INT, 120), ("max-lag", _NONNEG_INT, 4), ("method", str, "ar+dafm"),
        ("r", _POS_INT, None),
    ] + _FIT),
    "eval-sim": (cmd_eval_sim, "replicated simulation study with per-factor adjusted R²",
                 _COMMON + _GRID + [
                     ("dgp", _dgp, _REQUIRED), ("dist", _dist, "gaussian"),
                     ("sizes", str, "50x50"), ("reps", _POS_INT, 10), ("methods", str, "dafm"),
                     ("r", _POS_INT, None), ("seed", int, 0)]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dafm",
        description="Composite-quantile factor models for high-dimensional panels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name, _, _ in options:
            sub.add_argument(
                "--" + name, help="key=value file supplying defaults" if name == "config" else None
            )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    runner, _, options = _COMMANDS[command]
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args, options)
        os.makedirs(cfg["out"], exist_ok=True)
        runner(cfg)
        _write_manifest(cfg["out"], command, cfg, t0)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it is caught before the usage errors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # OSError: a path the CLI cannot use, such as a directory given as --panel
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
