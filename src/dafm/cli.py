"""Command-line interface for simulation, fitting, and experiment runs.

Every command resolves its options as flags > config file > defaults, writes
its outputs plus a ``manifest`` (the resolved configuration, library
versions, and wall time) into the output directory, and can be re-run
bit-identically from that manifest via ``--config``.  Exit codes: 0 on
success, 2 for usage or configuration errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import NumericalError
from .estimator import FitConfig, fit_dafm, fit_qfm, mean_pca
from .evalmetrics import adjusted_r2, relative_mse
from .forecast import ForecastTask, rolling_forecast
from .grids import QuantileGrid
from .kernels import SmoothConfig, build_kernel
from .panel import load_panel, save_panel
from .ranksel import select_rank_eigen, select_rank_ic
from .serialize import parse_floats, read_kv, save_fit, write_kv, write_matrix, write_table
from .simgen import (
    density_weights,
    gen_location_scale_shift,
    gen_location_shift,
    parse_dist,
    weight_scheme,
)
from .smooth import factor_ci, loading_ci, fit_smoothed_dafm


class ConfigError(Exception):
    """Invalid option value or combination; exits with code 2."""


# --------------------------------------------------------------------------
# option schema and resolution

_REQUIRED = object()


def _positive_int(name):
    def parse(s):
        v = int(s)
        if v < 1:
            raise ConfigError(f"--{name} must be a positive integer, got {s}")
        return v

    return parse


def _nonneg_int(name):
    def parse(s):
        v = int(s)
        if v < 0:
            raise ConfigError(f"--{name} must be >= 0, got {s}")
        return v

    return parse


def _positive_float(name):
    def parse(s):
        v = float(s)
        if v <= 0:
            raise ConfigError(f"--{name} must be positive, got {s}")
        return v

    return parse


def _levels(s):
    vals = parse_floats(s)
    if not vals:
        raise ConfigError("--levels must list at least one level")
    return vals


_FIT_OPTS = [
    ("tol", _positive_float("tol"), 1e-6),
    ("max-outer", _positive_int("max-outer"), 100),
    ("init", str, "pca"),
    ("seed", int, 0),
]


def _schema(command):
    common = [("out", str, None), ("config", str, None)]
    grids = [("levels", _levels, (0.1, 0.3, 0.5, 0.7, 0.9)), ("weights", str, "uniform")]
    if command == "simulate":
        return common + [
            ("dgp", str, _REQUIRED),
            ("dist", str, "gaussian"),
            ("n", _positive_int("n"), _REQUIRED),
            ("t", _positive_int("t"), _REQUIRED),
            ("seed", int, 0),
        ]
    if command == "fit":
        return common + grids + [("panel", str, _REQUIRED), ("r", _positive_int("r"), _REQUIRED),
                                 ("k-star", _positive_int("k-star"), None)] + _FIT_OPTS
    if command == "fit-qfm":
        return common + [("panel", str, _REQUIRED), ("tau", float, 0.5),
                         ("r", _positive_int("r"), _REQUIRED)] + _FIT_OPTS
    if command == "rank":
        return common + grids + [
            ("panel", str, _REQUIRED),
            ("method", str, "eigen"),
            ("smax", _positive_int("smax"), None),
            ("penalty", _positive_float("penalty"), None),
            ("thresholds", str, "auto"),
        ] + _FIT_OPTS
    if command == "infer":
        return common + grids + [
            ("panel", str, _REQUIRED),
            ("r", _positive_int("r"), _REQUIRED),
            ("t", _positive_int("t"), None),
            ("loading", str, None),
            ("level", _positive_float("level"), 0.95),
            ("kernel-order", _positive_int("kernel-order"), 8),
            ("bandwidth", _positive_float("bandwidth"), None),
        ] + _FIT_OPTS
    if command == "forecast":
        return common + grids + [
            ("panel", str, _REQUIRED),
            ("target", str, _REQUIRED),
            ("horizon", _positive_int("horizon"), 1),
            ("window", _positive_int("window"), 120),
            ("max-lag", _nonneg_int("max-lag"), 4),
            ("method", str, "ar+dafm"),
            ("r", _positive_int("r"), None),
        ] + _FIT_OPTS
    if command == "eval-sim":
        return common + grids + [
            ("table", _positive_int("table"), None),
            ("dgp", str, None),
            ("dist", str, "gaussian"),
            ("sizes", str, "50x50"),
            ("reps", _positive_int("reps"), 10),
            ("methods", str, "dafm"),
            ("r", _positive_int("r"), None),
            ("seed", int, 0),
        ]
    raise AssertionError(command)


def _resolve(args, command):
    """Merge flags > config file > defaults into one plain dict.

    Each option's raw string comes from its flag, else the config file (an
    empty value there means unset), and goes through the schema's parser.
    """
    config = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        config = read_kv(args.config)
    resolved = {}
    for name, parse, default in _schema(command):
        if name == "config":
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
        except ValueError:
            raise ConfigError(
                f"invalid value for --{name}: {raw!r}" if flag is not None
                else f"config key {name}={raw!r} is invalid"
            ) from None
    if resolved.get("out") is None:
        resolved["out"] = os.environ.get("DAFM_OUT_DIR", ".")
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
    if spec in ("uniform", "low2x", "med2x", "high2x"):
        return weight_scheme(grid, spec)
    try:
        return grid.with_weights(parse_floats(spec))
    except ValueError:
        raise ConfigError(
            f"--weights must be a scheme name, 'density:<dist>', or numbers; got {spec!r}"
        ) from None


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
    if not os.path.exists(path):
        raise ConfigError(f"panel file not found: {path}")
    return load_panel(path)


def _parse_dist_arg(spec):
    try:
        return parse_dist(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_DGPS = {
    "location-shift": gen_location_shift,
    "location-scale": gen_location_scale_shift,
    "location-scale-shift": gen_location_scale_shift,
}


# --------------------------------------------------------------------------
# commands


def cmd_simulate(cfg):
    if cfg["dgp"] not in _DGPS:
        raise ConfigError(
            f"--dgp must be one of {sorted(set(_DGPS))}, got {cfg['dgp']!r}"
        )
    dist = _parse_dist_arg(cfg["dist"])
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    panel, truth = _DGPS[cfg["dgp"]](cfg["n"], cfg["t"], dist, cfg["seed"])
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
    panel = _load_panel_arg(cfg["panel"])
    grid = _build_grid(cfg["levels"], cfg["weights"])
    fc = _fit_config(cfg, cfg["r"], cfg["k-star"])
    fit = fit_dafm(panel, grid, fc)
    outdir = cfg["out"]
    save_fit(fit, os.path.join(outdir, "fit"))
    print(
        f"wrote {outdir}/fit: r={fit.r} K={len(grid)} objective={fit.objective:.6g} "
        f"converged={str(fit.converged).lower()}"
    )


def cmd_fit_qfm(cfg):
    panel = _load_panel_arg(cfg["panel"])
    fc = _fit_config(cfg, cfg["r"])
    fit = fit_qfm(panel, cfg["tau"], cfg=fc)
    outdir = cfg["out"]
    save_fit(fit, os.path.join(outdir, "fit"))
    print(
        f"wrote {outdir}/fit: qfm tau={cfg['tau']} r={fit.r} "
        f"objective={fit.objective:.6g} converged={str(fit.converged).lower()}"
    )


def cmd_rank(cfg):
    panel = _load_panel_arg(cfg["panel"])
    grid = _build_grid(cfg["levels"], cfg["weights"])
    fc = _fit_config(cfg, 1)
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "rank.csv")
    if cfg["method"] == "ic":
        sel = select_rank_ic(panel, grid, s_max=cfg["smax"], penalty=cfg["penalty"], cfg=fc)
        write_table(path, ["l", "criterion"], enumerate(sel.criteria, start=1))
    elif cfg["method"] == "eigen":
        thresholds = cfg["thresholds"]
        if thresholds != "auto":
            thresholds = parse_floats(thresholds)
        sel = select_rank_eigen(panel, grid, s_max=cfg["smax"], thresholds=thresholds, cfg=fc)
        write_table(path, ["k", "i", "eigenvalue", "threshold"], [
            (k + 1, i + 1, eig, sel.thresholds[k])
            for k, row in enumerate(sel.criteria) for i, eig in enumerate(row)
        ])
    else:
        raise ConfigError(f"--method must be ic or eigen, got {cfg['method']!r}")
    print(f"wrote {path}: method={sel.method} r_hat={sel.r_hat}")
    return {"r_hat": sel.r_hat}


def cmd_infer(cfg):
    panel = _load_panel_arg(cfg["panel"])
    grid = _build_grid(cfg["levels"], cfg["weights"])
    if (cfg["t"] is None) == (cfg["loading"] is None):
        raise ConfigError("pass exactly one of --t (factor CI) or --loading K,I")
    if not 0.0 < cfg["level"] < 1.0:
        raise ConfigError(f"--level must be in (0, 1), got {cfg['level']}")
    fc = _fit_config(cfg, cfg["r"])
    kernel = build_kernel(cfg["kernel-order"])
    T = panel.values.shape[0]
    if cfg["bandwidth"] is not None:
        scfg = SmoothConfig(kernel=kernel, bandwidth=cfg["bandwidth"])
    else:
        scfg = SmoothConfig.for_sample(T, kernel=kernel)
    fit = fit_smoothed_dafm(panel, grid, fc, scfg)
    if cfg["t"] is not None:
        if cfg["t"] > T:
            raise ConfigError(f"--t {cfg['t']} exceeds panel length {T}")
        ci = factor_ci(fit, panel, scfg, cfg["t"], level=cfg["level"])
    else:
        try:
            k, i = (int(v) for v in cfg["loading"].split(","))
        except ValueError:
            raise ConfigError("--loading expects K,I (1-based integers)") from None
        ci = loading_ci(fit, panel, scfg, k, i, level=cfg["level"])
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "ci.csv")
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
    panel = _load_panel_arg(cfg["panel"])
    grid = _build_grid(cfg["levels"], cfg["weights"])
    col = _target_column(panel, cfg["target"])
    y = panel.values[:, col]
    task = ForecastTask(
        target=y,
        horizon=cfg["horizon"],
        window=cfg["window"],
        max_lag=cfg["max-lag"],
        method=cfg["method"],
    )
    fc = None
    if task.method != "ar":
        if cfg["r"] is None:
            raise ConfigError(f"--r is required for method {task.method!r}")
        fc = _fit_config(cfg, cfg["r"])
    forecasts, actuals = rolling_forecast(panel, y, task, grid=grid, cfg=fc)
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    W = task.window
    path = os.path.join(outdir, "forecasts.csv")
    write_table(path, ["origin", "horizon", "forecast", "actual"], [
        (origin, task.horizon, f, a)
        for origin, f, a in zip(panel.time_labels[W - 1:], forecasts, actuals)
    ])
    # benchmark for the summary: the same rolling scheme without factors
    if task.method != "ar":
        ar_task = ForecastTask(
            target=y, horizon=task.horizon, window=W, max_lag=task.max_lag, method="ar"
        )
        base, _ = rolling_forecast(panel, y, ar_task)
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
            sizes.append((int(n), int(t)))
        except ValueError:
            raise ConfigError(f"--sizes expects NxT[,NxT...], got {spec!r}") from None
    return sizes


def _eval_methods(spec):
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must list at least one method")
    for m in methods:
        name = m.split(":", 1)[0]
        if name not in ("dafm", "qfm", "pca"):
            raise ConfigError(f"unknown method {m!r}; expected dafm, qfm:<tau>, or pca")
        if name == "qfm":
            try:
                tau = float(m.split(":", 1)[1])
            except (IndexError, ValueError):
                raise ConfigError("qfm needs a level, e.g. qfm:0.5") from None
            if not 0.0 < tau < 1.0:
                raise ConfigError(f"qfm level must be in (0, 1), got {tau}")
    return methods


def _eval_one_rep(gen, dist, N, T, seed, methods, grid, r_over):
    """Adjusted R² of each true factor under each method, one replication."""
    panel, truth = gen(N, T, dist, seed=seed)
    r = truth.n_factors if r_over is None else r_over
    rows = []
    for m in methods:
        name, _, arg = m.partition(":")
        if name == "dafm":
            F_hat = fit_dafm(panel, grid, FitConfig(r=r, seed=0)).F
        elif name == "qfm":
            F_hat = fit_qfm(panel, float(arg), r=r).F
        else:
            F_hat, _ = mean_pca(panel, r)
        r2 = [adjusted_r2(truth.F0[:, j], F_hat) for j in range(truth.F0.shape[1])]
        rows.append((m, r2))
    return rows


def _r2_header(n_factors):
    return ["method", "size"] + [f"f{j + 1}" for j in range(n_factors)]


def cmd_eval_sim(cfg):
    if cfg["dgp"] is not None:
        dgp = cfg["dgp"]
    elif cfg["table"] is not None:
        if cfg["table"] not in (1, 2):
            raise ConfigError(f"--table must be 1 or 2, got {cfg['table']}")
        dgp = "location-shift" if cfg["table"] == 1 else "location-scale-shift"
    else:
        raise ConfigError("pass --table 1|2 or --dgp")
    if dgp not in _DGPS:
        raise ConfigError(f"--dgp must be one of {sorted(set(_DGPS))}, got {dgp!r}")
    gen = _DGPS[dgp]
    dist = _parse_dist_arg(cfg["dist"])
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
# argument parsing


def _add_options(sub, command):
    for name, _, _default in _schema(command):
        if name == "config":
            sub.add_argument("--config", help="key=value file supplying defaults")
        else:
            sub.add_argument("--" + name, default=None)
    return sub


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "fit-qfm": cmd_fit_qfm,
    "rank": cmd_rank,
    "infer": cmd_infer,
    "forecast": cmd_forecast,
    "eval-sim": cmd_eval_sim,
}

_HELP = {
    "simulate": "generate a synthetic panel plus its ground truth",
    "fit": "estimate a composite-quantile factor model",
    "fit-qfm": "estimate a single-level quantile factor model",
    "rank": "select the number of factors",
    "infer": "smoothed fit and plug-in confidence intervals",
    "forecast": "rolling factor-augmented AR forecasts",
    "eval-sim": "replicated simulation study with per-factor adjusted R²",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dafm",
        description="Composite-quantile factor models for high-dimensional panels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        _add_options(subs.add_parser(command, help=_HELP[command]), command)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args, command)
        os.makedirs(cfg["out"], exist_ok=True)
        _COMMANDS[command](cfg)
        _write_manifest(cfg["out"], command, cfg, t0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it is caught before the usage errors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
