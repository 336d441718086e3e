"""On-disk formats: CSV tables, fitted-model directories and key=value files.

The CLI's tables and the fit matrices go through ``write_table``: an
optional header line, then comma-separated cells, a float printed at 17
significant digits so a save/load round trip is bit-identical.  A fit
directory holds ``F.csv`` (T×r), one ``Lambda_<k>.csv`` (N×r) per quantile
level in grid order (1-based), and a ``meta`` file; the matrices have no
header.

The ``meta`` file — and every config/manifest file in the package — uses one
``key=value`` pair per line: ``#`` starts a comment, blank lines are
ignored, values are scalars or comma-separated lists, booleans are
``true``/``false``.
"""

from __future__ import annotations

import os

import numpy as np

from .estimator import FactorFit
from .grids import QuantileGrid

__all__ = [
    "save_fit",
    "load_fit",
    "write_table",
    "write_matrix",
    "read_matrix",
    "write_kv",
    "read_kv",
    "parse_floats",
    "parse_bool",
]


def write_matrix(path, M):
    """Write a 2-d array as headerless CSV at full precision."""
    write_table(path, None, np.atleast_2d(np.asarray(M, dtype=float)))


def read_matrix(path):
    with open(path) as fh:
        rows = [
            [float(v) for v in line.split(",")]
            for line in (l.strip() for l in fh)
            if line
        ]
    if not rows:
        raise ValueError(f"{path} is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path} has ragged rows")
    return np.array(rows)


def _format_value(v):
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (list, tuple, np.ndarray)):
        return ",".join(_format_value(x) for x in v)
    return str(v)


def write_table(path, header, rows):
    """Write CSV: an optional header line, then one line per row.

    Each cell is formatted by its type, as in :func:`write_kv`: a float at
    17 significant digits, an int as digits, a str as is.
    """
    with open(path, "w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def write_kv(path, mapping):
    """Write a mapping in the package's key=value text format."""
    with open(path, "w") as fh:
        for key, val in mapping.items():
            fh.write(f"{key}={_format_value(val)}\n")


def read_kv(path):
    """Read a key=value file into a dict of raw strings."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def parse_floats(s):
    """Comma-separated floats; empty string means an empty tuple."""
    s = s.strip()
    if not s:
        return ()
    return tuple(float(v) for v in s.split(","))


def parse_bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def save_fit(fit, dirpath):
    """Write a fitted model to a directory (created if needed)."""
    os.makedirs(dirpath, exist_ok=True)
    write_matrix(os.path.join(dirpath, "F.csv"), fit.F)
    for k in range(len(fit.grid)):
        write_matrix(os.path.join(dirpath, f"Lambda_{k + 1}.csv"), fit.loadings[k])
    meta = {
        "levels": fit.grid.levels,
        "weights": fit.grid.weights,
        "k_star": fit.normalization.k_star if fit.normalization is not None else "",
        "trace": fit.objective_trace,
        "converged": fit.converged,
    }
    write_kv(os.path.join(dirpath, "meta"), meta)


def load_fit(dirpath):
    """Read a fit directory back into a FactorFit.

    The normalization report holds derived matrices and is not serialized;
    the loaded fit carries ``normalization=None`` (its ``k_star`` remains
    readable in the ``meta`` file).
    """
    meta = read_kv(os.path.join(dirpath, "meta"))
    grid = QuantileGrid(parse_floats(meta["levels"]), parse_floats(meta["weights"]))
    F = read_matrix(os.path.join(dirpath, "F.csv"))
    loadings = [
        read_matrix(os.path.join(dirpath, f"Lambda_{k + 1}.csv"))
        for k in range(len(grid))
    ]
    return FactorFit(
        F=F,
        loadings=np.stack(loadings),
        grid=grid,
        objective_trace=parse_floats(meta.get("trace", "")),
        converged=parse_bool(meta.get("converged", "false")),
    )
