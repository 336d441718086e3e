"""Panel container and CSV ingestion.

A panel is a complete T x N table of finite floats: rows are time points,
columns are series.  CSV layout: UTF-8, one header row, optional leading time
column signalled by the header cell "time" (case-insensitive); values are
written with 17 significant digits so save/load round trips are bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Panel", "as_panel", "load_panel", "save_panel"]


@dataclass(frozen=True)
class Panel:
    """Immutable T x N data panel.

    Parameters
    ----------
    values : ndarray, shape (T, N)
        Finite float observations, rows indexed by time.
    series_ids : tuple of str
        Unique column identifiers, length N.
    time_labels : tuple of str
        Unique row labels, length T.
    """

    values: np.ndarray
    series_ids: tuple = field(default=None)
    time_labels: tuple = field(default=None)

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError("panel values must be a 2-d array, got ndim=%d" % arr.ndim)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("panel must have at least one row and one column")
        if not np.all(np.isfinite(arr)):
            t, i = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                "panel values must be finite; offending entry at row %d, column %d" % (t + 1, i + 1)
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

        T, N = arr.shape
        sids = self.series_ids
        if sids is None:
            sids = tuple("s%d" % (i + 1) for i in range(N))
        else:
            sids = tuple(str(s) for s in sids)
        tlabs = self.time_labels
        if tlabs is None:
            tlabs = tuple("t%d" % (t + 1) for t in range(T))
        else:
            tlabs = tuple(str(t) for t in tlabs)
        if len(sids) != N:
            raise ValueError("series_ids length %d does not match N=%d" % (len(sids), N))
        if len(tlabs) != T:
            raise ValueError("time_labels length %d does not match T=%d" % (len(tlabs), T))
        if len(set(sids)) != N:
            raise ValueError("series_ids must be unique")
        if len(set(tlabs)) != T:
            raise ValueError("time_labels must be unique")
        object.__setattr__(self, "series_ids", sids)
        object.__setattr__(self, "time_labels", tlabs)


def as_panel(data):
    """``data`` if it is a :class:`Panel`, else a Panel of it: the one way an
    entry point takes "a Panel or a T x N array", so an array goes through
    the same checks (2-d, non-empty, finite) as a Panel."""
    return data if isinstance(data, Panel) else Panel(data)


def load_panel(path):
    """Read a rectangular numeric CSV into a :class:`Panel`.

    Data rows are time points and the header cells are series ids.  A first
    column holding time labels is detected by the header cell "time".
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh)]
    rows = [row for row in rows if row and not all(cell.strip() == "" for cell in row)]
    if not rows:
        raise ValueError("empty file: %s" % (path,))
    header = [cell.strip() for cell in rows[0]]
    if len(rows) == 1:
        raise ValueError("no data rows in %s" % (path,))
    has_label_col = header[0].strip().lower() == "time"
    width = len(header)
    ncol = width - 1 if has_label_col else width

    labels = []
    data = np.empty((len(rows) - 1, ncol), dtype=float)
    for ridx, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(
                "ragged row %d in %s: expected %d cells, found %d" % (ridx, path, width, len(row))
            )
        body = row[1:] if has_label_col else row
        if has_label_col:
            labels.append(row[0].strip())
        for cidx, cell in enumerate(body):
            col_no = cidx + 2 if has_label_col else cidx + 1
            try:
                val = float(cell)
            except ValueError:
                raise ValueError(
                    "non-numeric cell %r at row %d, column %d of %s" % (cell, ridx, col_no, path)
                ) from None
            if not math.isfinite(val):
                raise ValueError(
                    "non-finite cell %r at row %d, column %d of %s" % (cell, ridx, col_no, path)
                )
            data[ridx - 2, cidx] = val

    names = header[1:] if has_label_col else header
    return Panel(data, series_ids=names, time_labels=labels if labels else None)


def save_panel(panel, path):
    """Write a panel as CSV; values at 17 significant digits for exact round trips."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + list(panel.series_ids))
        for label, row in zip(panel.time_labels, panel.values):
            writer.writerow([label] + ["%.17g" % v for v in row])
