"""Quantile grids: levels tau_1 < ... < tau_K in (0,1) with positive weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuantileGrid"]


@dataclass(frozen=True)
class QuantileGrid:
    """Strictly increasing quantile levels paired with positive weights.

    Duplicated levels are rejected at construction: a duplicate is equivalent
    to adding its weights, and that must be requested explicitly.
    """

    levels: tuple
    weights: tuple = field(default=None)

    def __post_init__(self):
        levels = tuple(float(t) for t in np.atleast_1d(self.levels))
        if len(levels) == 0:
            raise ValueError("grid needs at least one level")
        if any(not (0.0 < t < 1.0) for t in levels):
            raise ValueError("levels must lie strictly inside (0, 1): %r" % (levels,))
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing (duplicates rejected): %r" % (levels,))
        weights = self.weights
        if weights is None:
            weights = tuple(1.0 for _ in levels)
        else:
            weights = tuple(float(w) for w in np.atleast_1d(weights))
        if len(weights) != len(levels):
            raise ValueError("weights length %d != levels length %d" % (len(weights), len(levels)))
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive: %r" % (weights,))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.levels)

    def levels_array(self):
        return np.array(self.levels, dtype=float)

    def weights_array(self):
        return np.array(self.weights, dtype=float)

    def with_weights(self, weights):
        return QuantileGrid(self.levels, tuple(float(w) for w in weights))

    def median_index(self):
        """1-based index of the level closest to 0.5 (first on ties)."""
        lv = self.levels_array()
        return int(np.argmin(np.abs(lv - 0.5))) + 1
