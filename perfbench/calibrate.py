"""A fixed reference computation that measures how fast the core runs now.

The machine this benchmark runs on is shared, and the speed of its cores
moves on its own by up to about 1.5x, in phases from seconds to minutes.
A run therefore times this loop right before and right after every round
and multiplies the round's times by ``REFERENCE_S`` over the mean of the two
loop times: what the round would have taken while the loop takes
``REFERENCE_S``.

The loop is frozen here and never calls dafm, so a change to the program
moves the scaled times and not the reference.  It makes the same kind of
calls as dafm's solvers: interior-point style steps on small arrays
(elementwise numpy on 150-vectors, a 3x3 normal-equation solve, matrix
products) and a Python loop over array elements, with one BLAS thread.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's typical time on the 2-core machine in the README.  It only sets
# the scale of the reported seconds, which then read close to raw ones there.
REFERENCE_S = 0.15
_STEPS = 2000

_rng = np.random.default_rng(20251001)
_Z = _rng.standard_normal((150, 3))
_Y = _rng.standard_normal(150)
_TAUS = np.full(150, 0.3)


def _max_step(x, dx):
    alpha = 1e30
    for j in range(x.shape[0]):
        if dx[j] < 0.0:
            cand = -x[j] / dx[j]
            if cand < alpha:
                alpha = cand
    return alpha


def _loop():
    Z, y = _Z, _Y
    a = 1.0 - _TAUS
    z = np.abs(y) + 0.1
    w = z + 0.1
    acc = 0.0
    for k in range(_STEPS):
        q = 1.0 / (z / a + w / (1.0 - a))
        Q = Z.T @ (q.reshape(-1, 1) * Z)
        Q[np.diag_indices(3)] += 1e-13 * (np.trace(Q) / 3 + 1.0)
        dy = np.linalg.solve(Q, Z.T @ (q * (z - w)))
        da = q * (Z @ dy - (z - w))
        step = min(1.0, 0.5 * _max_step(a, da))
        acc += step + float(a @ z)
        # Keep the iterate fixed, so every call does the same arithmetic.
        a = 1.0 - _TAUS + 1e-9 * (k % 7)
    return acc


def measure():
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
