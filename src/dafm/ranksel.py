"""Factor-count selection: information criterion and eigenvalue thresholding.

Two consistent routes to the number of factors.  The information criterion
refits the model at each candidate count and penalizes size; the eigenvalue
method fits once at the largest candidate and counts loading-covariance
eigenvalues above a per-level threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimator import FitConfig, _fit_raw
from .losses import composite_objective
from .panel import as_panel

__all__ = ["RankSelection", "select_rank_ic", "select_rank_eigen", "default_penalty"]


@dataclass(frozen=True)
class RankSelection:
    """Outcome of a factor-count search.

    For the ``ic`` method ``criteria`` holds the penalized objective per
    candidate count (index ℓ-1); for ``eigen`` it is a (K, s_max) array of
    loading-covariance eigenvalues, each row sorted non-increasing.  Exactly
    one of ``penalty`` / ``thresholds`` is set.  ``converged`` records the
    underlying fits' convergence flags (one per candidate for ``ic``, a
    single flag for ``eigen``).
    """

    method: str
    s_max: int
    criteria: np.ndarray
    r_hat: int
    penalty: float | None = None
    thresholds: np.ndarray | None = None
    converged: tuple = ()


def default_penalty(N, T, scale):
    """Penalty scale·L^(-2/3) with L = min(√N, √T).

    Vanishes as the panel grows yet dominates the L^(-2) estimation noise,
    which is what consistency of the criterion requires.  ``scale`` is
    typically the objective of the one-factor fit, making the criterion
    scale-free in the data.
    """
    if N < 2 or T < 2:
        raise ValueError(f"need N, T >= 2, got N={N}, T={T}")
    if scale == 0:
        raise ValueError("penalty scale must be nonzero (degenerate scale)")
    L = min(math.sqrt(N), math.sqrt(T))
    return float(scale) * L ** (-2.0 / 3.0)


def _resolve_s_max(s_max, N, T):
    """``s_max``, or its default min(8, min(N,T)//3) (at least 1), checked
    to lie in [1, min(N,T))."""
    if s_max is None:
        s_max = max(1, min(8, min(N, T) // 3))
    s_max = int(s_max)
    if not 1 <= s_max < min(N, T):
        raise ValueError(f"s_max must be in [1, min(N,T)), got {s_max}")
    return s_max


def select_rank_ic(panel, grid, s_max=None, penalty=None, cfg=None):
    """Pick the factor count minimizing objective + count × penalty.

    Fits every candidate count 1..s_max (un-normalized fits suffice: the
    objective depends on the loadings and factors only through their
    product).  ``penalty=None`` uses :func:`default_penalty` scaled by the
    one-factor objective.  Ties break toward the smaller count; candidates
    that stop at the iteration cap still enter the criterion, with a warning.
    """
    panel = as_panel(panel)
    X = panel.values
    T, N = X.shape
    s_max = _resolve_s_max(s_max, N, T)
    if penalty is not None and not (penalty > 0 and math.isfinite(penalty)):
        raise ValueError(f"penalty must be finite and positive, got {penalty}")
    if cfg is None:
        cfg = FitConfig(r=1)

    objectives = np.empty(s_max)
    flags = []
    for ell in range(1, s_max + 1):
        F, lam, trace, converged = _fit_raw(X, grid, replace(cfg, r=ell))
        objectives[ell - 1] = composite_objective(panel, F, lam, grid)
        flags.append(bool(converged))
    if not all(flags):
        bad = [ell + 1 for ell, ok in enumerate(flags) if not ok]
        warnings.warn(
            f"candidate fit(s) {bad} stopped at the iteration cap; "
            "criterion computed from their last iterates",
            RuntimeWarning,
            stacklevel=2,
        )
    if penalty is None:
        penalty = default_penalty(N, T, objectives[0])
    counts = np.arange(1, s_max + 1)
    criteria = objectives + counts * penalty
    r_hat = int(np.argmin(criteria)) + 1  # argmin returns the first minimum
    return RankSelection(
        method="ic",
        s_max=s_max,
        criteria=criteria,
        r_hat=r_hat,
        penalty=float(penalty),
        converged=tuple(flags),
    )


def select_rank_eigen(panel, grid, s_max=None, thresholds="auto", cfg=None):
    """Count loading-covariance eigenvalues above a per-level threshold.

    Fits once at s_max factors and, for each quantile level, computes the
    eigenvalues of the *normalized* loading covariance Λ̃_k′Λ̃_k/N, sorted
    non-increasing.  These equal the eigenvalues of A^(1/2)(Λ̂_k′Λ̂_k/N)A^(1/2)
    with A = F̂′F̂/T — a form that needs no inversion, so candidate counts
    above the data's true rank (where A is singular and the normalized
    parametrization does not exist) still yield the right spectrum, with the
    excess directions at ~0.  The selected count is the max over levels of
    the number of eigenvalues exceeding that level's threshold.
    ``thresholds`` is "auto" (L^(-2/3) times the leading eigenvalue, per
    level), a scalar, or one value per level.
    """
    X = as_panel(panel).values
    T, N = X.shape
    s_max = _resolve_s_max(s_max, N, T)
    if cfg is None:
        cfg = FitConfig(r=s_max)

    F, lam, trace, converged = _fit_raw(X, grid, replace(cfg, r=s_max))
    if not converged:
        warnings.warn(
            "fit at s_max stopped at the iteration cap; eigenvalues computed "
            "from its last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    A = F.T @ F / T
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    A_half = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T

    K = len(grid)
    eig = np.empty((K, s_max))
    for k in range(K):
        S = lam[k].T @ lam[k] / N
        B = A_half @ (0.5 * (S + S.T)) @ A_half
        vals = np.linalg.eigvalsh(0.5 * (B + B.T))
        eig[k] = vals[::-1]

    L = min(math.sqrt(N), math.sqrt(T))
    if isinstance(thresholds, str):
        if thresholds != "auto":
            raise ValueError(f"thresholds must be 'auto', a scalar, or per-level values, got {thresholds!r}")
        kappa = L ** (-2.0 / 3.0) * eig[:, 0]
    else:
        kappa = np.broadcast_to(np.asarray(thresholds, dtype=float), (K,)).copy()
        if np.any(kappa < 0):
            raise ValueError("thresholds must be nonnegative")
    counts = (eig > kappa[:, None]).sum(axis=1)
    r_hat = int(counts.max())
    if r_hat == 0:
        raise ValueError("threshold exceeds leading eigenvalue at every level")
    return RankSelection(
        method="eigen",
        s_max=s_max,
        criteria=eig,
        r_hat=r_hat,
        thresholds=kappa,
        converged=(bool(converged),),
    )
