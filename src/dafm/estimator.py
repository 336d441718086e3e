"""Alternating estimation of composite-quantile factor models.

The fit alternates two exact sweeps — per-(level, series) quantile
regressions for the loadings and per-period composite quantile regressions
for the factors — until the relative change of the weighted objective drops
below tolerance, then rotates the solution to the normalized parametrization
(orthonormal factors, diagonalized loading cross-product at one reference
level).  The kernel-smoothed fit (:mod:`dafm.smooth`) shares the outer
loop, ``_outer_loop``, with its own sweeps and objective plugged in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grids import QuantileGrid
from .losses import _composite_objective_core
from .panel import as_panel
from .solvers import _factor_sweep, _loading_sweep

__all__ = [
    "FitConfig",
    "FactorFit",
    "NormalizationReport",
    "fit_dafm",
    "fit_qfm",
    "mean_pca",
    "normalize_fit",
]

#: Duality-gap tolerance (relative to data scale) for the inner solver.
INNER_GAP_RTOL = 1e-10
#: Iteration cap for one inner interior-point solve.
INNER_MAX_ITER = 60
#: A factor entry above this in magnitude aborts a fit as diverged (a
#: divergence detector only; no box constraint is imposed).
MAGNITUDE_GUARD = 1e8


@dataclass(frozen=True)
class FitConfig:
    """Settings for one factor-model fit.

    ``k_star`` is the 1-based quantile index used by the normalization step;
    ``None`` selects the level closest to 0.5.  ``seed`` only matters for the
    random-orthonormal initialization.
    """

    r: int
    tol: float = 1e-6
    max_outer: int = 100
    init: str = "pca"
    seed: int = 0
    k_star: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"factor count must be >= 1, got {self.r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.init not in ("pca", "random-orthonormal"):
            raise ValueError(
                f"init must be 'pca' or 'random-orthonormal', got {self.init!r}"
            )
        if self.k_star is not None and self.k_star < 1:
            raise ValueError(f"k_star is a 1-based index, got {self.k_star}")


@dataclass(frozen=True)
class NormalizationReport:
    """Rotation that produced the normalized parametrization.

    ``H`` maps raw factors to normalized ones (``F_new = F_raw @ H``), ``U``
    is the orthogonal eigenvector matrix of the diagonalized product, ``D``
    its non-increasing eigenvalues, and ``k_star`` the 1-based quantile index
    whose loadings were diagonalized.
    """

    H: np.ndarray
    U: np.ndarray
    D: np.ndarray
    k_star: int


@dataclass(frozen=True)
class FactorFit:
    """Fitted factors and per-level loadings.

    ``F`` is T×r with ``F.T @ F / T = I`` after normalization; ``loadings``
    stacks the K loading matrices as a (K, N, r) array in grid order.
    ``objective_trace`` holds the weighted objective after every outer
    iteration (non-increasing).
    """

    F: np.ndarray
    loadings: np.ndarray
    grid: QuantileGrid
    objective_trace: tuple = ()
    converged: bool = False
    normalization: NormalizationReport | None = None

    @property
    def n_periods(self):
        return self.F.shape[0]

    @property
    def n_series(self):
        return self.loadings.shape[1]

    @property
    def r(self):
        return self.F.shape[1]

    @property
    def objective(self):
        """Final objective value (nan when the trace is empty)."""
        return self.objective_trace[-1] if self.objective_trace else math.nan

    def common_component(self, k):
        """T×N fitted quantile surface for 1-based level index ``k``."""
        if not 1 <= k <= self.loadings.shape[0]:
            raise ValueError(f"level index must be in 1..{self.loadings.shape[0]}, got {k}")
        return self.F @ self.loadings[k - 1].T


def _column_signs(M):
    """Per-column sign making the largest-magnitude entry positive."""
    idx = np.argmax(np.abs(M), axis=0)
    signs = np.sign(M[idx, np.arange(M.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def mean_pca(panel, r):
    """Classical principal-component factors of the raw panel.

    Returns ``(F, Lambda)`` with ``F`` the top-r left singular vectors scaled
    by sqrt(T) (so F'F/T = I) and ``Lambda = X'F/T``.  Raises
    :class:`NumericalError` when the panel's numerical rank is below r.
    """
    X = as_panel(panel).values
    T, N = X.shape
    if T <= r or N <= r:
        raise ValueError(f"panel {T}x{N} too small for {r} factors")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[r - 1] <= s[0] * 1e-13:
        raise NumericalError(f"panel has numerical rank below {r}")
    F = math.sqrt(T) * U[:, :r]
    F = F * _column_signs(F)
    Lam = X.T @ F / T
    return F, Lam


def _initial_factors(X, r, init, seed):
    """Step-one starting factors: PCA of the standardized panel, or random."""
    T = X.shape[0]
    if init == "pca":
        mu = X.mean(axis=0)
        sd = X.std(axis=0, ddof=1)
        sd = np.where(sd > 0, sd, 1.0)
        U, s, _ = np.linalg.svd((X - mu) / sd, full_matrices=False)
        F = math.sqrt(T) * U[:, :r]
        return np.ascontiguousarray(F * _column_signs(F))
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((T, r)))
    return np.ascontiguousarray(math.sqrt(T) * Q * _column_signs(Q))


def _outer_loop(F, lam, cfg, sweep, objective):
    """Alternate ``sweep(F, lam, outer) -> (F, lam, gap misses)`` until the
    relative change of ``objective(F, lam)`` is below ``cfg.tol`` or
    ``cfg.max_outer`` sweeps ran; returns ``(F, lam, trace, converged)``.

    Raises :class:`NumericalError` on a NaN or infinite iterate, a factor
    entry above ``MAGNITUDE_GUARD``, or an objective rise above
    1e-8·max(1, |prev|).
    """
    trace = []
    converged = False
    misses = 0
    for outer in range(1, cfg.max_outer + 1):
        F, lam, m = sweep(F, lam, outer)
        misses += m
        if not np.all(np.isfinite(F)) or not np.all(np.isfinite(lam)):
            raise NumericalError(f"non-finite iterate at outer iteration {outer}")
        if np.max(np.abs(F)) > MAGNITUDE_GUARD:
            raise NumericalError(
                f"factor magnitude exceeded {MAGNITUDE_GUARD:.1e} at outer iteration {outer} "
                f"(largest |loading| {np.max(np.abs(lam)):.1e}); estimation diverged"
            )
        obj = objective(F, lam)
        if trace:
            prev = trace[-1]
            if obj > prev + 1e-8 * max(1.0, abs(prev)):
                raise NumericalError(
                    f"objective increased from {prev:.12g} to {obj:.12g} at outer "
                    f"iteration {outer}; this indicates a subproblem-solver bug"
                )
            converged = bool(abs(obj - prev) / max(abs(prev), 1e-12) < cfg.tol)
        trace.append(obj)
        if converged:
            break
    if misses:
        warnings.warn(
            f"{misses} inner quantile regressions stopped short of the duality-gap "
            "target; their iterates were kept only where they improved the objective",
            RuntimeWarning,
            stacklevel=4,
        )
    return F, lam, tuple(trace), converged


def _alternate(X, F0, grid, cfg):
    """Run the exact alternating sweeps from ``F0`` with zero loadings;
    returns raw (F, loadings, trace, converged)."""
    taus = grid.levels_array()
    wts = grid.weights_array()
    XT = np.ascontiguousarray(X.T)

    def sweep(F, lam, outer):
        lam, m1 = _loading_sweep(XT, F, taus, lam, INNER_GAP_RTOL, INNER_MAX_ITER)
        F, m2 = _factor_sweep(X, lam, taus, wts, F, INNER_GAP_RTOL, INNER_MAX_ITER)
        return F, lam, m1 + m2

    def objective(F, lam):
        return _composite_objective_core(X, F, lam, taus, wts)

    lam0 = np.zeros((len(grid), XT.shape[0], cfg.r))
    return _outer_loop(F0, lam0, cfg, sweep, objective)


def _setup(panel, cfg, grid=None):
    """The start every fit shares: the panel as a contiguous T×N array with
    more periods and series than factors, and the 1-based normalization
    level ``k_star`` for ``grid`` (None without a grid)."""
    X = np.ascontiguousarray(as_panel(panel).values)
    T, N = X.shape
    if T <= cfg.r:
        raise ValueError(f"need more than r={cfg.r} periods, got T={T}")
    if N <= cfg.r:
        raise ValueError(f"need more than r={cfg.r} series, got N={N}")
    if grid is None:
        return X, None
    k_star = cfg.k_star if cfg.k_star is not None else grid.median_index()
    if not 1 <= k_star <= len(grid):
        raise ValueError(f"k_star must be in 1..{len(grid)}, got {k_star}")
    return X, k_star


def _finish(grid, k_star, F, lam, trace, converged):
    """The end every fit shares: normalize a raw fit into a FactorFit."""
    F_n, lam_n, report = normalize_fit(F, lam, k_star)
    return FactorFit(F=F_n, loadings=lam_n, grid=grid, objective_trace=trace,
                     converged=converged, normalization=report)


def _fit_raw(X, grid, cfg):
    """Unnormalized alternating fit from the configured start, shared by
    rank selection and the cold-started forecast windows."""
    X, _ = _setup(X, cfg)
    return _alternate(X, _initial_factors(X, cfg.r, cfg.init, cfg.seed), grid, cfg)


def fit_dafm(panel, grid, cfg):
    """Estimate a composite-quantile factor model.

    Alternates exact loading and factor sweeps from a deterministic start
    until the relative objective change falls below ``cfg.tol`` (the stopping
    rule and the guards are ``_outer_loop``'s), then normalizes so that
    F'F/T = I and the loading cross-product at the reference level is
    diagonal with non-increasing diagonal.
    """
    X, k_star = _setup(panel, cfg, grid)
    F0 = _initial_factors(X, cfg.r, cfg.init, cfg.seed)
    return _finish(grid, k_star, *_alternate(X, F0, grid, cfg))


def fit_qfm(panel, tau, cfg):
    """Single-level quantile factor model: ``fit_dafm`` on the one level ``tau``."""
    if cfg.k_star not in (None, 1):
        raise ValueError(f"a single-level fit has k_star=1, got {cfg.k_star}")
    grid = QuantileGrid((float(tau),))
    return fit_dafm(panel, grid, cfg)


def normalize_fit(F_raw, loadings_raw, k):
    """Rotate a raw fit to the normalized parametrization.

    Diagonalizes (F'F/T)^{1/2} (L_k'L_k/N) (F'F/T)^{1/2} = U D U' for the
    1-based level index ``k`` and applies H = (F'F/T)^{-1/2} U to the
    factors, with loadings transformed by the inverse transpose so every
    common component Lambda_j F' is preserved exactly.  Column signs are
    fixed so each factor's largest-magnitude entry is positive.

    Returns ``(F, loadings, NormalizationReport)``.
    """
    F = np.asarray(F_raw, dtype=np.float64)
    lam = np.asarray(loadings_raw, dtype=np.float64)
    if lam.ndim == 2:
        lam = lam[np.newaxis]
    if F.ndim != 2 or lam.ndim != 3:
        raise ValueError("expected F of shape (T, r) and loadings of shape (K, N, r)")
    T, r = F.shape
    K = lam.shape[0]
    if lam.shape[2] != r:
        raise ValueError(
            f"loadings have {lam.shape[2]} columns but factors have {r}"
        )
    if not 1 <= k <= K:
        raise ValueError(f"level index must be in 1..{K}, got {k}")
    A = F.T @ F / T
    avals, avecs = np.linalg.eigh(A)
    if avals[0] <= 0 or math.sqrt(avals[-1] / avals[0]) > 1e12:
        raise NumericalError(
            "factor matrix is rank deficient: (F'F/T)^(1/2) has condition "
            f"number above 1e12 (eigenvalue range {avals[0]:.3e}..{avals[-1]:.3e})"
        )
    sq = np.sqrt(avals)
    A_half = (avecs * sq) @ avecs.T
    A_ihalf = (avecs / sq) @ avecs.T
    Lk = lam[k - 1]
    N = Lk.shape[0]
    B = A_half @ (Lk.T @ Lk / N) @ A_half
    B = 0.5 * (B + B.T)
    d, U = np.linalg.eigh(B)
    d = d[::-1].copy()
    U = np.ascontiguousarray(U[:, ::-1])
    H = A_ihalf @ U
    H_inv = U.T @ A_half
    F_n = F @ H
    signs = _column_signs(F_n)
    F_n = F_n * signs
    H = H * signs
    U = U * signs
    lam_n = np.ascontiguousarray(lam @ (H_inv.T * signs))
    report = NormalizationReport(H=H, U=U, D=d, k_star=int(k))
    return np.ascontiguousarray(F_n), lam_n, report
