"""Synthetic panel generators with seeded reproducibility.

Two data-generating processes drive the experiment harness: a location-shift
panel (three autoregressive factors plus additive noise, which the model
represents with a fourth, constant factor whose loading is the noise
quantile) and a location-scale-shift panel (the third factor multiplies the
noise, so it moves dispersion rather than the mean).  Error families cover
gaussian, Student t, a two-component gaussian mixture, and the Azzalini
skew-t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .grids import QuantileGrid
from .panel import Panel

__all__ = [
    "ErrorDist",
    "SimTruth",
    "sample_error",
    "density_weights",
    "weight_scheme",
    "ar1_series",
    "gen_location_shift",
    "gen_location_scale_shift",
    "parse_dist",
]


@dataclass(frozen=True)
class ErrorDist:
    """Idiosyncratic error family.

    ``params`` by kind: gaussian (mu, sigma); t (df); mixture
    (p, mu1, var1, mu2, var2) with component *variances*; skewt
    (xi, omega, alpha, nu).  With ``centered`` (the default), draws and the
    distribution functions refer to the mean-centered variable; centering
    requires a finite mean, i.e. df > 1 for the t kinds.  A centered t is a
    no-op shift (its mean is 0 by symmetry) but still demands df > 1 so that
    the claim "mean zero" is true.
    """

    kind: str
    params: tuple
    centered: bool = True

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        kind = self.kind
        p = self.params
        if kind == "gaussian":
            if len(p) != 2:
                raise ValueError("gaussian takes (mu, sigma)")
            if p[1] <= 0:
                raise ValueError(f"gaussian sigma must be positive, got {p[1]}")
        elif kind == "t":
            if len(p) != 1:
                raise ValueError("t takes (df,)")
            if p[0] <= 0:
                raise ValueError(f"t degrees of freedom must be positive, got {p[0]}")
            if self.centered and p[0] <= 1:
                raise ValueError("centering a t requires df > 1 (finite mean)")
        elif kind == "mixture":
            if len(p) != 5:
                raise ValueError("mixture takes (p, mu1, var1, mu2, var2)")
            if not 0.0 <= p[0] <= 1.0:
                raise ValueError(f"mixture probability must be in [0, 1], got {p[0]}")
            if p[2] <= 0 or p[4] <= 0:
                raise ValueError("mixture component variances must be positive")
        elif kind == "skewt":
            if len(p) != 4:
                raise ValueError("skewt takes (xi, omega, alpha, nu)")
            if p[1] <= 0:
                raise ValueError(f"skewt omega must be positive, got {p[1]}")
            if p[3] <= 0:
                raise ValueError(f"skewt nu must be positive, got {p[3]}")
            if self.centered and p[3] <= 1:
                raise ValueError("centering a skew-t requires nu > 1 (finite mean)")
        else:
            raise ValueError(
                f"unknown error kind {kind!r}; expected gaussian, t, mixture, or skewt"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, mu=0.0, sigma=1.0, centered=True):
        return cls("gaussian", (mu, sigma), centered)

    @classmethod
    def student_t(cls, df, centered=True):
        return cls("t", (df,), centered)

    @classmethod
    def gauss_mixture(cls, p, mu1, var1, mu2, var2, centered=True):
        return cls("mixture", (p, mu1, var1, mu2, var2), centered)

    @classmethod
    def skew_t(cls, xi, omega, alpha, nu, centered=True):
        return cls("skewt", (xi, omega, alpha, nu), centered)

    # -- raw-distribution internals -----------------------------------------

    def raw_mean(self):
        """Mean of the uncentered distribution (0 for the symmetric t)."""
        p = self.params
        if self.kind == "gaussian":
            return p[0]
        if self.kind == "t":
            return 0.0
        if self.kind == "mixture":
            return p[0] * p[1] + (1.0 - p[0]) * p[3]
        xi, omega, alpha, nu = p
        delta = alpha / math.sqrt(1.0 + alpha * alpha)
        return xi + omega * delta * math.sqrt(nu / math.pi) * math.exp(
            scipy.special.gammaln(0.5 * (nu - 1.0)) - scipy.special.gammaln(0.5 * nu)
        )

    def _offset(self):
        return self.raw_mean() if self.centered else 0.0

    # scipy.stats, scipy.integrate and scipy.optimize are imported where
    # they are used: together they take about half a second to import.

    def _raw_pdf(self, x):
        import scipy.stats

        p = self.params
        if self.kind == "gaussian":
            return scipy.stats.norm.pdf(x, loc=p[0], scale=p[1])
        if self.kind == "t":
            return scipy.stats.t.pdf(x, df=p[0])
        if self.kind == "mixture":
            w, mu1, v1, mu2, v2 = p
            return (
                w * scipy.stats.norm.pdf(x, loc=mu1, scale=math.sqrt(v1))
                + (1.0 - w) * scipy.stats.norm.pdf(x, loc=mu2, scale=math.sqrt(v2))
            )
        xi, omega, alpha, nu = p
        z = (np.asarray(x, dtype=float) - xi) / omega
        core = scipy.stats.t.pdf(z, df=nu)
        tilt = scipy.stats.t.cdf(
            alpha * z * np.sqrt((nu + 1.0) / (nu + z * z)), df=nu + 1.0
        )
        return 2.0 / omega * core * tilt

    def _raw_cdf(self, x):
        import scipy.integrate
        import scipy.stats

        p = self.params
        if self.kind == "gaussian":
            return scipy.stats.norm.cdf(x, loc=p[0], scale=p[1])
        if self.kind == "t":
            return scipy.stats.t.cdf(x, df=p[0])
        if self.kind == "mixture":
            w, mu1, v1, mu2, v2 = p
            return (
                w * scipy.stats.norm.cdf(x, loc=mu1, scale=math.sqrt(v1))
                + (1.0 - w) * scipy.stats.norm.cdf(x, loc=mu2, scale=math.sqrt(v2))
            )
        val, _ = scipy.integrate.quad(
            self._raw_pdf, -np.inf, float(x), limit=200
        )
        return min(max(val, 0.0), 1.0)

    def _raw_quantile(self, q):
        import scipy.optimize
        import scipy.stats

        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        p = self.params
        if self.kind == "gaussian":
            return float(scipy.stats.norm.ppf(q, loc=p[0], scale=p[1]))
        if self.kind == "t":
            return float(scipy.stats.t.ppf(q, df=p[0]))
        if self.kind == "mixture":
            w, mu1, v1, mu2, v2 = p
            lo = min(mu1 - 10 * math.sqrt(v1), mu2 - 10 * math.sqrt(v2))
            hi = max(mu1 + 10 * math.sqrt(v1), mu2 + 10 * math.sqrt(v2))
        else:
            xi, omega = p[0], p[1]
            lo, hi = xi - 10 * omega, xi + 10 * omega
        for _ in range(60):
            if self._raw_cdf(lo) < q:
                break
            lo = 2 * lo - hi
        for _ in range(60):
            if self._raw_cdf(hi) > q:
                break
            hi = 2 * hi - lo
        return float(scipy.optimize.brentq(lambda x: self._raw_cdf(x) - q, lo, hi, xtol=1e-12))

    # -- public (centered when configured) -----------------------------------

    def pdf(self, x):
        return self._raw_pdf(np.asarray(x, dtype=float) + self._offset())

    def cdf(self, x):
        x = np.asarray(x, dtype=float) + self._offset()
        if self.kind == "skewt":
            if x.ndim == 0:
                return self._raw_cdf(float(x))
            return np.array([self._raw_cdf(v) for v in x.ravel()]).reshape(x.shape)
        return self._raw_cdf(x)

    def quantile(self, q):
        return self._raw_quantile(q) - self._offset()

    def sample(self, n, rng):
        """n i.i.d. draws (centered when configured) from a Generator."""
        p = self.params
        if self.kind == "gaussian":
            raw = rng.normal(loc=p[0], scale=p[1], size=n)
        elif self.kind == "t":
            raw = rng.standard_t(df=p[0], size=n)
        elif self.kind == "mixture":
            w, mu1, v1, mu2, v2 = p
            pick = rng.random(n) < w
            raw = np.where(
                pick,
                rng.normal(mu1, math.sqrt(v1), size=n),
                rng.normal(mu2, math.sqrt(v2), size=n),
            )
        else:
            xi, omega, alpha, nu = p
            delta = alpha / math.sqrt(1.0 + alpha * alpha)
            u = np.abs(rng.standard_normal(n))
            v = rng.standard_normal(n)
            w_chi = rng.chisquare(nu, size=n)
            z = delta * u + math.sqrt(1.0 - delta * delta) * v
            raw = xi + omega * z / np.sqrt(w_chi / nu)
        return raw - self._offset()


def sample_error(dist, n, seed):
    """n i.i.d. error draws; ``seed`` is an int or a numpy Generator."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        np.random.SeedSequence(seed)
    )
    return dist.sample(int(n), rng)


def density_weights(dist, grid):
    """Reweight a grid by the error density at each level's quantile.

    w_k = pdf(quantile(tau_k)) — levels in the distribution's high-density
    region get more weight.  Invariant to the centering shift.
    """
    wts = []
    for tau in grid.levels:
        w = float(dist.pdf(dist.quantile(tau)))
        if not w > 1e-300:
            raise ValueError(f"error density underflows at level {tau}")
        wts.append(w)
    return grid.with_weights(tuple(wts))


def weight_scheme(grid, scheme):
    """Named weighting schemes over a grid.

    ``uniform`` sets every weight to 1; ``low2x`` doubles the two lowest
    levels, ``high2x`` the two highest, and ``med2x`` the middle third (for
    the classic 7-level grid that is exactly the 0.3/0.5/0.7 block).
    """
    K = len(grid)
    w = np.ones(K)
    if scheme == "uniform":
        pass
    elif scheme == "low2x":
        if K < 2:
            raise ValueError("low2x needs at least 2 levels")
        w[:2] = 2.0
    elif scheme == "high2x":
        if K < 2:
            raise ValueError("high2x needs at least 2 levels")
        w[-2:] = 2.0
    elif scheme == "med2x":
        if K < 3:
            raise ValueError("med2x needs at least 3 levels")
        w[K // 3 : K - K // 3] = 2.0
    else:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected uniform, low2x, med2x, or high2x"
        )
    return grid.with_weights(tuple(w))


def ar1_series(phi, T, seed):
    """Stationary AR(1) path with standard-normal innovations.

    The start is drawn from the stationary distribution N(0, 1/(1-phi^2)).
    ``seed`` is an int or a numpy Generator.
    """
    if not abs(phi) < 1:
        raise ValueError(f"AR coefficient must satisfy |phi| < 1, got {phi}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        np.random.SeedSequence(seed)
    )
    x = np.empty(T)
    x[0] = rng.standard_normal() / math.sqrt(1.0 - phi * phi)
    innov = rng.standard_normal(T - 1)
    for t in range(1, T):
        x[t] = phi * x[t - 1] + innov[t - 1]
    return x


@dataclass(frozen=True)
class SimTruth:
    """Ground truth behind a generated panel.

    ``F0`` holds the three driving factors (T×3) and ``loadings0`` their
    loading columns (N×3).  The factor-model representation of the panel —
    what an estimator should recover — is exposed by
    :meth:`dafm_factors` / :meth:`dafm_loadings`.
    """

    F0: np.ndarray
    loadings0: np.ndarray
    dist: ErrorDist
    dgp: str
    seed: int

    @property
    def n_factors(self):
        """Factor count of the model representation (4 with additive noise,
        whose quantiles load on a constant factor; 3 multiplicative)."""
        return 4 if self.dgp == "location-shift" else 3

    def dafm_factors(self):
        """True factor matrix in the model representation."""
        if self.dgp == "location-shift":
            return np.column_stack([self.F0, np.ones(self.F0.shape[0])])
        return self.F0.copy()

    def dafm_loadings(self, grid):
        """True (K, N, r) loadings in the model representation for ``grid``."""
        N = self.loadings0.shape[0]
        q = np.array([self.dist.quantile(tau) for tau in grid.levels])
        out = []
        for qk in q:
            if self.dgp == "location-shift":
                out.append(np.column_stack([self.loadings0, np.full(N, qk)]))
            else:
                lam = self.loadings0.copy()
                lam[:, 2] *= qk
                out.append(lam)
        return np.stack(out)


def gen_location_shift(N, T, dist, seed):
    """Panel with three AR(1) factors and additive idiosyncratic errors.

    X_it = lam1_i f1_t + lam2_i f2_t + lam3_i f3_t + eps_it with AR
    coefficients 0.8, 0.5, 0.2, standard-normal loadings, and centered
    errors.  Returns ``(Panel, SimTruth)``.
    """
    if N < 1 or T < 1:
        raise ValueError(f"need N, T >= 1, got N={N}, T={T}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    F0 = np.column_stack([
        ar1_series(0.8, T, rng),
        ar1_series(0.5, T, rng),
        ar1_series(0.2, T, rng),
    ])
    lam = rng.standard_normal((N, 3))
    eps = dist.sample(T * N, rng).reshape(T, N)
    X = F0 @ lam.T + eps
    truth = SimTruth(F0=F0, loadings0=lam, dist=dist, dgp="location-shift", seed=int(seed))
    return Panel(X), truth


def gen_location_scale_shift(N, T, dist, seed):
    """Panel whose third factor scales the idiosyncratic errors.

    X_it = lam1_i f1_t + lam2_i f2_t + lam3_i f3_t eps_it with f3 = |e3|
    i.i.d. half-normal and lam3 = |alpha_i|; the third factor moves
    dispersion, not the mean, so single-level fits at the median cannot see
    it.  Returns ``(Panel, SimTruth)``.
    """
    if N < 1 or T < 1:
        raise ValueError(f"need N, T >= 1, got N={N}, T={T}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f1 = ar1_series(0.8, T, rng)
    f2 = ar1_series(0.5, T, rng)
    f3 = np.abs(rng.standard_normal(T))
    lam12 = rng.standard_normal((N, 2))
    lam3 = np.abs(rng.standard_normal(N))
    eps = dist.sample(T * N, rng).reshape(T, N)
    X = np.outer(f1, lam12[:, 0]) + np.outer(f2, lam12[:, 1]) + np.outer(f3, lam3) * eps
    F0 = np.column_stack([f1, f2, f3])
    lam = np.column_stack([lam12, lam3])
    truth = SimTruth(F0=F0, loadings0=lam, dist=dist, dgp="location-scale-shift", seed=int(seed))
    return Panel(X), truth


def parse_dist(spec):
    """Parse a distribution spec string.

    Forms: ``gaussian`` or ``gaussian:mu,sigma``; ``t:df``;
    ``mixture:p,mu1,var1,mu2,var2``; ``skewt:xi,omega,alpha,nu``.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    try:
        args = tuple(float(v) for v in rest.split(",")) if rest else ()
    except ValueError:
        raise ValueError(f"could not parse numeric parameters in {spec!r}") from None
    if name == "gaussian":
        if args == ():
            return ErrorDist.gaussian()
        if len(args) == 2:
            return ErrorDist.gaussian(*args)
        raise ValueError("gaussian takes no parameters or mu,sigma")
    if name == "t":
        if len(args) != 1:
            raise ValueError("t takes exactly one parameter: df")
        return ErrorDist.student_t(args[0])
    if name == "mixture":
        if len(args) != 5:
            raise ValueError("mixture takes p,mu1,var1,mu2,var2")
        return ErrorDist.gauss_mixture(*args)
    if name == "skewt":
        if len(args) != 4:
            raise ValueError("skewt takes xi,omega,alpha,nu")
        return ErrorDist.skew_t(*args)
    raise ValueError(f"unknown distribution {name!r}")
