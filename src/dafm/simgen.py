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

from .panel import Panel

__all__ = [
    "ErrorDist",
    "SimTruth",
    "density_weights",
    "weight_scheme",
    "ar1_series",
    "gen_location_shift",
    "gen_location_scale_shift",
    "parse_dist",
]


#: Each error family by kind: (parameter names, the error for a wrong
#: parameter count, the parameters used when none are given, range checks
#: as (condition, message formatted with the parameters) in order).  Draws
#: are shifted to mean zero, so each family needs a finite mean.
_FAMILIES = {
    "gaussian": (("mu", "sigma"), "gaussian takes no parameters or mu,sigma", (0.0, 1.0), (
        (lambda p: p[1] > 0, "gaussian sigma must be positive, got {1}"),
    )),
    "t": (("df",), "t takes exactly one parameter: df", (), (
        (lambda p: p[0] > 0, "t degrees of freedom must be positive, got {0}"),
        (lambda p: p[0] > 1, "centering a t requires df > 1 (finite mean)"),
    )),
    "mixture": (("p", "mu1", "var1", "mu2", "var2"), "mixture takes p,mu1,var1,mu2,var2", (), (
        (lambda p: 0.0 <= p[0] <= 1.0, "mixture probability must be in [0, 1], got {0}"),
        (lambda p: p[2] > 0 and p[4] > 0, "mixture component variances must be positive"),
    )),
    "skewt": (("xi", "omega", "alpha", "nu"), "skewt takes xi,omega,alpha,nu", (), (
        (lambda p: p[1] > 0, "skewt omega must be positive, got {1}"),
        (lambda p: p[3] > 0, "skewt nu must be positive, got {3}"),
        (lambda p: p[3] > 1, "centering a skew-t requires nu > 1 (finite mean)"),
    )),
}


@dataclass(frozen=True)
class ErrorDist:
    """Idiosyncratic error family, shifted to mean zero.

    ``params`` by kind: gaussian (mu, sigma), default (0, 1); t (df); mixture
    (p, mu1, var1, mu2, var2) with component *variances*; skewt
    (xi, omega, alpha, nu).  Draws and the distribution functions refer to
    the variable minus its mean, so the t kinds need df > 1; a t has mean
    zero by symmetry, but df > 1 keeps the claim "mean zero" true.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(
                f"unknown error kind {self.kind!r}; expected one of {list(_FAMILIES)}")
        names, arity, default, checks = _FAMILIES[self.kind]
        p = tuple(float(v) for v in self.params) or default
        if len(p) != len(names):
            raise ValueError(arity)
        for ok, message in checks:
            if not ok(p):
                raise ValueError(message.format(*p))
        object.__setattr__(self, "params", p)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, mu=0.0, sigma=1.0):
        return cls("gaussian", (mu, sigma))

    @classmethod
    def student_t(cls, df):
        return cls("t", (df,))

    @classmethod
    def gauss_mixture(cls, p, mu1, var1, mu2, var2):
        return cls("mixture", (p, mu1, var1, mu2, var2))

    @classmethod
    def skew_t(cls, xi, omega, alpha, nu):
        return cls("skewt", (xi, omega, alpha, nu))

    # -- the raw distribution -----------------------------------------------

    # scipy.special, scipy.stats, scipy.integrate and scipy.optimize are
    # imported where they are used: together they take over half a second
    # to import.

    def _mean(self):
        """Mean of the raw distribution (0 for the symmetric t)."""
        p = self.params
        if self.kind == "gaussian":
            return p[0]
        if self.kind == "t":
            return 0.0
        if self.kind == "mixture":
            return p[0] * p[1] + (1.0 - p[0]) * p[3]
        import scipy.special

        xi, omega, alpha, nu = p
        delta = alpha / math.sqrt(1.0 + alpha * alpha)
        return xi + omega * delta * math.sqrt(nu / math.pi) * math.exp(
            scipy.special.gammaln(0.5 * (nu - 1.0)) - scipy.special.gammaln(0.5 * nu)
        )

    def _raw(self, x, fn):
        """The raw distribution's ``fn`` ("pdf" or "cdf") at ``x``; the
        skew-t cdf integrates its pdf and takes a scalar ``x``."""
        import scipy.stats

        p = self.params
        if self.kind == "gaussian":
            return getattr(scipy.stats.norm, fn)(x, loc=p[0], scale=p[1])
        if self.kind == "t":
            return getattr(scipy.stats.t, fn)(x, df=p[0])
        if self.kind == "mixture":
            w, mu1, v1, mu2, v2 = p
            f = getattr(scipy.stats.norm, fn)
            return (w * f(x, loc=mu1, scale=math.sqrt(v1))
                    + (1.0 - w) * f(x, loc=mu2, scale=math.sqrt(v2)))
        if fn == "cdf":
            import scipy.integrate

            val, _ = scipy.integrate.quad(self._raw, -np.inf, float(x), args=("pdf",), limit=200)
            return min(max(val, 0.0), 1.0)
        xi, omega, alpha, nu = p
        z = (np.asarray(x, dtype=float) - xi) / omega
        core = scipy.stats.t.pdf(z, df=nu)
        tilt = scipy.stats.t.cdf(
            alpha * z * np.sqrt((nu + 1.0) / (nu + z * z)), df=nu + 1.0
        )
        return 2.0 / omega * core * tilt

    def _raw_quantile(self, q):
        import scipy.optimize
        import scipy.special
        import scipy.stats

        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        p = self.params
        if self.kind == "gaussian":
            # exactly scipy.stats.norm.ppf, without its argument handling
            return float(scipy.special.ndtri(q) * p[1] + p[0])
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
            if self._raw(lo, "cdf") < q:
                break
            lo = 2 * lo - hi
        for _ in range(60):
            if self._raw(hi, "cdf") > q:
                break
            hi = 2 * hi - lo
        return float(scipy.optimize.brentq(lambda x: self._raw(x, "cdf") - q, lo, hi, xtol=1e-12))

    # -- public: the variable minus its mean ---------------------------------

    def pdf(self, x):
        return self._raw(np.asarray(x, dtype=float) + self._mean(), "pdf")

    def cdf(self, x):
        x = np.asarray(x, dtype=float) + self._mean()
        if self.kind == "skewt":
            return np.vectorize(lambda v: self._raw(v, "cdf"), otypes=[float])(x)[()]
        return self._raw(x, "cdf")

    def quantile(self, q):
        return self._raw_quantile(q) - self._mean()

    def sample(self, n, rng):
        """n i.i.d. mean-zero draws from a Generator."""
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
        return raw - self._mean()


def density_weights(dist, grid):
    """Reweight a grid by the error density at each level's quantile.

    w_k = pdf(quantile(tau_k)) — levels in the distribution's high-density
    region get more weight.  Invariant to the shift to mean zero.
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
    rng = np.random.default_rng(seed)
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
        q = np.array([self.dist.quantile(tau) for tau in grid.levels])
        lam = np.repeat(self.loadings0[None], q.size, axis=0)
        if self.dgp == "location-shift":
            return np.concatenate([lam, np.repeat(q[:, None, None], lam.shape[1], axis=1)], axis=2)
        lam[:, :, 2] *= q[:, None]
        return lam


def gen_location_shift(N, T, dist, seed):
    """Panel with three AR(1) factors and additive idiosyncratic errors.

    X_it = lam1_i f1_t + lam2_i f2_t + lam3_i f3_t + eps_it with AR
    coefficients 0.8, 0.5, 0.2, standard-normal loadings, and mean-zero
    errors.  ``np.random.default_rng(seed)`` draws, in order: the three
    factor paths (each as :func:`ar1_series`), the N×3 loadings, and the
    T·N errors in row-major (t, i) order.  Returns ``(Panel, SimTruth)``.
    """
    if N < 1 or T < 1:
        raise ValueError(f"need N, T >= 1, got N={N}, T={T}")
    rng = np.random.default_rng(seed)
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
    it.  ``np.random.default_rng(seed)`` draws, in order: f1 and f2 (each as
    :func:`ar1_series`, coefficients 0.8 and 0.5), the T draws behind f3, the
    N×2 loadings of f1 and f2, the N draws behind lam3, and the T·N errors
    in row-major (t, i) order.  Returns ``(Panel, SimTruth)``.
    """
    if N < 1 or T < 1:
        raise ValueError(f"need N, T >= 1, got N={N}, T={T}")
    rng = np.random.default_rng(seed)
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


#: ``--dgp`` names and their generators; ``location-scale`` is short for
#: ``location-scale-shift``.
DGPS = {
    "location-shift": gen_location_shift,
    "location-scale": gen_location_scale_shift,
    "location-scale-shift": gen_location_scale_shift,
}


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
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution {name!r}")
    return ErrorDist(name, args)
