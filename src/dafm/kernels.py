"""Order-m smoothing kernels on [-1,1] and the smoothing configuration.

Conventions
-----------
k is an even polynomial kernel supported on [-1, 1]: integral 1, moments
1..m-1 vanishing, twice continuously differentiable (k and k' vanish at the
support edges).  K(u) = int_u^1 k(s) ds is the survival function used by the
smoothed check loss; K(u) = 1 for u <= -1 and 0 for u >= 1 exactly.
Polynomial coefficients are stored ascending in powers of s.

``_horner``, ``_pdf_vals`` and ``_survival_vals`` are the one evaluator of
these polynomials on arrays: the ``Kernel`` methods and the smoothed-loss
cores in ``losses`` all go through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = ["Kernel", "SmoothConfig", "build_kernel", "default_bandwidth_exponent"]


def _horner(coef, x):
    """Evaluate a polynomial with ascending coefficients at the array x."""
    out = np.zeros_like(x)
    for idx in range(coef.size - 1, -1, -1):
        out = out * x + coef[idx]
    return out


def _survival_vals(surv_coef, u):
    """K(u) with exact saturation outside [-1, 1]."""
    return np.where(u <= -1.0, 1.0, np.where(u >= 1.0, 0.0, _horner(surv_coef, u)))


def _pdf_vals(coef, u):
    """The polynomial ``coef`` on (-1, 1), zero outside: k(u), or k'(u) for deriv_coef."""
    return np.where(np.abs(u) < 1.0, _horner(coef, u), 0.0)


def _scalar_out(out):
    return out if out.ndim else float(out)


def _solve_fraction_system(M, b):
    """Exact Gaussian elimination over Fractions (small dense systems)."""
    n = len(b)
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1, 1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [vr - f * vc for vr, vc in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


@dataclass(frozen=True)
class Kernel:
    """Polynomial kernel of even order m with support [-1, 1].

    coef holds k's ascending polynomial coefficients; survival_coef and
    deriv_coef are the matching representations of K(u) = int_u^1 k and k'.
    ``conforming`` is True when the order admits a bandwidth exponent under
    1/m < c < 1/6 (i.e. m >= 8); the m=2 Epanechnikov variant exists for unit
    tests only.
    """

    order: int
    coef: np.ndarray
    survival_coef: np.ndarray = field(default=None)
    deriv_coef: np.ndarray = field(default=None)

    def __post_init__(self):
        coef = np.array(self.coef, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)
        if self.survival_coef is None:
            # K(u) = 1/2 - A(u) with A the antiderivative of k vanishing at 0
            surv = np.zeros(coef.size + 1)
            surv[0] = 0.5
            surv[1:] = -coef / np.arange(1, coef.size + 1)
            object.__setattr__(self, "survival_coef", surv)
        if self.deriv_coef is None:
            dc = coef[1:] * np.arange(1, coef.size)
            object.__setattr__(self, "deriv_coef", dc)
        self.survival_coef.setflags(write=False)
        self.deriv_coef.setflags(write=False)

    @property
    def conforming(self):
        return self.order >= 8

    def pdf(self, u):
        return _scalar_out(_pdf_vals(self.coef, np.asarray(u, dtype=float)))

    def survival(self, u):
        """K(u) = int_u^1 k(s) ds, exactly 1 below -1 and 0 above 1."""
        return _scalar_out(_survival_vals(self.survival_coef, np.asarray(u, dtype=float)))

    def deriv(self, u):
        return _scalar_out(_pdf_vals(self.deriv_coef, np.asarray(u, dtype=float)))


def build_kernel(m):
    """Construct the order-m kernel.

    m must be even with m >= 8 (Assumption-compatible orders); m=2 returns the
    Epanechnikov kernel for unit tests, flagged non-conforming.  Orders 4 and 6
    are rejected: no admissible bandwidth exponent exists below order 8.
    """
    m = int(m)
    if m == 2:
        return Kernel(order=2, coef=np.array([0.75, 0.0, -0.75]))
    if m % 2 != 0:
        raise ValueError("kernel order must be even, got %d" % m)
    if m < 8:
        raise ValueError("kernel order must be 2 (test variant) or an even value >= 8, got %d" % m)

    # k(s) = q(s) * (1-s^2)^3 with q even of degree m-2; moment system over Fractions:
    #   int s^{2i} q(s) (1-s^2)^3 ds = delta_{i0},  i = 0..m/2-1,
    # using int_{-1}^{1} s^{2a} (1-s^2)^3 ds = 96 / ((2a+1)(2a+3)(2a+5)(2a+7)).
    half = m // 2

    def base_moment(a):
        return Fraction(96, (2 * a + 1) * (2 * a + 3) * (2 * a + 5) * (2 * a + 7))

    M = [[base_moment(i + j) for j in range(half)] for i in range(half)]
    rhs = [Fraction(1) if i == 0 else Fraction(0) for i in range(half)]
    q_even = _solve_fraction_system(M, rhs)  # coefficients of s^0, s^2, ..., s^{m-2}

    # expand q(s) * (1 - 3 s^2 + 3 s^4 - s^6) exactly, then convert to float
    base = [Fraction(1), Fraction(0), Fraction(-3), Fraction(0), Fraction(3), Fraction(0), Fraction(-1)]
    q_full = []
    for c in q_even:
        q_full.extend([c, Fraction(0)])
    q_full = q_full[:-1]  # degree m-2
    prod = [Fraction(0)] * (len(q_full) + len(base) - 1)
    for i, qa in enumerate(q_full):
        if qa == 0:
            continue
        for j, bb in enumerate(base):
            prod[i + j] += qa * bb
    return Kernel(order=m, coef=np.array([float(c) for c in prod]))


def default_bandwidth_exponent(m):
    """Midpoint of the admissible range (1/m, 1/6)."""
    if m <= 6:
        raise ValueError("no admissible bandwidth exponent exists for order %d" % m)
    return (1.0 / m + 1.0 / 6.0) / 2.0


@dataclass(frozen=True)
class SmoothConfig:
    """Kernel plus bandwidth for the smoothed check loss.

    Either construct from a sample size via :meth:`for_sample` (bandwidth
    h = T^(-c) with the exponent validated against 1/m < c < 1/6) or pass an
    explicit positive bandwidth with ``bandwidth_exponent=None`` (used by
    agreement tests that need un-attainable bandwidths like 1e-8).
    """

    kernel: Kernel
    bandwidth: float
    bandwidth_exponent: float = None

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be positive, got %r" % (self.bandwidth,))
        c = self.bandwidth_exponent
        if c is not None:
            m = self.kernel.order
            if not (1.0 / m < c < 1.0 / 6.0):
                raise ValueError(
                    "bandwidth exponent %g violates 1/m < c < 1/6 for kernel order m=%d" % (c, m)
                )

    @classmethod
    def for_sample(cls, T, kernel=None, bandwidth_exponent=None):
        """Bandwidth h = T^(-c); defaults: order-8 kernel, c = (1/m + 1/6)/2."""
        if T < 2:
            raise ValueError("sample size must be >= 2")
        if kernel is None:
            kernel = build_kernel(8)
        c = bandwidth_exponent
        if c is None:
            c = default_bandwidth_exponent(kernel.order)
        h = float(T) ** (-c)
        return cls(kernel=kernel, bandwidth=h, bandwidth_exponent=c)

    @property
    def h(self):
        return self.bandwidth
