"""Order-m smoothing kernels on [-1,1] and the smoothing configuration.

Conventions
-----------
k is an even polynomial kernel supported on [-1, 1]: integral 1, moments
1..m-1 vanishing, twice continuously differentiable (k and k' vanish at the
support edges).  K(u) = int_u^1 k(s) ds is the survival function used by the
smoothed check loss; K(u) = 1 for u <= -1 and 0 for u >= 1 exactly.
Polynomial coefficients are stored ascending in powers of s.

Because k is even, every quantity built from it is one short polynomial in
v = u^2 on |u| < 1.  With a_2j the even coefficients of k:

    k(u)              = P(v),      P_j = a_2j
    k'(u)             = u D(v),    D_j = (2j+2) a_2j+2
    K(u)              = 1/2 - u S(v),  S_j = a_2j / (2j+1)
    K(u) - u k(u)     = 1/2 - u G(v),  G_j = a_2j (2j+2) / (2j+1)
    2 k(u) + u k'(u)  = C(v),      C_j = a_2j (2j+2)

``Kernel`` derives these v-coefficients once.  ``_reduce`` forms u = e/h
clipped to [-1, 1], v = min(u^2, 1) and the mask |u| >= 1, and
``_even_vals`` is the one evaluator: Horner in v, in place, with an exact
edge value on the mask, so that the saturated values outside [-1, 1] are
exact.  The ``Kernel`` methods and the smoothed-loss cores in ``losses``
all go through these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = ["Kernel", "SmoothConfig", "build_kernel", "default_bandwidth_exponent"]


def _reduce(e, h):
    """u = e/h clipped to [-1, 1], v = min(u^2, 1) and the mask |u| >= 1,
    as new arrays of e's shape (0-d for a scalar)."""
    u = np.divide(e, h, out=np.empty(np.shape(e)))
    v = np.multiply(u, u, out=np.empty_like(u))
    outside = v >= 1.0
    np.minimum(v, 1.0, out=v)
    np.clip(u, -1.0, 1.0, out=u)
    return u, v, outside


def _even_vals(coef, v, outside, edge):
    """sum_j coef[j] v^j by Horner in place, and exactly ``edge`` where ``outside``."""
    out = np.full_like(v, coef[-1])
    for c in coef[-2::-1]:
        out *= v
        out += c
    np.copyto(out, edge, where=outside)
    return out


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


@dataclass(frozen=True, eq=False)
class Kernel:
    """Polynomial kernel of even order m with support [-1, 1].

    coef holds k's ascending polynomial coefficients in s, whose odd entries
    must be zero.  ``pdf_v``, ``deriv_v``, ``surv_v``, ``grad_v`` and
    ``curv_v`` are the derived coefficients P, D, S, G and C in v = s^2 (see
    the module docstring).  ``conforming`` is True when the order admits a
    bandwidth exponent under 1/m < c < 1/6 (i.e. m >= 8); the m=2
    Epanechnikov variant exists for unit tests only.  Kernels compare and
    hash by ``(order, coef)``.
    """

    order: int
    coef: np.ndarray
    pdf_v: np.ndarray = field(init=False, repr=False, compare=False)
    deriv_v: np.ndarray = field(init=False, repr=False, compare=False)
    surv_v: np.ndarray = field(init=False, repr=False, compare=False)
    grad_v: np.ndarray = field(init=False, repr=False, compare=False)
    curv_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coef = np.array(self.coef, dtype=float)
        if np.any(coef[1::2] != 0.0):
            raise ValueError("kernel coefficients must be even: odd powers of s must be zero")
        a = coef[::2]
        twoj = 2.0 * np.arange(a.size)
        derived = dict(
            coef=coef,
            pdf_v=a,
            deriv_v=a[1:] * twoj[1:],
            surv_v=a / (twoj + 1.0),
            grad_v=a * (twoj + 2.0) / (twoj + 1.0),
            curv_v=a * (twoj + 2.0),
        )
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _key(self):
        return self.order, tuple(self.coef.tolist())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Kernel) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def conforming(self):
        return self.order >= 8

    def pdf(self, u):
        _, v, outside = _reduce(np.asarray(u, dtype=float), 1.0)
        return _scalar_out(_even_vals(self.pdf_v, v, outside, 0.0))

    def survival(self, u):
        """K(u) = int_u^1 k(s) ds, exactly 1 below -1 and 0 above 1."""
        u, v, outside = _reduce(np.asarray(u, dtype=float), 1.0)
        out = _even_vals(self.surv_v, v, outside, 0.5)
        out *= u
        np.subtract(0.5, out, out=out)
        return _scalar_out(out)

    def deriv(self, u):
        u, v, outside = _reduce(np.asarray(u, dtype=float), 1.0)
        out = _even_vals(self.deriv_v, v, outside, 0.0)
        out *= u
        return _scalar_out(out)


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
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be finite and positive, got %r" % (self.bandwidth,))
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
