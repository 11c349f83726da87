"""The explicit de Rham basis on the unit cube and its exact identities.

The basis n-forms are, with x = z*t_1*...*t_n and E_r the Eulerian
polynomials,

    omega(n, 0) = dt_1...dt_n
    omega(n, k) = z * E_{n-k}(x) / (1 - x)^{n-k+1} dt_1...dt_n   (1 <= k <= n)

Variable 0 is always z; variables 1..n are the cube coordinates.
Derivative identities are decided exactly, by polynomial cross-multiplication,
never by sampling: the k = 1 relation holds only up to an exact term, and the
symbolic layer must keep that distinction sharp.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DomainError, IntegrationError
from .exact import eulerian
from .mpoly import MPoly, rational_functions_equal


@dataclass(frozen=True)
class RationalForm:
    """(num/den) * dt_1...dt_n with exact multivariate coefficients."""

    n: int
    num: MPoly
    den: MPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ValueError("denominator is identically zero")
        if self.num.nvars != self.n + 1 or self.den.nvars != self.n + 1:
            raise ValueError("coefficient polynomials must use variables (z, t1..tn)")

    def d_dz(self):
        """z-derivative, as a new RationalForm (quotient rule, then an
        opportunistic exact cancellation of the denominator)."""
        p, q = self.num, self.den
        num = p.diff(0) * q - p * q.diff(0)
        den = q * q
        reduced = num.divide_exact(q)
        if reduced is not None:
            num, den = reduced, q
        return RationalForm(self.n, num, den)

    def equals(self, other):
        return self.n == other.n and rational_functions_equal(
            self.num, self.den, other.num, other.den)

    def eval_at(self, z, ts):
        """Numerical value of the coefficient at (z, t_1..t_n)."""
        vals = [z] + list(ts)
        return self.num.eval(vals) / self.den.eval(vals)

    def product_variable_degree(self):
        """Numerator degree in the product variable x = z t_1...t_n."""
        if self.n == 0 or self.num.is_zero():
            return 0
        return max(min(mono[1:]) for mono in self.num.terms)

    def __repr__(self):
        tag = "".join(f" dt{i}" for i in range(1, self.n + 1)) or " (0-form)"
        return f"({_pretty(self.num)}) / ({_pretty(self.den)})" + tag


def _pretty(poly):
    """Render with the coordinate names z, t1..tn instead of x0, x1..."""
    text = repr(poly)
    for i in range(poly.nvars - 1, 0, -1):
        text = text.replace(f"x{i}", f"t{i}")
    return text.replace("x0", "z")


def _product_monomial(n):
    """t_1*...*t_n as an MPoly in (z, t1..tn)."""
    return MPoly(n + 1, {(0,) + (1,) * n: Fraction(1)})


def omega(n, k, _exponent_shift=0):
    """The k-th basis form in weight n.  (The private exponent shift exists
    so tests can break the denominator and watch the identities fail.)"""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    nv = n + 1
    if k == 0:
        return RationalForm(n, MPoly.const(nv, 1), MPoly.const(nv, 1))
    r = n - k
    z = MPoly.var(nv, 0)
    u = _product_monomial(n)
    x = z * u
    e = eulerian(r)
    num = MPoly(nv, {})
    xpow = MPoly.const(nv, 1)
    for c in e.coeffs:
        if c:
            num = num + c * z * xpow
        xpow = xpow * x
    den = (MPoly.const(nv, 1) - x) ** (r + 1 + _exponent_shift)
    return RationalForm(n, num, den)


def gauge_form():
    """nu = -(z/(1-z)) * t(1-t)/(1-zt) as an exact (num, den) pair in (z, t)."""
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    num = -1 * z * t * (one - t)
    den = (one - z) * (one - z * t)
    return num, den


def form_recurrence_check(n, k):
    """Exact identity d/dz omega(n,k) = (1/z) omega(n,k-1), for 2 <= k <= n,
    together with d/dz omega(n,0) = 0."""
    if not 2 <= k <= n:
        raise DomainError("recurrence check needs 2 <= k <= n")
    if not omega(n, 0).d_dz().num.is_zero():
        return False
    lhs = omega(n, k).d_dz()
    rhs = omega(n, k - 1)
    z = MPoly.var(n + 1, 0)
    return rational_functions_equal(lhs.num, lhs.den, rhs.num, z * rhs.den)


def gauge_exactness_check(nu_num=None, nu_den=None):
    """Exact statement that d/dz omega(1,1) - (1/(1-z)) omega(1,0) = d/dt nu,
    with nu vanishing at t = 0 and t = 1.

    A different candidate (num, den) pair for nu may be supplied; the check
    then reports whether that candidate satisfies both conditions.
    """
    if nu_num is None or nu_den is None:
        nu_num, nu_den = gauge_form()
    one = MPoly.const(2, 1)
    z = MPoly.var(2, 0)

    # boundary conditions: nu(t=0) = nu(t=1) = 0 as rational functions of z
    for t_val in (0, 1):
        if nu_den.substitute(1, t_val).is_zero():
            return False
        if not nu_num.substitute(1, t_val).is_zero():
            return False

    # d/dz omega(1,1) - (1/(1-z)) omega(1,0), over the common denominator
    w11 = omega(1, 1)
    w10 = omega(1, 0)
    d = w11.d_dz()
    lhs_num = d.num * (one - z) * w10.den - w10.num * d.den
    lhs_den = d.den * (one - z) * w10.den

    dt_num = nu_num.diff(1) * nu_den - nu_num * nu_den.diff(1)
    dt_den = nu_den * nu_den
    return rational_functions_equal(lhs_num, lhs_den, dt_num, dt_den)


_MAX_QUAD_ORDER = 256


def _distance_to_cut(z):
    z = complex(z)
    if z.real >= 1.0:
        return abs(z.imag)
    return abs(z - 1.0)


def _legendre(m, x):
    """P_m(x) and P_m'(x) by the recurrence (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, m * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(m):
    """The m-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Each node is found by Newton's method on P_m from Tricomi's estimate
    cos(pi (i - 1/4) / (m + 1/2)), and its weight is 2 / ((1 - x^2) P_m'(x)^2).
    As in numpy's ``leggauss``, nodes and weights are then symmetrized about
    0 and the weights scaled to sum 2.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(m, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    dp = _legendre(m, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = (x - x[::-1]) / 2
    w = (w + w[::-1]) / 2
    return x, w * (2.0 / w.sum())


def _tensor_value(coeffs, z, nodes, weights, n, k, r):
    """One tensor-product Gauss-Legendre pass; nodes/weights already on [0,1]."""
    order = len(nodes)
    # fold the first axis in a python loop once the full grid would be large
    chunked = order ** n > (1 << 24)
    axes = n - 1 if chunked else n
    prod = np.array([1.0 + 0.0j])
    wprod = np.array([1.0])
    for _ in range(axes):
        prod = np.multiply.outer(prod, nodes).ravel()
        wprod = np.multiply.outer(wprod, weights).ravel()

    def f_of(u, w):
        x = z * u
        if k == 0:
            vals = np.ones_like(x)
        else:
            horner = np.full_like(x, coeffs[-1])
            for c in coeffs[-2::-1]:
                horner = horner * x + c
            vals = z * horner / (1.0 - x) ** (r + 1)
        return np.sum(vals * w)

    if not chunked:
        return f_of(prod, wprod)
    acc = 0.0 + 0.0j
    for t1, w1 in zip(nodes, weights):
        acc += f_of(prod * t1, wprod * w1)
    return acc


def integrate_cube(n, k, z, tol, max_order=_MAX_QUAD_ORDER):
    """Integral of omega(n, k) over the unit n-cube by tensor-product
    Gauss-Legendre quadrature (the rule of ``_gauss_legendre`` mapped to
    [0, 1] on each axis), doubling the order per axis from 4 until two
    successive refinements agree within tol.

    Cost guard: 1 <= n <= 4.  The point z must keep distance >= 0.05 from
    the half-line [1, oo).
    """
    if not 1 <= n <= 4:
        raise DomainError("integrate_cube supports 1 <= n <= 4")
    if not 0 <= k <= n:
        raise DomainError("k must satisfy 0 <= k <= n")
    if tol <= 0:
        raise DomainError("tol must be positive")
    zc = complex(mp.mpc(mp.mpmathify(z)))
    if _distance_to_cut(zc) < 0.05:
        raise DomainError("z too close to the half-line [1, oo)")
    r = n - k
    coeffs = None
    if k >= 1:
        coeffs = np.array([float(c) for c in eulerian(r).coeffs], dtype=complex)
    prev = None
    order = 4
    while order <= max_order:
        x, w = _gauss_legendre(order)
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
        val = _tensor_value(coeffs, zc, nodes, weights, n, k, r)
        if prev is not None and abs(val - prev) <= tol:
            return mp.mpc(val)
        prev = val
        order *= 2
    raise IntegrationError(
        f"quadrature did not converge to tol={tol} by order {max_order} per axis")
