"""The explicit de Rham basis on the unit cube and its exact identities.

The basis n-forms are, with x = z*t_1*...*t_n and E_r the Eulerian
polynomials,

    omega(n, 0) = dt_1...dt_n
    omega(n, k) = z * E_{n-k}(x) / (1 - x)^{n-k+1} dt_1...dt_n   (1 <= k <= n)

Variable 0 is always z; variables 1..n are the cube coordinates.
Derivative identities are decided exactly, by polynomial cross-multiplication,
never by sampling: the k = 1 relation holds only up to an exact term, and the
symbolic layer must keep that distinction sharp.

The one numerical operation is the period identity: integrate_cube sums
omega(n, k) over the cube as the one-dimensional integral in
s = -log(t_1...t_n) that it equals exactly (proof in its docstring), by a
double-exponential trapezoid rule in float64.
"""

import math
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

    def product_variable_degree(self):
        """Numerator degree in the product variable x = z t_1...t_n."""
        if self.n == 0 or self.num.is_zero():
            return 0
        return max(min(mono[1:]) for mono in self.num.terms)

    def __repr__(self):
        tag = "".join(f" dt{i}" for i in range(1, self.n + 1)) or " (0-form)"
        names = ["z"] + [f"t{i}" for i in range(1, self.n + 1)]
        num, den = pretty(self.num, names), pretty(self.den, names)
        return f"({num}) / ({den})" + tag


def pretty(poly, names):
    """Render with the variable names ``names`` instead of x0, x1, ..."""
    text = repr(poly)
    for i in range(poly.nvars - 1, -1, -1):  # x12 before x1
        text = text.replace(f"x{i}", names[i])
    return text


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
    num = MPoly(nv, {})
    for (d,), c in eulerian(r).terms.items():
        num = num + c * z * x ** d
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


# Halvings of the step after h = 1/2: at most 2^(_HALVINGS + 4) + 1 = 65 537
# nodes a level, so a request that cannot converge still ends in milliseconds.
_HALVINGS = 12


def _distance_to_cut(z):
    z = complex(z)
    if z.real >= 1.0:
        return abs(z.imag)
    return abs(z - 1.0)


def integrate_cube(n, k, z, tol):
    """Integral of omega(n, k) over the unit n-cube, as the one-dimensional
    integral it equals, by a double-exponential trapezoid rule in float64.

    The pushforward.  The coefficient of omega(n, k) is g(z t_1...t_n), with
    g(x) = z E_{n-k}(x) / (1 - x)^(n-k+1) for k >= 1 and g = 1 for k = 0.
    For every g continuous on the segment z [0, 1],

        int_[0,1]^n g(z t_1...t_n) dt
            = int_0^oo g(z e^-s) s^(n-1) e^-s / (n-1)! ds.

    Proof.  Put t_i = e^(-y_i): dt_i = e^(-y_i) dy_i maps [0, oo)^n onto
    (0, 1]^n, so the left side is the integral over y in [0, oo)^n of
    g(z e^-s) e^-s with s = y_1 + ... + y_n.  The map
    (y_1, ..., y_n) -> (y_1, ..., y_(n-1), s) has Jacobian 1, and for fixed s
    the first n - 1 coordinates range over the simplex y_i >= 0,
    y_1 + ... + y_(n-1) <= s, of volume s^(n-1) / (n-1)!.  The integrand is
    bounded by max |g| e^-s, which is integrable on [0, oo)^n, so Fubini's
    theorem integrates the simplex first and leaves the right side.  (In
    words: the -log t_i are independent Exp(1) variables, so s = -log u,
    u = t_1...t_n, has the Gamma(n, 1) density.)  With g = 1 the right side
    is 1, and k = 0 goes through the same rule as every other k.

    The rule.  s = exp((pi/2) sinh t) maps the real t-line onto (0, oo) with
    ds = s (pi/2) cosh t dt, and the integrand in t,
    g(z e^-s) s^n e^-s (pi/2) cosh t / (n-1)!, decays double exponentially
    at both ends (Takahasi and Mori 1974).  The trapezoid sum runs over
    t in [-4, 4], that is s in [s_-, s_+] with s_- < 2.5e-19 and
    s_+ > 4e18: the tails left out add at most max |g| (s_-^n / n! + e^-s_+),
    below the rounding of any sum that max |g| enters.  The step starts
    at h = 1/2 and is halved, at most _HALVINGS times, until two successive
    sums differ by at most tol; the finer one is returned.  A difference
    below the rounding of the sum, eps * sum |term|, says nothing, so a tol
    below that floor is never met and ends in IntegrationError.  The error of
    the trapezoid rule falls like exp(-2 pi d / h), where d is the half-width
    of the strip in t on which the integrand is analytic; the pole of g at
    s = log z is what narrows it, so z near the cut needs more halvings.

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
    e = eulerian(r)
    descending = [float(e.terms.get((d,), 0))
                  for d in range(e.degree_in(0), -1, -1)]
    prev = None
    for level in range(_HALVINGS + 1):
        h = 0.5 ** (level + 1)
        t = np.linspace(-4.0, 4.0, 2 ** (level + 4) + 1)  # step h
        log_s = 0.5 * np.pi * np.sinh(t)
        s = np.exp(log_s)
        if k == 0:
            g = 1.0
        else:
            x = zc * np.exp(-s)
            g = zc * np.polyval(descending, x) / (1.0 - x) ** (r + 1)
        terms = g * np.exp(n * log_s - s) * np.cosh(t)
        terms *= 0.5 * np.pi * h / math.factorial(n - 1)
        val = complex(terms.sum())
        floor = np.finfo(float).eps * np.abs(terms).sum()
        if prev is not None and max(abs(val - prev), floor) <= tol:
            return mp.mpc(val)
        prev = val
    raise IntegrationError(
        f"quadrature did not converge to tol={tol} in {_HALVINGS} halvings "
        f"of the step")
