"""Exact rational arithmetic: matrices, Eulerian polynomials, and rational
reconstruction of high-precision floats.

Rationals are `fractions.Fraction` throughout (arbitrary-size integers,
normalized gcd, positive denominator), aliased as :data:`Rational`.
Polynomials are `mpoly.MPoly`, the package's one polynomial class; the
Eulerian polynomials are MPolys in one variable.
"""

from fractions import Fraction

import mpmath as mp

from .mpoly import MPoly

Rational = Fraction


def mpf_to_fraction(x):
    """Exact dyadic Fraction equal to the mpf ``x`` (no re-rounding)."""
    if not isinstance(x, mp.mpf):
        with mp.workprec(max(mp.mp.prec, 128)):
            x = mp.mpf(x)
    if x == 0:
        return Fraction(0)
    if not mp.isfinite(x):
        raise ValueError("cannot convert non-finite value to Fraction")
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    v = Fraction(man) * (Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** (-exp)))
    return -v if sign else v


def eulerian(r):
    """r-th Eulerian polynomial, as an MPoly in one variable x, by the
    recurrence E_{k+1}(x) = x(1-x) E_k'(x) + (1+kx) E_k(x) from E_0 = 1.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    x = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    x_one_minus_x = x * (one - x)
    E = one
    for k in range(r):
        E = x_one_minus_x * E.diff(0) + (one + k * x) * E
    return E


def rational_reconstruct(x, max_denominator, tolerance):
    """Continued-fraction convergent p/q of ``x`` with q <= max_denominator,
    provided |x - p/q| <= tolerance; None otherwise.

    ``x`` may be a float, Fraction, or mpmath mpf; the computation is exact.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if isinstance(x, Fraction):
        fx = x
    elif isinstance(x, float):
        fx = Fraction(x)
    else:
        fx = mpf_to_fraction(x)
    tol = tolerance if isinstance(tolerance, Fraction) else (
        Fraction(tolerance) if isinstance(tolerance, float) else mpf_to_fraction(tolerance))
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    # convergents of the continued fraction of fx
    p0, q0, p1, q1 = 0, 1, 1, 0
    a = fx
    while True:
        ai = a.numerator // a.denominator
        p0, q0, p1, q1 = p1, q1, ai * p1 + p0, ai * q1 + q0
        if q1 > max_denominator:
            p, q = p0, q0
            break
        rem = a - ai
        if rem == 0:
            p, q = p1, q1
            break
        a = 1 / rem
    if q < 1:
        return None
    cand = Fraction(p, q)
    if abs(fx - cand) <= tol:
        return cand
    return None


class RationalMatrix:
    """Rectangular matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        self.rows = len(entries)
        self.cols = len(entries[0])
        if any(len(row) != self.cols for row in entries):
            raise ValueError("matrix must be rectangular")
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return RationalMatrix(
            [[sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                  Fraction(0))
              for j in range(other.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self):
        return all(v == 0 for row in self.entries for v in row)

    def max_denominator(self):
        return max(v.denominator for row in self.entries for v in row)

    def __repr__(self):
        return "RationalMatrix(%s)" % [[str(v) for v in row] for row in self.entries]


def nilpotency_index(m):
    """Smallest k with (m - I)^k = 0; None if m - I is not nilpotent.

    Follows the convention that the identity matrix has index 0.
    The search stops at k = dimension (Cayley-Hamilton bound).
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    N = m - RationalMatrix.identity(n)
    if N.is_zero():
        return 0
    power = N
    for k in range(1, n + 1):
        if power.is_zero():
            return k
        if k < n:
            power = power * N
    # (m - I)^n nonzero: by Cayley-Hamilton it is never nilpotent
    return None
