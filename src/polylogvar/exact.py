"""Exact rational arithmetic: matrices, Eulerian polynomials, and the
certification of high-precision floats on a lattice (1/q) Z.

Rationals are `fractions.Fraction` throughout (arbitrary-size integers,
normalized gcd, positive denominator).  Polynomials are `mpoly.MPoly`, the
package's one polynomial class; the Eulerian polynomials are MPolys in one
variable.
"""

from fractions import Fraction

from .mpoly import MPoly


# E_0, E_1, ... as far as any call has needed them, shared by the process.
_EULERIAN = [MPoly.const(1, 1)]


def eulerian(r):
    """r-th Eulerian polynomial, as an MPoly in one variable x, by the
    recurrence E_{k+1}(x) = x(1-x) E_k'(x) + (1+kx) E_k(x) from E_0 = 1.

    Each E_k is built once per process, by extending a module-level list,
    and the list's own MPoly is returned: callers must not mutate it.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    x = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    while len(_EULERIAN) <= r:
        k, E = len(_EULERIAN) - 1, _EULERIAN[-1]
        _EULERIAN.append(x * (one - x) * E.diff(0) + (one + k * x) * E)
    return _EULERIAN[r]


def rational_reconstruct(x, denominator, radius):
    """k / q for q = ``denominator`` and k = round(q x), the point of the
    lattice (1/q) Z nearest ``x``, when it is the only one within ``radius``
    of x: radius < 1 / (2 q), and |x - k / q| <= radius.  None otherwise.

    So a value known to lie in (1/q) Z and within ``radius`` of x is k / q.
    ``x`` and ``radius`` may be ints, floats or Fractions; every comparison
    is exact, on the integers of x = a / b and radius = c / d.
    A tie, q x halfway between integers, lies 1 / (2 q) from both
    neighbours, beyond any radius that passes, so k rounds it up.
    """
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    x, radius = Fraction(x), Fraction(radius)
    (a, b), (c, d) = x.as_integer_ratio(), radius.as_integer_ratio()
    if c < 0:
        raise ValueError("radius must be nonnegative")
    q = denominator
    k = (2 * q * a + b) // (2 * b)
    if 2 * q * c < d and abs(q * a - k * b) * d <= c * q * b:
        return Fraction(k, q)
    return None


class RationalMatrix:
    """Rectangular matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(v if isinstance(v, Fraction) else Fraction(v)
                              for v in row) for row in entries)
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
