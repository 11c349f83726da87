"""Sparse multivariate polynomials with exact rational coefficients.

MPoly is the package's one polynomial class: the coefficients of the de Rham
forms in (z, tau), tau = t_1...t_n, and the Eulerian polynomials in one
variable x.  A polynomial in ``nvars`` variables is a dict mapping exponent
tuples to nonzero coefficients, each an ``int`` when it is integral and a
``Fraction`` with denominator above 1 otherwise, never a float.  The forms and the
Eulerian polynomials have integer coefficients, so their arithmetic runs on
ints.  Identities between rational functions are decided by
cross-multiplication, which needs nothing beyond exact ring arithmetic.
"""

from fractions import Fraction
from operator import add


def _exact(c):
    """c as an int when it is integral, else as a Fraction; a float is
    converted exactly."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MPoly:
    """Sparse polynomial: ``terms`` maps exponent tuples of length ``nvars``
    to nonzero ints, or Fractions that are not integers."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        """Keep the nonzero coefficients of ``terms``, each made exact by
        _exact; every operation below leaves its zeros for this to drop."""
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = _exact(c)
                if c:
                    if len(mono) != nvars:
                        raise ValueError("bad exponent tuple")
                    self.terms[tuple(mono)] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MPoly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(map(add, m1, m2))
                    out[mono] = out.get(mono, 0) + c1 * c2
            return MPoly(self.nvars, out)
        other = _exact(other)
        return MPoly(self.nvars, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        out = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                m2 = list(mono)
                m2[i] = e - 1
                out[tuple(m2)] = c * e
        return MPoly(self.nvars, out)

    def substitute(self, i, value):
        """Set variable i to an exact rational constant."""
        value = _exact(value)
        out = {}
        for mono, c in self.terms.items():
            m2 = list(mono)
            e = m2[i]
            m2[i] = 0
            m2 = tuple(m2)
            out[m2] = out.get(m2, 0) + c * value ** e
        return MPoly(self.nvars, out)

    def degree_in(self, i):
        if not self.terms:
            return 0
        return max(m[i] for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            factors = [str(self.terms[mono])]
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def rational_functions_equal(num1, den1, num2, den2):
    """Decide num1/den1 == num2/den2 by cross-multiplication."""
    return (num1 * den2 - num2 * den1).is_zero()
