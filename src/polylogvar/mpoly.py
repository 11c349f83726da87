"""Sparse multivariate polynomials with exact Fraction coefficients.

MPoly is the package's one polynomial class: the coefficients of the de Rham
forms in (z, t_1..t_n), and the Eulerian polynomials in one variable x.  A
polynomial in ``nvars`` variables is a dict mapping exponent tuples to
nonzero Fractions.  Identities between rational functions are decided by
cross-multiplication, which needs nothing beyond exact ring arithmetic.
"""

from fractions import Fraction


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(mono) != nvars:
                        raise ValueError("bad exponent tuple")
                    self.terms[tuple(mono)] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars, i, power=1):
        mono = [0] * nvars
        mono[i] = power
        return cls(nvars, {tuple(mono): Fraction(1)})

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
            v = out.get(mono, Fraction(0)) + c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
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
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    v = out.get(mono, Fraction(0)) + c1 * c2
                    if v:
                        out[mono] = v
                    else:
                        out.pop(mono, None)
            return MPoly(self.nvars, out)
        return MPoly(self.nvars,
                     {m: c * Fraction(other) for m, c in self.terms.items()})

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
                m2 = tuple(m2)
                v = out.get(m2, Fraction(0)) + c * e
                if v:
                    out[m2] = v
                else:
                    out.pop(m2, None)
        return MPoly(self.nvars, out)

    def substitute(self, i, value):
        """Set variable i to an exact Fraction constant."""
        value = Fraction(value)
        out = {}
        for mono, c in self.terms.items():
            m2 = list(mono)
            e = m2[i]
            m2[i] = 0
            m2 = tuple(m2)
            v = out.get(m2, Fraction(0)) + c * value ** e
            if v:
                out[m2] = v
            else:
                out.pop(m2, None)
        return MPoly(self.nvars, out)

    def degree_in(self, i):
        if not self.terms:
            return 0
        return max(m[i] for m in self.terms)

    def divide_exact(self, divisor):
        """Quotient self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return MPoly(self.nvars, {})
        rem = dict(self.terms)
        # leading term of divisor under lex order
        dlead = max(divisor.terms)
        dc = divisor.terms[dlead]
        quot = {}
        while rem:
            mono = max(rem)
            c = rem[mono]
            qm = tuple(a - b for a, b in zip(mono, dlead))
            if any(e < 0 for e in qm):
                return None
            qc = c / dc
            quot[qm] = qc
            for m2, c2 in divisor.terms.items():
                tm = tuple(a + b for a, b in zip(qm, m2))
                v = rem.get(tm, Fraction(0)) - qc * c2
                if v:
                    rem[tm] = v
                else:
                    rem.pop(tm, None)
        return MPoly(self.nvars, quot)

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
