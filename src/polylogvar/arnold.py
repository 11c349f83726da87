"""The top-degree component of the graded-commutative algebra on generators
e_{i,j} subject to the three-term relations
e_{i,j} e_{i,k} - e_{i,j} e_{j,k} + e_{i,k} e_{j,k} = 0,
its symmetric-group character, and the induced-character and
sign-multiplicity identities it satisfies.

Monomials are sorted tuples of edge indices of the complete graph; the
relation span is reduced by exhaustive sparse elimination, capped at n = 7
for the dimension and n = 6 for the character.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .linalg_exact import sparse_rank, sparse_rref

MAX_DIMENSION_N = 7
MAX_CHARACTER_N = 6


def integer_partitions(n):
    """Partitions of n in decreasing-part tuples, longest parts first."""
    def rec(n, maxp):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in rec(n - p, p):
                yield (p,) + rest
    return list(rec(n, n))


def centralizer_order(lam):
    z = 1
    for part, mult in Counter(lam).items():
        z *= part ** mult * math.factorial(mult)
    return z


def class_size(lam, n):
    return math.factorial(n) // centralizer_order(lam)


def sign_of_class(lam, n):
    return (-1) ** (n - len(lam))


def cycle_type_representative(lam):
    """One permutation of cycle type lam, as a dict v -> image."""
    perm = {}
    x = 1
    for length in lam:
        cyc = list(range(x, x + length))
        for i, v in enumerate(cyc):
            perm[v] = cyc[(i + 1) % length]
        x += length
    return perm


@dataclass(frozen=True)
class ClassFunction:
    """A rational class function on the symmetric group, stored per cycle
    type (integer partition of n)."""

    n: int
    values: tuple  # Fractions, aligned with integer_partitions(n)

    def classes(self):
        return integer_partitions(self.n)

    def value(self, lam):
        return self.values[self.classes().index(tuple(lam))]

    def degree(self):
        return self.value((1,) * self.n)

    def inner(self, other):
        if self.n != other.n:
            raise ValueError("class functions on different groups")
        acc = Fraction(0)
        for lam, a, b in zip(self.classes(), self.values, other.values):
            acc += class_size(lam, self.n) * a * b
        return acc / math.factorial(self.n)

    def tensor_sign(self):
        return ClassFunction(self.n, tuple(
            v * sign_of_class(lam, self.n)
            for lam, v in zip(self.classes(), self.values)))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.n == other.n
                and self.values == other.values)


def _sort_sign(seq):
    """Sorted tuple and permutation sign; zero sign on repeats."""
    seq = list(seq)
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] == seq[b]:
                return None, 0
            if seq[a] > seq[b]:
                sign = -sign
    return tuple(sorted(seq)), sign


class _ArnoldTop:
    """Degree-(n-1) component: monomial span modulo all relation multiples."""

    def __init__(self, n):
        self.n = n
        self.edges = list(itertools.combinations(range(1, n + 1), 2))
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        E = len(self.edges)
        self.monos = list(itertools.combinations(range(E), n - 1))
        self.midx = {m: i for i, m in enumerate(self.monos)}
        self._rows = list(self._relation_rows())
        self._rref = None
        self._rank = None

    def _relation_rows(self):
        E = len(self.edges)
        for (i, j, k) in itertools.combinations(range(1, self.n + 1), 3):
            terms = ((self.eidx[(i, j)], self.eidx[(i, k)], 1),
                     (self.eidx[(i, j)], self.eidx[(j, k)], -1),
                     (self.eidx[(i, k)], self.eidx[(j, k)], 1))
            for rest in itertools.combinations(range(E), self.n - 3):
                row = {}
                for e1, e2, coef in terms:
                    mono, sgn = _sort_sign((e1, e2) + rest)
                    if sgn:
                        c = self.midx[mono]
                        v = row.get(c, Fraction(0)) + coef * sgn
                        if v:
                            row[c] = v
                        else:
                            row.pop(c, None)
                if row:
                    yield row

    def rank(self):
        if self._rank is None:
            if self._rref is not None:
                self._rank = len(self._rref)
            else:
                self._rank = sparse_rank(self._rows)
        return self._rank

    def dimension(self):
        return len(self.monos) - self.rank()

    def rref(self):
        if self._rref is None:
            self._rref = sparse_rref(self._rows)
            self._rank = len(self._rref)
        return self._rref

    def act(self, perm, mono_idx):
        """Signed image of a basis monomial under a vertex permutation."""
        seq = []
        for ei in self.monos[mono_idx]:
            a, b = self.edges[ei]
            a, b = perm[a], perm[b]
            if a > b:
                a, b = b, a
            seq.append(self.eidx[(a, b)])
        mono, sgn = _sort_sign(seq)
        return sgn, self.midx[mono]

    def trace(self, perm):
        """Trace of the permutation action on the quotient, evaluated on the
        non-pivot monomial basis by reduction against the echelon relations."""
        rref = self.rref()
        tr = Fraction(0)
        for b in range(len(self.monos)):
            if b in rref:
                continue
            sgn, m = self.act(perm, b)
            if m == b:
                tr += sgn
            elif m in rref:
                # pivot row: m + tail = 0, so m reduces to -tail
                cb = rref[m].get(b)
                if cb:
                    tr -= sgn * cb
        return tr


@lru_cache(maxsize=None)
def _arnold_top(n):
    return _ArnoldTop(n)


class ArnoldElement:
    """An element of the top component, stored in echelon-reduced
    coordinates: support only on non-pivot monomials of the relation RREF."""

    __slots__ = ("n", "coords")

    def __init__(self, n, coords=None):
        self.n = n
        self.coords = {}
        if coords:
            top = _arnold_top(n)
            rref = top.rref()
            for mono_idx, c in coords.items():
                c = Fraction(c)
                if not c:
                    continue
                if mono_idx in rref:
                    # pivot monomial: substitute its (negated) tail
                    for c2, v2 in rref[mono_idx].items():
                        if c2 == mono_idx:
                            continue
                        self._add(c2, -c * v2)
                else:
                    self._add(mono_idx, c)

    def _add(self, idx, c):
        v = self.coords.get(idx, Fraction(0)) + c
        if v:
            self.coords[idx] = v
        else:
            self.coords.pop(idx, None)

    @classmethod
    def from_edges(cls, n, edge_pairs):
        """The product of generators e_{i,j} over the given vertex pairs,
        reduced modulo the relations."""
        top = _arnold_top(n)
        if len(edge_pairs) != n - 1:
            raise ValueError("need degree n-1 monomials")
        seq = []
        for (a, b) in edge_pairs:
            if a > b:
                a, b = b, a
            seq.append(top.eidx[(a, b)])
        mono, sgn = _sort_sign(seq)
        if sgn == 0:
            return cls(n)
        return cls(n, {top.midx[mono]: sgn})

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        out = ArnoldElement(self.n)
        out.coords = dict(self.coords)
        for idx, c in other.coords.items():
            out._add(idx, c)
        return out

    def __rmul__(self, scalar):
        out = ArnoldElement(self.n)
        out.coords = {i: Fraction(scalar) * c for i, c in self.coords.items()}
        return out

    def __eq__(self, other):
        return (isinstance(other, ArnoldElement) and self.n == other.n
                and self.coords == other.coords)

    def apply(self, perm):
        """Image under a vertex permutation (dict v -> image)."""
        top = _arnold_top(self.n)
        raw = {}
        for idx, c in self.coords.items():
            sgn, m = top.act(perm, idx)
            raw[m] = raw.get(m, Fraction(0)) + sgn * c
        return ArnoldElement(self.n, raw)


def arnold_basis(n):
    """Echelon basis of the top component: one ArnoldElement per non-pivot
    monomial, as (edge pairs, element) for inspection."""
    top = _arnold_top(n)
    rref = top.rref()
    out = []
    for idx, mono in enumerate(top.monos):
        if idx not in rref:
            pairs = tuple(top.edges[e] for e in mono)
            elem = ArnoldElement(n, {idx: 1})
            out.append((pairs, elem))
    return out


@lru_cache(maxsize=None)
def arnold_dimension(n):
    """Dimension of the degree-(n-1) component, by exhaustive reduction of
    the relation multiples.  Equals (n-1)!."""
    if not 2 <= n <= MAX_DIMENSION_N:
        raise DomainError(f"arnold_dimension supports 2 <= n <= {MAX_DIMENSION_N}")
    return _arnold_top(n).dimension()


@lru_cache(maxsize=None)
def arnold_character(n):
    """Character of the symmetric-group action on the top component, from the
    explicit permutation action on the reduced monomial basis."""
    if not 2 <= n <= MAX_CHARACTER_N:
        raise DomainError(f"arnold_character supports 2 <= n <= {MAX_CHARACTER_N}")
    top = _arnold_top(n)
    vals = tuple(top.trace(cycle_type_representative(lam))
                 for lam in integer_partitions(n))
    return ClassFunction(n, vals)


def sign_character(n):
    return ClassFunction(n, tuple(Fraction(sign_of_class(lam, n))
                                  for lam in integer_partitions(n)))


def sign_multiplicity(n):
    """Multiplicity of the sign character in the dual of the top component.
    Zero for every n >= 2; the n = 1 component is the trivial line, where the
    multiplicity is 1."""
    if n == 1:
        return 1
    if not 2 <= n <= MAX_CHARACTER_N:
        raise DomainError(f"sign_multiplicity supports 1 <= n <= {MAX_CHARACTER_N}")
    # a character of the symmetric group is real and constant on cycle
    # types, which are closed under inversion, so it is its own dual
    mult = arnold_character(n).inner(sign_character(n))
    if mult.denominator != 1 or mult < 0:
        raise ArithmeticError("inner product is not a nonnegative integer")
    return int(mult)


def _mobius(m):
    r = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            r = -r
        p += 1
    if m > 1:
        r = -r
    return r


def _euler_phi(m):
    return sum(1 for e in range(1, m + 1) if math.gcd(e, m) == 1)


def induced_cyclic_character(n, primitive=True):
    """Character induced from a cyclic subgroup generated by an n-cycle,
    from a primitive character (default) or the trivial one.

    Standard induction formula: the value on a class K is
    |centralizer| / n times the character sum over the cyclic elements lying
    in K.  The powers d of the n-cycle with gcd(d, n) = g form the classes of
    rectangular type (n/g)^g, and the primitive-character sums over them are
    Ramanujan sums, i.e. Moebius values; for the trivial character they count
    the powers, i.e. Euler phi.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    vals = []
    for lam in integer_partitions(n):
        g = len(lam)
        if n % g == 0 and all(p == n // g for p in lam):
            s = _mobius(n // g) if primitive else _euler_phi(n // g)
            vals.append(Fraction(centralizer_order(lam) * s, n))
        else:
            vals.append(Fraction(0))
    return ClassFunction(n, tuple(vals))


def induced_character_check(n, primitive=True):
    """Classwise identity between the top-component character (its own
    dual) and sign tensor the induced cyclic character."""
    if not 2 <= n <= MAX_CHARACTER_N:
        raise DomainError(f"induced_character_check supports 2 <= n <= {MAX_CHARACTER_N}")
    rhs = induced_cyclic_character(n, primitive=primitive).tensor_sign()
    return arnold_character(n) == rhs
