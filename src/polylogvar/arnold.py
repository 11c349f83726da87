"""The top-degree component of the graded-commutative algebra on generators
e_{i,j} (1 <= i < j <= n) subject to the three-term relations
e_{i,j} e_{i,k} - e_{i,j} e_{j,k} + e_{i,k} e_{j,k} = 0 (i < j < k), the
Arnol'd algebra of the braid arrangement; its symmetric-group character, and
the induced-character and sign-multiplicity identities it satisfies.

A monomial is a sorted tuple of distinct edges (i, j), i < j, with the sign
of the exterior algebra.  Straightening rewrites
    e_{i,k} e_{j,k} -> e_{i,j} e_{j,k} - e_{i,j} e_{i,k}    (i < j < k)
until no vertex has two edges from below; the monomials left are the
no-broken-circuit (nbc) monomials.  In degree n - 1 every vertex k >= 2 then
has exactly one edge from below, so the nbc monomials are the (n - 1)!
increasing trees (Bjorner & Ziegler 1991).  Normal forms are memoised per
process; elements are stored in nbc coordinates, and the character is the
trace of each class representative on the nbc basis.

That the nbc monomials are independent, not only spanning, is certified by
``_certify`` (the diamond lemma on the 100 degree-3 relation multiples of
K_5, whose rank it takes over F_2 on int bitsets; its docstring has the
argument, and why that rank is the rational one), which runs once per
process before any dimension, basis or character is returned and raises
ArithmeticError if it fails.  Dimension and character are capped at n = 8
(5 040 basis monomials; the character takes about 2 s there).
"""

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .linalg_exact import sparse_rank

MAX_DIMENSION_N = 8
MAX_CHARACTER_N = 8


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


class ClassFunction(namedtuple("ClassFunction", "n values")):
    """A rational class function on the symmetric group, stored per cycle
    type (integer partition of n): ``values`` holds Fractions, aligned with
    integer_partitions(n)."""

    __slots__ = ()

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

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _sort_sign(seq):
    """Sorted tuple and permutation sign; zero sign on repeats."""
    seq = tuple(seq)
    mono = tuple(sorted(seq))
    if len(set(mono)) < len(mono):
        return None, 0
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return mono, -1 if inversions % 2 else 1


def _act(perm, mono):
    """Signed image (sorted monomial, sign) of a monomial under a vertex
    permutation (dict v -> image)."""
    return _sort_sign(tuple(sorted((perm[a], perm[b]))) for a, b in mono)


@lru_cache(maxsize=None)
def _straighten(mono):
    """Normal form of a monomial (sorted tuple of distinct edges): a dict
    from nbc monomial to nonzero int coefficient.  Shared by every caller;
    do not mutate it."""
    first = {}  # vertex k -> position of the first edge from below into k
    for p, (j, k) in enumerate(mono):
        q = first.setdefault(k, p)
        if q < p:
            i = mono[q][0]
            rest = mono[:q] + mono[q + 1:p] + mono[p + 1:]
            sign = (-1) ** (p + q - 1)  # moves e_ik e_jk to the front
            combo = {}
            for pair, c in ((((i, j), (j, k)), sign),
                            (((i, j), (i, k)), -sign)):
                m, s = _sort_sign(pair + rest)
                if s:
                    combo[m] = c * s
            return _reduce(combo)
    return {mono: 1}


def _reduce(combo):
    """Normal form of a combination {monomial: coefficient}."""
    out = {}
    for mono, c in combo.items():
        for b, v in _straighten(mono).items():
            out[b] = out.get(b, 0) + c * v
    return {b: v for b, v in out.items() if v}


@lru_cache(maxsize=None)
def _certify():
    """Certify that the nbc monomials are a basis of the algebra, in every
    degree and for every n; raise ArithmeticError if the check fails.

    Spanning.  Each rewrite subtracts a multiple of a relation, so every
    monomial is congruent to its normal form, a combination of nbc
    monomials.  Straightening ends: a rewrite trades the upper ends (k, k)
    of two edges for (j, k) with j < k, which lowers their multiset.

    Independence, by Bergman's diamond lemma.  Present the algebra as a
    quotient of the free algebra on the edges, ordered by (upper vertex,
    lower vertex) so that the edges into k are consecutive, by the rules
    e_b e_a -> -e_a e_b (b after a), e_a e_a -> 0 and
    e_ik e_jk -> e_ij e_jk - e_ij e_ik.  Every right-hand side is smaller
    in the degree-lexicographic order, and the irreducible words are the
    sorted nbc monomials.  The lemma makes them a basis once every overlap
    ambiguity xyz (xy and yz both left-hand sides) resolves.  Those of the
    exterior rules alone resolve, as the sorted square-free monomials are a
    basis of the exterior algebra.  Every other one holds a pair e_ik e_jk
    and one more edge, so it has degree 3 and at most 5 vertices, and its
    two reductions differ by an element of the ideal generated by the
    relations on those vertices.  The rules see only the relative order of
    the vertices, so relabelling them increasingly into 1..5 carries the
    ambiguity, signs included, onto K_5.  There, reduced to irreducibles,
    both sides are nbc combinations whose difference lies in I_3(K_5), the
    span of the 100 products of the 10 relations with the 10 edges.  This
    function shows that span has rank 70 = C(10, 3) - 50 over Q, where 50
    counts the degree-3 nbc monomials of K_5; as they span, they are then a
    basis of the degree-3 quotient, the two sides agree, and every ambiguity
    resolves, for every n.  The basis does not depend on the order in which
    a monomial's edges are written, only its signs do.

    The rank.  Every coefficient of a row is +-1, so mod 2 a row is the
    list of its monomials, and their rank over F_2 is 70 only if the rank
    over Q is at least 70 (``sparse_rank``: an odd minor is nonzero).  The
    function also checks that the normal form sends each of the 100
    products to 0.  That puts the rows in the kernel of the normal form, a
    linear map from the 120 degree-3 monomials onto the span of the 50 nbc
    ones that fixes each of them; its kernel has dimension 70, so the rank
    over Q is exactly 70.  The kill check also tests this implementation's
    rule and signs, and the rank makes it not vacuous: it shows that the
    rows span all of I_3(K_5), not a smaller set that a faulty row
    generator could leave.
    """
    edges = list(itertools.combinations(range(1, 6), 2))
    col = {m: c for c, m in enumerate(itertools.combinations(edges, 3))}
    rows = []  # each relation times each edge, {sorted monomial: +-1}
    for i, j, k in itertools.combinations(range(1, 6), 3):
        terms = ((((i, j), (i, k)), 1), (((i, j), (j, k)), -1),
                 (((i, k), (j, k)), 1))
        for e in edges:
            row = {}
            for pair, coef in terms:
                mono, sgn = _sort_sign(pair + (e,))
                if sgn:
                    row[mono] = coef * sgn
            rows.append(row)
    nbc = sum(1 for m in col if len({k for _, k in m}) == 3)
    rank = sparse_rank([[col[m] for m in row] for row in rows])
    if any(_reduce(row) for row in rows) or rank != len(col) - nbc:
        raise ArithmeticError("the straightening certificate failed")


@lru_cache(maxsize=None)
def _nbc_top(n):
    """The nbc monomials of degree n - 1, sorted: the increasing trees, each
    vertex k >= 2 joined to one parent below it."""
    return sorted(tuple(sorted(zip(parents, range(2, n + 1))))
                  for parents in itertools.product(
                      *(range(1, k) for k in range(2, n + 1))))


class ArnoldElement:
    """An element of the top component in nbc coordinates: a dict from
    increasing-tree monomial (sorted tuple of edge pairs) to its nonzero
    Fraction coefficient."""

    __slots__ = ("n", "coords")

    def __init__(self, n, coords=None):
        """``coords`` maps monomials of degree n - 1, sorted tuples of
        distinct edge pairs, nbc or not, to coefficients; they are
        straightened."""
        self.n = n
        self.coords = {b: Fraction(c) for b, c in _reduce(coords or {}).items()}

    @classmethod
    def from_edges(cls, n, edge_pairs):
        """The product of generators e_{i,j} over the given vertex pairs,
        reduced modulo the relations."""
        if len(edge_pairs) != n - 1:
            raise ValueError("need degree n-1 monomials")
        pairs = [tuple(sorted(e)) for e in edge_pairs]
        if not all(1 <= a < b <= n for a, b in pairs):
            raise ValueError("edges must join two distinct vertices in 1..n")
        mono, sgn = _sort_sign(pairs)
        return cls(n, {mono: sgn} if sgn else None)

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        combo = dict(self.coords)
        for mono, c in other.coords.items():
            combo[mono] = combo.get(mono, 0) + c
        return ArnoldElement(self.n, combo)

    def __rmul__(self, scalar):
        return ArnoldElement(self.n, {m: Fraction(scalar) * c
                                      for m, c in self.coords.items()})

    def __eq__(self, other):
        return (isinstance(other, ArnoldElement) and self.n == other.n
                and self.coords == other.coords)

    def apply(self, perm):
        """Image under a vertex permutation (dict v -> image)."""
        raw = {}
        for mono, c in self.coords.items():
            m, sgn = _act(perm, mono)
            raw[m] = raw.get(m, 0) + sgn * c
        return ArnoldElement(self.n, raw)


def arnold_basis(n):
    """The nbc basis of the top component, (n - 1)! increasing trees, as
    (edge pairs, element) in sorted order of the edge pairs."""
    _certify()
    return [(mono, ArnoldElement(n, {mono: 1})) for mono in _nbc_top(n)]


@lru_cache(maxsize=None)
def arnold_dimension(n):
    """Dimension of the degree-(n-1) component: the number of its nbc
    monomials, which the certificate makes a basis.  Equals (n-1)!."""
    if not 2 <= n <= MAX_DIMENSION_N:
        raise DomainError(f"arnold_dimension supports 2 <= n <= {MAX_DIMENSION_N}")
    _certify()
    return len(_nbc_top(n))


@lru_cache(maxsize=None)
def arnold_character(n):
    """Character of the symmetric-group action on the top component: the
    trace of each class representative on the nbc basis, the coefficient of
    b in the normal form of sigma(b), summed over the basis."""
    if not 2 <= n <= MAX_CHARACTER_N:
        raise DomainError(f"arnold_character supports 2 <= n <= {MAX_CHARACTER_N}")
    _certify()
    vals = []
    for lam in integer_partitions(n):
        perm = cycle_type_representative(lam)
        tr = 0
        for b in _nbc_top(n):
            m, sgn = _act(perm, b)
            tr += sgn * _straighten(m).get(b, 0)
        vals.append(Fraction(tr))
    return ClassFunction(n, tuple(vals))


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
