"""The top-degree component of the graded-commutative algebra on generators
e_{i,j} (1 <= i < j <= n) subject to the three-term relations
e_{i,j} e_{i,k} - e_{i,j} e_{j,k} + e_{i,k} e_{j,k} = 0 (i < j < k), the
Arnol'd algebra of the braid arrangement; its symmetric-group character, and
the induced-character and sign-multiplicity identities it satisfies.

A monomial is a set of distinct edges (i, j), i < j, read in increasing
lexicographic order, with the sign of the exterior algebra, and is stored as
a machine integer: the 28 edges of K_8 are numbered lexicographically, edge
c is the bit 1 << c, and a monomial is the OR of its edges.  Bit order is
then the lexicographic order, so the bits of a monomial m read upward are its
sorted edges, and e_x m, zero if x is in m, is (-1)^popcount(m & (x - 1))
times x | m: one transposition for each edge of m below e_x, the sign an
inversion count on sorted edge tuples gives.  Every sign, normal form and
trace is therefore the same as with monomials stored as sorted tuples.
Straightening rewrites
    e_{i,k} e_{j,k} -> e_{i,j} e_{j,k} - e_{i,j} e_{i,k}    (i < j < k)
until no vertex has two edges from below; the monomials left are the
no-broken-circuit (nbc) monomials.  In degree n - 1 every vertex k >= 2 then
has exactly one edge from below, so the nbc monomials are the (n - 1)!
increasing trees (Bjorner & Ziegler 1991).  An element is a dict from
monomial to int coefficient; ``_reduce`` gives its normal form, a dict of
the same kind keyed by nbc monomials only, with zero coefficients dropped,
so an element is zero exactly when its normal form is empty.  Normal forms
of monomials are memoised per process, and the character is the trace of
each class representative on the nbc basis.

That the nbc monomials are independent, not only spanning, is certified by
``_certify`` (the diamond lemma on the 100 degree-3 relation multiples of
K_5, whose rank it takes over F_2 on int bitsets; its docstring has the
argument, and why that rank is the rational one), which runs once per
process before any dimension or character is returned and raises
ArithmeticError if it fails.  Dimension and character are capped at n = 8
(5 040 basis monomials; the character takes about 0.22 s there in
process on a 2-core x86-64 VM).
"""

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .linalg_exact import sparse_rank

# the one cap of dimension and character: _EDGES and _BIT are built for
# MAX_N vertices, and both read them through _nbc_top
MAX_N = 8


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


# the edges of K_8 in lexicographic order: edge c is the bit 1 << c, and
# _BIT maps (i, j) and (j, i) to it; _INTO[k - 2] holds the edges into k
# from below
_VERTICES = range(1, MAX_N + 1)
_EDGES = tuple(itertools.combinations(_VERTICES, 2))
_BIT = {e: 1 << c for c, (i, j) in enumerate(_EDGES) for e in ((i, j), (j, i))}
_INTO = [sum(_BIT[i, k] for i in range(1, k)) for k in _VERTICES[1:]]


def _times(x, m):
    """e_x times the monomial m, e_x put first: (monomial, sign), the sign 0
    if e_x is in m, else -1 to the number of edges of m below it."""
    if x & m:
        return 0, 0
    return x | m, -1 if (m & (x - 1)).bit_count() & 1 else 1


def _act(perm, mono):
    """Signed image (monomial, sign) of a monomial under a vertex
    permutation (dict v -> image)."""
    image = inversions = 0
    while mono:  # the edges from the last, each image put in front
        c = mono.bit_length() - 1
        mono ^= 1 << c
        i, j = _EDGES[c]
        x = _BIT[perm[i], perm[j]]
        inversions += (image & (x - 1)).bit_count()
        image |= x
    return image, -1 if inversions & 1 else 1


@lru_cache(maxsize=None)
def _straighten(mono):
    """Normal form of a monomial: a dict from nbc monomial to nonzero int
    coefficient.  Shared by every caller; do not mutate it."""
    for into in _INTO:
        v = mono & into
        w = v & (v - 1)
        if w:  # two edges e_ik, e_jk (i < j) into k from below
            a, b = v ^ w, w & -w
            rest = mono ^ a ^ b
            ij = _BIT[_EDGES[a.bit_length() - 1][0],
                      _EDGES[b.bit_length() - 1][0]]
            # mono = sign e_ik e_jk rest: the pair passes the edges below a
            # together, and e_jk alone those between a and b, bits of b - 2a
            sign = -1 if (mono & (b - 2 * a)).bit_count() & 1 else 1
            combo = {}  # e_ik e_jk -> e_ij e_jk - e_ij e_ik
            for y, c in ((b, sign), (a, -sign)):
                m, s = _times(y, rest)
                m, t = _times(ij, m)
                if s * t:
                    combo[m] = c * s * t
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
    trios = list(itertools.combinations(edges, 3))
    col = {sum(_BIT[e] for e in t): c for c, t in enumerate(trios)}
    # each edge times each relation, which is the relation times the edge
    # (degree 2 is central), {monomial: +-1}
    rows = []
    for i, j, k in itertools.combinations(range(1, 6), 3):
        ij, ik, jk = _BIT[i, j], _BIT[i, k], _BIT[j, k]
        for e in edges:
            row = {}
            for pair, coef in ((ij | ik, 1), (ij | jk, -1), (ik | jk, 1)):
                mono, s = _times(_BIT[e], pair)
                if s:
                    row[mono] = coef * s
            rows.append(row)
    nbc = sum(1 for t in trios if len({k for _, k in t}) == 3)
    rank = sparse_rank([[col[m] for m in row] for row in rows])
    if any(_reduce(row) for row in rows) or rank != len(col) - nbc:
        raise ArithmeticError("the straightening certificate failed")


@lru_cache(maxsize=None)
def _nbc_top(n):
    """The nbc monomials of degree n - 1, sorted: the increasing trees, each
    vertex k >= 2 joined to one parent below it."""
    return sorted(sum(map(_BIT.get, zip(parents, range(2, n + 1))))
                  for parents in itertools.product(
                      *(range(1, k) for k in range(2, n + 1))))


@lru_cache(maxsize=None)
def arnold_dimension(n):
    """Dimension of the degree-(n-1) component: the number of its nbc
    monomials, which the certificate makes a basis.  Equals (n-1)!."""
    if not 2 <= n <= MAX_N:
        raise DomainError(f"arnold_dimension supports 2 <= n <= {MAX_N}")
    _certify()
    return len(_nbc_top(n))


@lru_cache(maxsize=None)
def arnold_character(n):
    """Character of the symmetric-group action on the top component: the
    trace of each class representative on the nbc basis, the coefficient of
    b in the normal form of sigma(b), summed over the basis."""
    if not 2 <= n <= MAX_N:
        raise DomainError(f"arnold_character supports 2 <= n <= {MAX_N}")
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
    if not 2 <= n <= MAX_N:
        raise DomainError(f"sign_multiplicity supports 1 <= n <= {MAX_N}")
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


def induced_cyclic_character(n):
    """Character induced from a primitive character of the cyclic subgroup
    generated by an n-cycle.

    Standard induction formula: the value on a class K is
    |centralizer| / n times the character sum over the cyclic elements lying
    in K.  The powers d of the n-cycle with gcd(d, n) = g form the classes of
    rectangular type (n/g)^g, and the primitive-character sums over them are
    Ramanujan sums, i.e. Moebius values.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    # a class of type (n/g)^g has g equal parts n/g
    return ClassFunction(n, tuple(
        Fraction(centralizer_order(lam) * _mobius(lam[0]), n)
        if len(set(lam)) == 1 else Fraction(0)
        for lam in integer_partitions(n)))


def induced_character_check(n):
    """Classwise identity between the top-component character (its own
    dual) and sign tensor the induced cyclic character."""
    if not 2 <= n <= MAX_N:
        raise DomainError(f"induced_character_check supports 2 <= n <= {MAX_N}")
    rhs = induced_cyclic_character(n).tensor_sign()
    return arnold_character(n) == rhs
