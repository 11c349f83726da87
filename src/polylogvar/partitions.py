"""Set partitions of {1,...,n}, Bell and Stirling bookkeeping, the
Postnikov graded-dimension identity, and the simplex paving of the
rescaled hypercube.
"""

import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

MAX_PARTITION_N = 9


class SetPartition(namedtuple("SetPartition", "blocks")):
    """Partition of {1,...,n} into disjoint nonempty blocks, each block
    sorted, blocks ordered by their minimum."""

    __slots__ = ()

    def __new__(cls, blocks):
        self = super().__new__(cls, tuple(tuple(sorted(b)) for b in
                                          sorted(blocks, key=min)))
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if x in seen:
                    raise ValueError("blocks are not disjoint")
                seen.add(x)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover {1,...,n}")
        return self


@lru_cache(maxsize=None)
def partitions_of(n):
    """All set partitions of {1,...,n}, encoded by restricted growth strings
    so the canonical block order comes out for free.  Count is Bell(n)."""
    if not 1 <= n <= MAX_PARTITION_N:
        raise DomainError(f"partitions_of supports 1 <= n <= {MAX_PARTITION_N}")
    out = []

    def rec(i, assignment, nblocks):
        if i == n:
            blocks = [[] for _ in range(nblocks)]
            for idx, b in enumerate(assignment):
                blocks[b].append(idx + 1)
            out.append(SetPartition(tuple(tuple(b) for b in blocks)))
            return
        for b in range(nblocks):
            assignment.append(b)
            rec(i + 1, assignment, nblocks)
            assignment.pop()
        assignment.append(nblocks)
        rec(i + 1, assignment, nblocks + 1)
        assignment.pop()

    rec(0, [], 0)
    return tuple(out)


def bell_number(n):
    """Bell numbers by the Bell-triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@lru_cache(maxsize=None)
def stirling_first_unsigned(n, k):
    """Unsigned Stirling numbers of the first kind, c(n, k), by recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return (n - 1) * stirling_first_unsigned(n - 1, k) + \
        stirling_first_unsigned(n - 1, k - 1)


def _block_factor(size):
    """Dimension of the top Arnol'd component on a block of this size: its
    count of nbc monomials (increasing trees) from the certified
    ``arnold_dimension``, 1 on a single vertex."""
    if size == 1:
        return 1
    from .arnold import arnold_dimension
    return arnold_dimension(size)


# table: (k, partition_sum, stirling) rows
PostnikovReport = namedtuple("PostnikovReport",
                             "n passed table total_matches_factorial")


def postnikov_graded_check(n):
    """For every k, the sum over partitions with n-k blocks of the product of
    per-block top Arnol'd dimensions must equal c(n, n-k); the column sums
    over all k must add up to n!."""
    if not 2 <= n <= 8:
        raise DomainError("postnikov_graded_check supports 2 <= n <= 8")
    sums = {}
    for pi in partitions_of(n):
        k = n - len(pi.blocks)
        prod = 1
        for b in pi.blocks:
            prod *= _block_factor(len(b))
        sums[k] = sums.get(k, 0) + prod
    table = []
    ok = True
    for k in range(n):
        s = sums.get(k, 0)
        c = stirling_first_unsigned(n, n - k)
        table.append((k, s, c))
        if s != c:
            ok = False
    total_ok = sum(s for _, s, _ in table) == math.factorial(n)
    return PostnikovReport(n=n, passed=ok and total_ok, table=tuple(table),
                           total_matches_factorial=total_ok)


PavingReport = namedtuple("PavingReport", "n passed samples redraws min_cover "
                          "max_cover volume_identity_ok")


_BLOCK_ROWS = 8192
_HIGH = 1 << 31  # the top bit of a 32-bit field; set on a tied row's code


def _words(rng, count):
    """``count`` little-endian 32-bit words of the stdlib Mersenne Twister
    stream ``rng``, as bytes."""
    return rng.randbytes(4 * count)


@lru_cache(maxsize=4)
def _masks(rows):
    """Two ints of ``rows`` 32-bit fields: 2^31 - 1 in every field, and
    2^31 in every field."""
    def fields(value):
        return int.from_bytes(value.to_bytes(4, "little") * rows, "little")
    return fields(_HIGH - 1), fields(_HIGH)


def _rank_codes(block, n):
    """Classify the rows of ``block``, little-endian 32-bit words in
    row-major order, n words a row, by the values k_i = word_i >> 1.
    Returns (codes, bad): ``codes[r]`` is sum_i rank_i * n^i for row r, with
    rank_i the number of k_j below k_i, and has bit 31 set when two k_i of
    the row tie; ``bad`` counts the tied rows.

    All rows are classified at once on Python ints in 32-bit fields, field r
    belonging to row r (SWAR, several values packed in one int).  Column i
    is one int K_i: the words i, i + n, ... of the block, sliced out as
    4-byte items and read little-endian, so the platform's byte order plays
    no part.  Shifted down one bit and masked to 31 bits a field, field r
    of K_i holds k_i of row r.

    Comparison.  Let H hold 2^31 in every field.  For ints A, B whose
    fields a_r, b_r are below 2^31, ((A | H) - B) & H has bit 31 of field r
    set exactly when a_r >= b_r, and no borrow crosses a field.  Proof:
    A | H = A + H, as a_r < 2^31, so (A | H) - B is the sum over r of
    (2^31 + a_r - b_r) 2^(32 r).  Each 2^31 + a_r - b_r lies in
    [1, 2^32 - 1], because |a_r - b_r| < 2^31, so this sum is the base-2^32
    expansion of the difference: field r holds 2^31 + a_r - b_r, whose
    bit 31 is set iff 2^31 + a_r - b_r >= 2^31, that is iff a_r >= b_r.

    Each pair i < j gives two flag ints, for k_i >= k_j and for
    k_j >= k_i.  Where both are set the row ties, and the tie flags are
    OR'd together.  Otherwise exactly one is set, and it counts one
    coordinate below the larger k.  A flag int is 2^31 times an int of
    0/1 fields, so the sum over i of n^i times the flags of column i is
    2^31 times the int whose field r is the code of row r: one shift by 31
    at the end reads the codes off exactly.  Every code, a tied row's too,
    is at most (n - 1)(1 + n + ... + n^(n-1)) = n^n - 1 < 6^6 < 2^31, so no
    field reaches its neighbour, nor bit 31, where the tie flag goes.  The
    code int is then turned into bytes, one 32-bit word a row.
    """
    from array import array

    rows = len(block) // (4 * n)
    low, high = _masks(rows)
    words = array("I", block)  # only the 4-byte item size matters here
    cols = [(int.from_bytes(words[i::n], "little") >> 1) & low
            for i in range(n)]
    raised = [k | high for k in cols]
    flags = [0] * n  # 2^31 rank_i
    tied = 0
    for i in range(n):
        for j in range(i + 1, n):
            ge = (raised[i] - cols[j]) & high  # k_i >= k_j
            le = (raised[j] - cols[i]) & high  # k_j >= k_i
            tied |= ge & le
            flags[i] += ge
            flags[j] += le
    code = sum(f * n ** i for i, f in enumerate(flags)) >> 31
    codes = array("I", (code | tied).to_bytes(4 * rows, "little"))
    if sys.byteorder == "big":
        codes.byteswap()
    return codes, tied.bit_count()


def _family_table(family, n):
    """Multiplicity of each permutation s in ``family``, indexed by the code
    sum_i (s(i) - 1) * n^i.  Every entry must be a permutation of 1..n."""
    table = [0] * n ** n
    for sigma in family:
        if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
            raise DomainError(
                f"family entry {tuple(sigma)} is not a permutation of 1..{n}")
        table[sum((v - 1) * n ** i for i, v in enumerate(sigma))] += 1
    return table


def paving_check(n, z, samples, seed, family=None):
    """Sample points of the open cube (1, 1/z)^n and count, per point, the
    order simplices 1 < x_{s^{-1}(1)} < ... < x_{s^{-1}(n)} < 1/z containing
    it strictly; a paving means every point lies in exactly one.  Also
    checks, in exact Fraction arithmetic, that the family's simplices, each
    of volume side^n / n! with side = 1/z - 1 and counted with multiplicity,
    add up to the cube's volume side^n; that fails for a family of any size
    but n!.

    The points.  Each coordinate is one little-endian 32-bit word of the
    stdlib Mersenne Twister stream ``random.Random(seed)`` (MT19937), drawn
    row by row: the word's top 31 bits k_i give the exact real
    x_i = 1 + (1/z - 1)(k_i + 1/2) / 2^31.  As 0 <= k_i < 2^31, that lies
    strictly inside (1, 1/z), so no point is ever on the boundary.  And
    x_i is strictly increasing in k_i, so the ranks of the coordinates of x
    are the ranks of the k_i, and x_i = x_j exactly when k_i = k_j: the
    point itself is never formed.  So the points are centres of the cells
    of a grid of 2^31 cells a side, and neither the draw nor the covers
    depend on z, which enters only the volume identity.  A row is redrawn
    only when two of its k_i are equal; redraws continue the same stream.  Earlier releases drew
    53 bits a coordinate from this stream, so a ``seed`` now picks other
    points than they did.

    Lemma: a tie-free point x of the open cube lies in the simplex of s iff
    x_i is the s(i)-th smallest coordinate for every i, that is iff s(i) - 1
    is the rank of x_i, the number of coordinates below it.  Proof: the
    bounds 1 < x_i < 1/z hold for every coordinate, so x lies in the simplex
    of s iff x_{s^{-1}(1)} < ... < x_{s^{-1}(n)}, which says x_{s^{-1}(r)}
    has exactly r - 1 coordinates below it.  With no ties the ranks are a
    permutation, so exactly one s qualifies.  So the cover of x is the
    multiplicity in the family of the s with code sum_i rank_i * n^i; it is
    looked up in a table built once from the family.

    The points stream through in blocks of ``_BLOCK_ROWS`` rows, each
    classified by ``_rank_codes`` and then dropped: only the set of codes
    seen and the count of tied rows survive a block.  The tied rows of a
    pass are redrawn as the next pass, in order, so the stream and the
    report equal those of drawing all points at once.  Memory is
    O(_BLOCK_ROWS n + n^n) whatever ``samples``.

    ``family`` overrides the permutation family (used to demonstrate that a
    defective family fails); an entry that is not a permutation of 1..n
    raises DomainError before any sampling.
    """
    import random

    if not 1 <= n <= 6:
        raise DomainError("paving_check supports 1 <= n <= 6")
    zf = float(z)
    if not 0 < zf < 1:
        raise DomainError("z must lie in (0, 1)")
    if samples < 1:
        raise DomainError("need at least one sample")
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    if family is None:
        family = itertools.permutations(range(1, n + 1))
    table = _family_table(family, n)
    rng = random.Random(seed)
    seen = set()

    rows, redraws = samples, 0
    for _ in range(100):
        bad = 0
        for start in range(0, rows, _BLOCK_ROWS):
            codes, tied = _rank_codes(
                _words(rng, min(_BLOCK_ROWS, rows - start) * n), n)
            seen.update(codes)
            bad += tied
        if not bad:
            break
        rows = bad
        redraws += bad
    else:
        raise DomainError("could not draw tie-free samples")

    cover = [table[code] for code in seen if code < _HIGH]

    zq = Fraction(str(z)) if not isinstance(z, Fraction) else z
    side = 1 / zq - 1
    vol_simplex = side ** n / math.factorial(n)
    volume_ok = sum(table) * vol_simplex == side ** n

    return PavingReport(n=n, passed=set(cover) == {1} and volume_ok,
                        samples=samples, redraws=redraws,
                        min_cover=min(cover), max_cover=max(cover),
                        volume_identity_ok=volume_ok)
