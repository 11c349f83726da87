"""Set partitions of {1,...,n}, Bell and Stirling bookkeeping, the
Postnikov graded-dimension identity, and the simplex paving of the
rescaled hypercube.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_PARTITION_N = 9


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1,...,n} into disjoint nonempty blocks, each block
    sorted, blocks ordered by their minimum."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks",
                           tuple(tuple(sorted(b)) for b in
                                 sorted(self.blocks, key=min)))
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

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    def num_blocks(self):
        return len(self.blocks)


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


@dataclass(frozen=True)
class PostnikovReport:
    n: int
    passed: bool
    table: tuple  # (k, partition_sum, stirling) rows
    total_matches_factorial: bool


def postnikov_graded_check(n):
    """For every k, the sum over partitions with n-k blocks of the product of
    per-block top Arnol'd dimensions must equal c(n, n-k); the column sums
    over all k must add up to n!."""
    if not 2 <= n <= 8:
        raise DomainError("postnikov_graded_check supports 2 <= n <= 8")
    sums = {}
    for pi in partitions_of(n):
        k = n - pi.num_blocks()
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


@dataclass(frozen=True)
class PavingReport:
    n: int
    passed: bool
    samples: int
    redraws: int
    min_cover: int
    max_cover: int
    volume_identity_ok: bool


def _uniforms(rng, count):
    """``count`` uniforms in [0, 1) with 53 random bits each: the top 53 bits
    of consecutive 64-bit words of the stdlib Mersenne Twister stream."""
    words = np.frombuffer(rng.randbytes(8 * count), dtype="<u8")
    return (words >> np.uint64(11)) * 2.0 ** -53


_BLOCK_ROWS = 8192


def _rank_codes(pts, lo, hi):
    """Classify each row x of an (m, n) array by n (n - 1) / 2 column
    comparisons.  Returns (codes, bad): a row is bad when two coordinates tie
    or one lies outside (lo, hi); otherwise its code is sum_i rank_i * n^i,
    rank_i the number of coordinates below x_i.  Bad rows get some code.

    The block is copied to column-major order once, so every comparison
    reads two contiguous columns; the row-major block is not read again."""
    m, n = pts.shape
    cols = np.ascontiguousarray(pts.T)
    del pts
    bad = np.zeros(m, dtype=bool)
    # each pair i < j adds n^i when x_i > x_j and n^j when x_i < x_j
    codes = np.full(m, sum(j * n ** j for j in range(n)), dtype=np.int64)
    for i in range(n):
        xi = cols[i]
        bad |= xi <= lo
        bad |= xi >= hi
        for j in range(i + 1, n):
            xj = cols[j]
            bad |= xi == xj
            codes += (xi > xj) * (n ** i - n ** j)
    return codes, bad


def _family_table(family, n):
    """Multiplicity of each permutation s in ``family``, indexed by the code
    sum_i (s(i) - 1) * n^i.  Every entry must be a permutation of 1..n."""
    codes = []
    for sigma in family:
        if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
            raise DomainError(
                f"family entry {tuple(sigma)} is not a permutation of 1..{n}")
        codes.append(sum((v - 1) * n ** i for i, v in enumerate(sigma)))
    return np.bincount(np.array(codes, dtype=np.int64), minlength=n ** n)


def paving_check(n, z, samples, seed, family=None):
    """Sample points of the open cube (1, 1/z)^n and count, per point, the
    order simplices 1 < x_{s^{-1}(1)} < ... < x_{s^{-1}(n)} < 1/z containing
    it strictly; a paving means every point lies in exactly one.  Points with
    tied coordinates or on the boundary are redrawn.  Also checks, in exact
    Fraction arithmetic, that the family's simplices, each of volume
    side^n / n! with side = 1/z - 1 and counted with multiplicity, add up to
    the cube's volume side^n; that fails for a family of any size but n!.

    Lemma: a tie-free point x of the open cube lies in the simplex of s iff
    x_i is the s(i)-th smallest coordinate for every i, that is iff s(i) - 1
    is the rank of x_i, the number of coordinates below it.  Proof: the
    bounds 1 < x_i < 1/z hold for every coordinate, so x lies in the simplex
    of s iff x_{s^{-1}(1)} < ... < x_{s^{-1}(n)}, which says x_{s^{-1}(r)}
    has exactly r - 1 coordinates below it.  With no ties the ranks are a
    permutation, so exactly one s qualifies.  So the cover of x is the
    multiplicity in the family of the s with code sum_i rank_i * n^i; it is
    looked up in a table built once from the family.

    The points come from the stdlib Mersenne Twister ``random.Random(seed)``
    (MT19937), 53 random bits per coordinate, drawn row by row; redraws
    continue the same stream.  A ``seed`` therefore picks other points than
    numpy's PCG64 stream of the same seed, which earlier releases drew from;
    the reports agree whenever no redraw is needed.

    The points stream through in blocks of ``_BLOCK_ROWS`` rows, each
    classified and then dropped: only a seen-flag per code and the count of
    bad rows survive a block.  The bad rows of a pass are redrawn as the next
    pass, in order, so the stream and the report equal those of drawing all
    points at once.  ``_rank_codes`` copies a block to column-major order and
    drops the row-major one, so at most two block-sized float arrays are
    alive at a time: memory is O(_BLOCK_ROWS n + n^n) whatever ``samples``.

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
    lo, hi = 1.0, 1.0 / zf
    seen = np.zeros(n ** n, dtype=bool)

    rows, redraws = samples, 0
    for _ in range(100):
        bad = 0
        for start in range(0, rows, _BLOCK_ROWS):
            count = min(_BLOCK_ROWS, rows - start)
            # no name holds the row-major block, so _rank_codes drops it
            codes, out = _rank_codes(
                (_uniforms(rng, count * n) * (hi - lo) + lo).reshape(count, n),
                lo, hi)
            seen[codes[~out]] = True
            bad += int(out.sum())
        if not bad:
            break
        rows = bad
        redraws += bad
    else:
        raise DomainError("could not draw tie-free samples")

    cover = table[seen]

    zq = Fraction(str(z)) if not isinstance(z, Fraction) else z
    side = 1 / zq - 1
    vol_simplex = side ** n / math.factorial(n)
    volume_ok = int(table.sum()) * vol_simplex == side ** n

    return PavingReport(n=n, passed=bool((cover == 1).all()) and volume_ok,
                        samples=samples, redraws=redraws,
                        min_cover=int(cover.min()), max_cover=int(cover.max()),
                        volume_identity_ok=volume_ok)
