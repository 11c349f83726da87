"""Set partitions of {1,...,n}, Bell and Stirling bookkeeping, the
Postnikov graded-dimension identity, and the simplex paving of the
rescaled hypercube.
"""

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache

from .arnold import MAX_N, arnold_dimension
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
    return arnold_dimension(size)


# table: (k, partition_sum, stirling) rows
PostnikovReport = namedtuple("PostnikovReport",
                             "n passed table total_matches_factorial")


def postnikov_graded_check(n):
    """For every k, the sum over partitions with n-k blocks of the product of
    per-block top Arnol'd dimensions must equal c(n, n-k); the column sums
    over all k must add up to n!."""
    if not 2 <= n <= MAX_N:
        raise DomainError(f"postnikov_graded_check supports 2 <= n <= {MAX_N}")
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


def _family_table(family, n):
    """Multiplicity of each permutation s in ``family``, as a Counter keyed
    by the tuple (s(1), ..., s(n)).  Every entry must be a permutation of
    1..n."""
    table = Counter()
    for sigma in family:
        sigma = tuple(sigma)
        if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
            raise DomainError(
                f"family entry {sigma} is not a permutation of 1..{n}")
        table[sigma] += 1
    return table


def paving_check(n, z, samples, seed, family=None):
    """Decide whether the order simplices
    1 < x_{s^{-1}(1)} < ... < x_{s^{-1}(n)} < 1/z of the permutations s of
    ``family``, counted with multiplicity, pave the open cube (1, 1/z)^n:
    every point off the hyperplanes x_i = x_j lies in exactly one.  Also
    checks that the family's simplices, each of volume side^n / n! with
    side = 1/z - 1 > 0, add up to the cube's volume side^n: exactly when the
    family, counted with multiplicity, has n! members.

    Lemma: a tie-free point x of the open cube lies in the simplex of s iff
    x_i is the s(i)-th smallest coordinate for every i, that is iff s(i) - 1
    is the rank of x_i, the number of coordinates below it.  Proof: the
    bounds 1 < x_i < 1/z hold for every coordinate, so x lies in the simplex
    of s iff x_{s^{-1}(1)} < ... < x_{s^{-1}(n)}, which says x_{s^{-1}(r)}
    has exactly r - 1 coordinates below it.  With no ties the ranks are a
    permutation, so exactly one s qualifies, and the cover of x is the
    multiplicity of that s in the family.  Every permutation is the rank
    vector of some tie-free point, so the covers of the tie-free points are
    exactly the multiplicities of the n! permutations.  ``passed``,
    ``min_cover`` and ``max_cover`` are read off those n! values: the
    verdict is exact, whatever ``samples`` and ``seed``.

    No point is drawn.  ``samples`` and ``seed`` are checked and
    ``samples`` is echoed in the report, with ``redraws`` always 0; nothing
    else reads them.  They stay only because the benchmark's cli-mix workload
    passes and reads them (ROADMAP item 1).

    DomainError unless 0 < z < 1 for z as given (an mpf, a Fraction or a
    float), with no rounding to a double first.

    ``family`` overrides the permutation family (used to demonstrate that a
    defective family fails); an entry that is not a permutation of 1..n
    raises DomainError.
    """
    if not 1 <= n <= 6:
        raise DomainError("paving_check supports 1 <= n <= 6")
    if not 0 < z < 1:
        raise DomainError("z must lie in (0, 1)")
    if samples < 1:
        raise DomainError("need at least one sample")
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    if family is None:
        family = itertools.permutations(range(1, n + 1))
    table = _family_table(family, n)
    cover = [table[s] for s in itertools.permutations(range(1, n + 1))]

    # each simplex has volume side^n / n!, side = 1/z - 1 > 0, so the
    # simplices fill the cube's volume side^n exactly when there are n!
    volume_ok = sum(table.values()) == math.factorial(n)

    return PavingReport(n=n, passed=set(cover) == {1} and volume_ok,
                        samples=samples, redraws=0,
                        min_cover=min(cover), max_cover=max(cover),
                        volume_identity_ok=volume_ok)
