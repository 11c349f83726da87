"""Reduced homology of the proper part of the partition lattice Pi_n from an
EL-labelling of its covers, checked in one pass up from the bottom element;
``poset_homology`` has the argument.
"""

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

from .arnold import MAX_N
from .errors import DomainError
# unused; test_wrappers_reach_every_importing_namespace pins it (ROADMAP 1)
from .linalg_exact import sparse_rank  # noqa: F401


def _label(blocks, a, b):
    """Label of merging blocks a < b: the larger minimum, which retires."""
    return blocks[b][0]


@lru_cache(maxsize=None)
def poset_homology(n):
    """Reduced rational homology dimensions of the proper part of Pi_n, as a
    tuple of (degree, dimension) for every degree 0 .. n-3.

    Theorem (Bjorner 1980, Trans. AMS 260; Bjorner and Wachs 1983, Trans.
    AMS 277): label the covers of a bounded graded poset P so that every
    interval has one increasing (labels strictly rise) maximal chain, whose
    word precedes every other's lexicographically.  Then P's proper part is
    homotopy equivalent to a wedge of spheres of dimension rank(P) - 2,
    n - 3 for Pi_n, one per decreasing (weakly falling) maximal chain.

    Checked: each cover is labelled by the larger minimum of the blocks it
    merges; for every y in Pi_n, [0, y] has one increasing maximal chain
    and its least word is strictly increasing and had by one chain, so it
    is that chain's; else ArithmeticError.  Then the decreasing maximal
    chains are counted.  Strict and weak agree here: a merge retires a
    block minimum for good, so labels on a chain are distinct.

    Lemma: every interval [x, y] of Pi_n is a lower interval, label for
    label, so checking the lower intervals checks them all.  Proof.  Let M
    be the set of minima of x's blocks.  Send z in [x, y] to y''(z): the
    minima in M that lie in one block of z form one block, and every
    element outside M is a singleton.  The blocks of z are unions of
    x-blocks, each met by M in its minimum, so z is recovered from y''(z)
    by taking for each block of y''(z) the union of the x-blocks whose
    minima it holds; both maps keep the order, and z ranges over [x, y]
    exactly when y''(z) ranges over [0, y''(y)].  So this is an order
    isomorphism of [x, y] onto [0, y''(y)].  A cover z < z' merges two
    blocks C, C' of z and has label max(min C, min C'); min C is the least
    minimum of the x-blocks inside C, which is also the minimum of C's
    image block, so the image cover has the same label.  The argument
    needs only that a label depends on the two merged minima alone, so it
    holds for the min-min labelling too; that one is not an EL-labelling,
    so some lower interval fails it and the one pass refuses it (seen at
    every n from 3 to 8).

    Guarded at 3 <= n <= ``arnold.MAX_N``, ``arnold_dimension``'s cap; below
    3 the proper part is empty.
    """
    if not 3 <= n <= MAX_N:
        raise DomainError(f"poset_homology supports 3 <= n <= {MAX_N}")
    # rank by rank up from the bottom: the increasing and decreasing chains
    # to each y by last label, and the least word to y with its chain count
    bottom = tuple((i,) for i in range(1, n + 1))
    inc, dec = defaultdict(Counter), defaultdict(Counter)
    inc[bottom][0], dec[bottom][n + 1] = 1, 1  # labels lie in 1..n
    least = {bottom: ((), 1)}
    for _ in range(n - 1):
        words = defaultdict(Counter)  # word to y via a least word to z
        for z in least:
            for a, b in combinations(range(len(z)), 2):
                # merged in place at a, the blocks stay ordered by minimum
                y = (z[:a] + (tuple(sorted(z[a] + z[b])),) + z[a + 1:b]
                     + z[b + 1:])
                k = _label(z, a, b)  # chains to z, last label j, then k
                inc[y][k] += sum(c for j, c in inc[z].items() if j < k)
                dec[y][k] += sum(c for j, c in dec[z].items() if j >= k)
                words[y][least[z][0] + (k,)] += least[z][1]
        least = {}
        for y in words:
            w, count = least[y] = min(words[y].items())
            if (count != 1 or sum(inc[y].values()) != 1
                    or any(a >= b for a, b in zip(w, w[1:]))):
                raise ArithmeticError(f"not an EL-labelling of Pi_{n}")
    chains = sum(dec[(tuple(range(1, n + 1)),)].values())
    return tuple((q, chains if q == n - 3 else 0) for q in range(n - 2))
