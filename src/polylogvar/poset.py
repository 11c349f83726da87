"""Reduced homology of the proper part of the partition lattice Pi_n from a
checked EL-labelling of its covers; ``poset_homology`` has the argument.
"""

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

from .errors import DomainError
# unused; test_wrappers_reach_every_importing_namespace pins it (ROADMAP 1)
from .linalg_exact import sparse_rank  # noqa: F401
from .partitions import partitions_of


def _label(blocks, a, b):
    """Label of merging blocks a < b: the larger minimum, which retires."""
    return blocks[b][0]


def _covers(n):
    """Per partition of ``partitions_of(n)``, (index, label) of each merge."""
    index = {p.blocks: i for i, p in enumerate(partitions_of(n))}
    return [[(index[bs[:a] + (tuple(sorted(bs[a] + bs[b])),) + bs[a + 1:b]
                    + bs[b + 1:]], _label(bs, a, b))
             for a, b in combinations(range(len(bs)), 2)] for bs in index]


def _interval_pass(n, x, up):
    """Check every [x, y] by rank, carrying the increasing and decreasing
    chains from x by last label and the least word with its chain count;
    return the decreasing maximal chains of [x, 1]."""
    inc, dec = defaultdict(Counter), defaultdict(Counter)
    inc[x][0], dec[x][n + 1] = 1, 1  # labels lie in 1..n
    least, level = {x: ((), 1)}, [x]
    while up[level[0]]:
        words = defaultdict(Counter)  # word to y via a least word to z
        for z in level:
            for y, k in up[z]:  # chains to z, last label j, then label k
                inc[y][k] += sum(c for j, c in inc[z].items() if j < k)
                dec[y][k] += sum(c for j, c in dec[z].items() if j >= k)
                words[y][least[z][0] + (k,)] += least[z][1]
        level = sorted(words)
        for y in level:
            w, count = least[y] = min(words[y].items())
            if (count != 1 or sum(inc[y].values()) != 1
                    or any(a >= b for a, b in zip(w, w[1:]))):
                raise ArithmeticError(f"not an EL-labelling of Pi_{n}")
    return sum(dec[level[0]].values())


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
    merges; for every x < y in Pi_n, [x, y] has one increasing maximal
    chain and its least word is strictly increasing and had by one chain,
    so it is that chain's; else ArithmeticError.  Then the decreasing
    maximal chains are counted.  Strict and weak agree here: a merge
    retires a block minimum for good, so labels on a chain are distinct.

    Guarded at 3 <= n <= 8, ``arnold_dimension``'s cap; below 3 the proper
    part is empty.
    """
    if not 3 <= n <= 8:
        raise DomainError("poset_homology supports 3 <= n <= 8")
    up = _covers(n)
    # partitions_of lists the discrete partition, the bottom of Pi_n, last
    chains = [_interval_pass(n, x, up) for x in range(len(up))][-1]
    return tuple((q, chains if q == n - 3 else 0) for q in range(n - 2))
