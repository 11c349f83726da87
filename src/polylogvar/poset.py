"""Reduced homology of the proper part of the partition lattice, computed
from ranks over F_2 of the simplicial boundary maps of its order complex.

Mod 2 the boundary signs vanish, so a boundary row is the list of the
faces of a chain, and ``sparse_rank`` eliminates it on int bitsets with no
rational arithmetic.  The proper part of the partition lattice is
EL-shellable (Bjorner 1980), so its integral homology is free and the F_2
ranks agree with the rational ones; ``poset_homology`` does not assume
this, it checks the one consequence it needs and raises ArithmeticError
otherwise (its docstring has the argument).
"""

from functools import lru_cache

from .errors import DomainError
from .linalg_exact import sparse_rank
from .partitions import SetPartition, partitions_of


def _proper_part(n):
    """Partitions strictly between the discrete and the one-block partition,
    plus the strict order relation as adjacency lists.

    The partitions strictly above p, with k blocks, are p's blocks merged
    along each partition of {1, ..., k} strictly between the discrete and
    the one-block one."""
    elems = [p for p in partitions_of(n) if 1 < p.num_blocks() < n]
    index = {p: i for i, p in enumerate(elems)}
    above = []
    for p in elems:
        k = p.num_blocks()
        merged = (SetPartition(tuple(sum((p.blocks[b - 1] for b in group), ())
                                     for group in sigma.blocks))
                  for sigma in partitions_of(k) if 1 < sigma.num_blocks() < k)
        above.append(sorted(index[q] for q in merged))
    return elems, above


def _chains(elems, above):
    """All chains of the order complex, grouped by number of elements."""
    by_len = {}

    def extend(chain):
        by_len.setdefault(len(chain), []).append(chain)
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in range(len(elems)):
        extend((i,))
    return by_len


@lru_cache(maxsize=None)
def poset_homology(n):
    """Reduced rational homology dimensions of the order complex, returned as
    a tuple of (degree, dimension) for every degree 0 .. n-3.

    The dimensions are computed over F_2; the function raises
    ArithmeticError unless every degree below n - 3 is 0, and then they are
    the rational ones in every degree.  In degree q the Betti number is c_q - r_q - r_{q+1}, with c_q
    the number of q-simplices and r_q the rank of the boundary out of
    degree q (the augmentation, r_0 = 1, is the same over every field).
    ``sparse_rank`` bounds the rational ranks from below by the F_2 ones,
    so each rational Betti number is at most the F_2 one.  The alternating
    sum of the Betti numbers is the reduced Euler characteristic, the
    alternating sum of the c_q, over every field.  So when the F_2 numbers
    vanish below the top degree, the rational ones vanish there too, and
    the two alternating sums force the top numbers to agree as well.

    Guarded at 3 <= n <= 7: below 3 the proper part is empty (the reduced
    homology of the empty complex lives in degree -1 and is left out), above
    7 the chain complex is too large for the F_2 elimination here.
    """
    if not 3 <= n <= 7:
        raise DomainError("poset_homology supports 3 <= n <= 7")
    by_len = _chains(*_proper_part(n))
    top = max(by_len)

    # rank over F_2 of the boundary d_q : C_q -> C_{q-1}; a chain's row is
    # the list of its faces, a chain of length L being a (L - 1)-simplex
    ranks = {0: 1}
    for L in range(2, top + 1):
        tgt = {c: k for k, c in enumerate(by_len[L - 1])}
        ranks[L - 1] = sparse_rank([[tgt[c[:d] + c[d + 1:]] for d in range(L)]
                                    for c in by_len[L]])

    out = tuple((q, len(by_len[q + 1]) - ranks[q] - ranks.get(q + 1, 0))
                for q in range(top))
    if any(d for _, d in out[:-1]):
        raise ArithmeticError(f"the F_2 homology of the partition poset at "
                              f"n = {n} is not concentrated in degree {n - 3}")
    return out
