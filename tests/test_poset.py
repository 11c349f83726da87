import itertools
import math
from collections import Counter

import pytest

from polylogvar import poset
from polylogvar.errors import DomainError
from polylogvar.partitions import partitions_of
from polylogvar.poset import poset_homology

from oracles import ref_el_all_intervals, ref_poset_homology


@pytest.mark.parametrize("n,degree,dim", [(3, 0, 2), (4, 1, 6), (5, 2, 24)])
def test_concentrated_homology(n, degree, dim):
    hom = dict(poset_homology(n))
    assert hom[degree] == dim
    assert all(d == 0 for q, d in hom.items() if q != degree)


def test_weight_six():
    hom = dict(poset_homology(6))
    assert hom[3] == math.factorial(5)
    assert all(d == 0 for q, d in hom.items() if q != 3)


def test_weight_seven():
    hom = dict(poset_homology(7))
    assert hom[4] == math.factorial(6)
    assert all(d == 0 for q, d in hom.items() if q != 4)


def test_weight_eight():
    assert poset_homology(8) == tuple((q, 5040 if q == 5 else 0)
                                      for q in range(6))


def test_top_degree_matches_factorial():
    for n in (3, 4, 5):
        hom = dict(poset_homology(n))
        assert hom[n - 3] == math.factorial(n - 1)


def test_degree_range():
    hom = poset_homology(5)
    assert [q for q, _ in hom] == [0, 1, 2]


def test_small_n_refused():
    # the proper part of the rank-2 lattice is empty; the degree -1
    # convention is deliberately not implemented
    with pytest.raises(DomainError):
        poset_homology(2)
    with pytest.raises(DomainError):
        poset_homology(9)


@pytest.mark.parametrize("n", range(3, 7))
def test_matches_rational_oracle(n):
    assert poset_homology(n) == ref_poset_homology(n)


def _min_min(blocks, a, b):
    return blocks[a][0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_min_min_labelling_is_refused(monkeypatch, n):
    """Labelling a merge by the smaller of the two minima is not an
    EL-labelling (1 is that label at every merge that touches 1), and the
    check must say so rather than count chains."""
    monkeypatch.setattr(poset, "_label", _min_min)
    poset_homology.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not an EL-labelling"):
            poset_homology(n)
    finally:
        poset_homology.cache_clear()


@pytest.mark.parametrize("n", range(3, 8))
def test_all_interval_oracle_counts_the_top_dimension(n):
    """The check of every interval from every partition accepts the
    labelling and counts what the one pass from the bottom counts."""
    assert ref_el_all_intervals(n, poset._label) == \
        dict(poset_homology(n))[n - 3] == math.factorial(n - 1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_all_interval_oracle_refuses_min_min(n):
    with pytest.raises(ArithmeticError, match="not an EL-labelling"):
        ref_el_all_intervals(n, _min_min)


def _merges(z, y):
    """(label, cover) for each merge of two blocks of z that stays below y."""
    for a, b in itertools.combinations(range(len(z)), 2):
        merged = set(z[a] + z[b])
        if any(merged <= set(block) for block in y):
            cover = tuple(sorted(z[:a] + z[a + 1:b] + z[b + 1:]
                                 + (tuple(sorted(merged)),)))
            yield poset._label(z, a, b), cover


def _chain_words(x, y):
    """Counter of the label words of the maximal chains of [x, y]."""
    if len(x) == len(y):
        return Counter([()])
    words = Counter()
    for k, z in _merges(x, y):
        for w, c in _chain_words(z, y).items():
            words[(k,) + w] += c
    return words


def _finer(x, y):
    return all(any(set(a) <= set(b) for b in y) for a in x)


@pytest.mark.parametrize("n", range(2, 6))
def test_every_interval_is_a_lower_interval(n):
    """The lemma in poset_homology's docstring: [x, y] has the maximal-chain
    label words of [0, y''], where y'' keeps of each block of y the minima
    of x's blocks and makes every other element a singleton."""
    parts = [p.blocks for p in partitions_of(n)]
    bottom = tuple((i,) for i in range(1, n + 1))
    pairs = 0
    for x in parts:
        minima = {block[0] for block in x}
        for y in parts:
            if not _finer(x, y):
                continue
            lower = tuple(sorted(
                [tuple(i for i in block if i in minima) for block in y]
                + [(i,) for i in range(1, n + 1) if i not in minima]))
            assert _chain_words(x, y) == _chain_words(bottom, lower), (x, y)
            pairs += 1
    assert pairs == {2: 3, 3: 12, 4: 60, 5: 358}[n]  # every x <= y in Pi_n


def test_label_is_the_retired_minimum():
    # merging {2, 5} into {1, 3} retires 2; merging {4} into {2, 5} retires 4
    blocks = ((1, 3), (2, 5), (4,))
    assert [poset._label(blocks, a, b) for a, b in [(0, 1), (1, 2)]] == [2, 4]


def test_cached_result_cannot_be_changed():
    poset_homology.cache_clear()
    try:
        hom = poset_homology(4)
        with pytest.raises(TypeError):
            hom[1] = (1, 0)
        assert poset_homology(4) == ((0, 0), (1, 6))
    finally:
        poset_homology.cache_clear()
