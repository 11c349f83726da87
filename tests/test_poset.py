import math

import pytest

from polylogvar import poset
from polylogvar.errors import DomainError
from polylogvar.poset import poset_homology

from oracles import ref_poset_homology


@pytest.mark.parametrize("n,degree,dim", [(3, 0, 2), (4, 1, 6), (5, 2, 24)])
def test_concentrated_homology(n, degree, dim):
    hom = dict(poset_homology(n))
    assert hom[degree] == dim
    assert all(d == 0 for q, d in hom.items() if q != degree)


def test_weight_six():
    hom = dict(poset_homology(6))
    assert hom[3] == math.factorial(5)
    assert all(d == 0 for q, d in hom.items() if q != 3)


@pytest.mark.slow
def test_weight_seven():
    hom = dict(poset_homology(7))
    assert hom[4] == math.factorial(6)
    assert all(d == 0 for q, d in hom.items() if q != 4)


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
        poset_homology(8)


@pytest.mark.parametrize("n", range(3, 7))
def test_matches_rational_oracle(n):
    assert poset_homology(n) == ref_poset_homology(n)


def test_undercounted_rank_is_refused(monkeypatch):
    rank = poset.sparse_rank
    monkeypatch.setattr(poset, "sparse_rank", lambda rows: rank(rows) - 1)
    poset_homology.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            poset_homology(5)
    finally:
        poset_homology.cache_clear()


def test_cached_result_cannot_be_changed():
    poset_homology.cache_clear()
    try:
        hom = poset_homology(4)
        with pytest.raises(TypeError):
            hom[1] = (1, 0)
        assert poset_homology(4) == ((0, 0), (1, 6))
    finally:
        poset_homology.cache_clear()
