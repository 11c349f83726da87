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


@pytest.mark.slow
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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_min_min_labelling_is_refused(monkeypatch, n):
    """Labelling a merge by the smaller of the two minima is not an
    EL-labelling (1 is that label at every merge that touches 1), and the
    check must say so rather than count chains."""
    monkeypatch.setattr(poset, "_label", lambda blocks, a, b: blocks[a][0])
    poset_homology.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not an EL-labelling"):
            poset_homology(n)
    finally:
        poset_homology.cache_clear()


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
