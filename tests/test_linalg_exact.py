"""The F_2 rank kernel against a dense mod-2 elimination, and against the
rank over Q that it bounds from below."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.linalg_exact import sparse_rank, sparse_rref

from oracles import gf2_rank

# mostly zeros, so the rows are sparse and often dependent
_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    return [draw(st.lists(_ENTRY, min_size=cols, max_size=cols))
            for _ in range(rows)]


def _odd_columns(matrix):
    return [[c for c, v in enumerate(row) if v % 2] for row in matrix]


def _rational_rows(matrix):
    return [{c: Fraction(v) for c, v in enumerate(row) if v} for row in matrix]


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_is_gf2_rank_and_bounds_rational_rank(matrix):
    rank = sparse_rank(_odd_columns(matrix))
    assert rank == gf2_rank(matrix)
    assert rank <= len(sparse_rref(_rational_rows(matrix)))


def test_lower_bound_can_be_strict():
    matrix = [[1, 1], [1, -1]]
    assert sparse_rank(_odd_columns(matrix)) == 1
    assert len(sparse_rref(_rational_rows(matrix))) == 2
