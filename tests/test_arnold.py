import itertools
import math
from fractions import Fraction

import pytest

from polylogvar import arnold
from polylogvar.arnold import (ArnoldElement, ClassFunction, arnold_basis,
                               arnold_character, arnold_dimension, class_size,
                               cycle_type_representative,
                               induced_character_check,
                               induced_cyclic_character, integer_partitions,
                               sign_character, sign_multiplicity)
from polylogvar.errors import DomainError

from oracles import arnold_relation_rows, ref_arnold_action


class TestDimension:
    @pytest.mark.parametrize("n,dim", [(2, 1), (3, 2), (4, 6), (5, 24), (6, 120)])
    def test_factorial_dimension(self, n, dim):
        assert arnold_dimension(n) == dim == math.factorial(n - 1)

    def test_guard(self):
        with pytest.raises(DomainError):
            arnold_dimension(9)
        with pytest.raises(DomainError):
            arnold_dimension(1)

    @pytest.mark.slow
    def test_weight_seven(self):
        assert arnold_dimension(7) == math.factorial(6)


class TestCharacter:
    def test_weight_three_values(self):
        chi = arnold_character(3)
        # classes ordered (3,), (2,1), (1,1,1)
        assert chi.classes() == [(3,), (2, 1), (1, 1, 1)]
        assert chi.values == (Fraction(-1), Fraction(0), Fraction(2))

    def test_weight_two_explicit_action(self):
        # the swap maps e_{1,2} to itself: trace +1 on both classes
        chi = arnold_character(2)
        assert chi.values == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_degree_is_dimension(self, n):
        assert arnold_character(n).degree() == arnold_dimension(n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_is_a_character(self, n):
        chi = arnold_character(n)
        norm = chi.inner(chi)
        assert norm.denominator == 1 and norm > 0
        assert all(v.denominator == 1 for v in chi.values)

    def test_class_sizes_sum(self):
        for n in range(2, 7):
            assert sum(class_size(lam, n)
                       for lam in integer_partitions(n)) == math.factorial(n)


class TestSignMultiplicity:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_vanishes(self, n):
        assert sign_multiplicity(n) == 0

    def test_trivial_case(self):
        assert sign_multiplicity(1) == 1


class TestInducedCharacter:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_holds(self, n):
        assert induced_character_check(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trivial_character_fails(self, n):
        assert not induced_character_check(n, primitive=False)

    def test_trivial_character_degree_matches(self):
        # degrees agree (index of the subgroup), the values do not
        for n in range(2, 6):
            ind = induced_cyclic_character(n, primitive=False)
            assert ind.degree() == math.factorial(n - 1)

    def test_weight_three_by_hand(self):
        ind = induced_cyclic_character(3)
        # classes (3,), (2,1), (1,1,1): mu(1)=1 on the 3-cycles, 0, degree 2
        assert ind.values == (Fraction(-1), Fraction(0), Fraction(2))

    def test_sign_tensor(self):
        sgn = sign_character(4)
        assert sgn.tensor_sign().values == tuple(
            Fraction(1) for _ in integer_partitions(4))


class TestArnoldElements:
    def test_three_term_relation_reduces_to_zero(self):
        # e12 e13 - e12 e23 + e13 e23 = 0 in the top component of n = 3
        a = ArnoldElement.from_edges(3, [(1, 2), (1, 3)])
        b = ArnoldElement.from_edges(3, [(1, 2), (2, 3)])
        c = ArnoldElement.from_edges(3, [(1, 3), (2, 3)])
        assert (a + (-1) * b + c).is_zero()

    def test_zero_scalar_gives_zero(self):
        x = ArnoldElement.from_edges(3, [(1, 2), (1, 3)])
        assert (0 * x).is_zero() and 0 * x == ArnoldElement(3)

    def test_squares_vanish(self):
        assert ArnoldElement.from_edges(3, [(1, 2), (1, 2)]).is_zero()

    def test_basis_size(self):
        assert len(arnold_basis(3)) == 2
        assert len(arnold_basis(4)) == 6

    def test_explicit_action_matrices_weight_three(self):
        # the 2x2 matrices of a transposition and a 3-cycle on the echelon
        # basis reproduce the character values 0 and -1
        basis = [elem for _, elem in arnold_basis(3)]

        def matrix_of(perm):
            cols = []
            for e in basis:
                img = e.apply(perm)
                col = []
                for (_, b) in zip(range(len(basis)), basis):
                    # coordinates are echelon: read off directly
                    key = next(iter(b.coords))
                    col.append(img.coords.get(key, Fraction(0)))
                cols.append(col)
            return cols

        swap = cycle_type_representative((2, 1))
        rot = cycle_type_representative((3,))
        m_swap = matrix_of(swap)
        m_rot = matrix_of(rot)
        assert m_swap[0][0] + m_swap[1][1] == 0
        assert m_rot[0][0] + m_rot[1][1] == -1

    def test_action_respects_relations(self):
        perm = cycle_type_representative((4,))
        x = ArnoldElement.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        y = ArnoldElement.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert x.apply(perm) == y.apply(perm)


class TestStraightening:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_kills_every_top_degree_relation_multiple(self, n):
        rows = list(arnold_relation_rows(n, n - 1))
        assert rows
        assert all(ArnoldElement(n, row).is_zero() for row in rows)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_character_matches_elimination(self, n):
        want = []
        for lam in integer_partitions(n):
            action = ref_arnold_action(n, cycle_type_representative(lam))
            want.append(sum(v for (row, col), v in action.items() if row == col))
        assert list(arnold_character(n).values) == want

    @pytest.mark.parametrize("n", range(2, 6))
    def test_action_matrices_match_elimination(self, n):
        basis = arnold_basis(n)
        for images in itertools.permutations(range(1, n + 1)):
            perm = dict(zip(range(1, n + 1), images))
            action = {(m, pairs): v for pairs, elem in basis
                      for m, v in elem.apply(perm).coords.items()}
            assert action == ref_arnold_action(n, perm)

    def test_certificate_guards_every_result(self, monkeypatch):
        monkeypatch.setattr(arnold, "sparse_rank", lambda rows: 69)
        arnold._certify.cache_clear()
        arnold.arnold_dimension.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                arnold_dimension(4)
            with pytest.raises(ArithmeticError):
                arnold_basis(3)
        finally:
            arnold._certify.cache_clear()
            arnold.arnold_dimension.cache_clear()


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_identities_at_seven_and_eight(n):
    assert arnold_character(n).degree() == arnold_dimension(n) == math.factorial(n - 1)
    assert sign_multiplicity(n) == 0
    assert induced_character_check(n)


def test_class_function_inner_orthogonality():
    sgn = sign_character(5)
    triv = ClassFunction(5, tuple(Fraction(1) for _ in integer_partitions(5)))
    assert sgn.inner(sgn) == 1
    assert triv.inner(triv) == 1
    assert sgn.inner(triv) == 0


def test_class_function_equals_only_class_functions():
    """Equality is by type, n and values, never with the plain tuple of the
    same fields, and equal class functions hash alike."""
    chi = arnold_character(4)
    same = ClassFunction(4, tuple(chi.values))
    assert chi == same and not chi != same and hash(chi) == hash(same)
    assert chi != (chi.n, chi.values) and not chi == (chi.n, chi.values)
    assert chi != sign_character(4) and len({chi, same}) == 1
