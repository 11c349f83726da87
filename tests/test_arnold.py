import inspect
import itertools
import math
import types
from fractions import Fraction

import pytest

from polylogvar import arnold
from polylogvar.arnold import (ClassFunction, arnold_character,
                               arnold_dimension, class_size,
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

    @staticmethod
    def _induce_trivial(monkeypatch):
        """Induce from the trivial character instead: its sums over the
        powers of the n-cycle count them, Euler's phi in place of Moebius."""
        monkeypatch.setattr(arnold, "_mobius", lambda m: sum(
            1 for e in range(1, m + 1) if math.gcd(e, m) == 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trivial_character_fails(self, monkeypatch, n):
        self._induce_trivial(monkeypatch)
        assert not induced_character_check(n)

    def test_trivial_character_degree_matches(self, monkeypatch):
        # degrees agree (index of the subgroup), the values do not
        self._induce_trivial(monkeypatch)
        for n in range(2, 6):
            ind = induced_cyclic_character(n)
            assert ind.degree() == math.factorial(n - 1)

    def test_weight_three_by_hand(self):
        ind = induced_cyclic_character(3)
        # classes (3,), (2,1), (1,1,1): mu(1)=1 on the 3-cycles, 0, degree 2
        assert ind.values == (Fraction(-1), Fraction(0), Fraction(2))

    def test_sign_tensor(self):
        sgn = sign_character(4)
        assert sgn.tensor_sign().values == tuple(
            Fraction(1) for _ in integer_partitions(4))


# the edges of K_8 in lexicographic order; the engine stores a monomial as
# the OR of 1 << (index of each edge), the oracles as a sorted tuple of pairs
EDGES = list(itertools.combinations(range(1, 9), 2))


def mask(mono):
    """The bitmask of a monomial given as edge pairs (i, j), i < j."""
    return sum(1 << EDGES.index(e) for e in mono)


def pairs(m):
    """The sorted tuple of edge pairs of a bitmask monomial."""
    return tuple(e for c, e in enumerate(EDGES) if m >> c & 1)


def masked(combo):
    """A combination keyed by edge-pair tuples, keyed by bitmasks."""
    return {mask(mono): c for mono, c in combo.items()}


def sort_sign(word):
    """Sorted tuple of a word of edge pairs and the sign of sorting it,
    (None, 0) on a repeat."""
    if len(set(word)) < len(word):
        return None, 0
    inversions = sum(a > b for a, b in itertools.combinations(word, 2))
    return tuple(sorted(word)), (-1) ** inversions


def action_matrix(n, perm):
    """Matrix of a vertex permutation (dict v -> image) on the nbc basis, by
    the normal form: {(row monomial, column monomial): coefficient} in edge
    pairs, zeros left out."""
    out = {}
    for b in arnold._nbc_top(n):
        m, sgn = arnold._act(perm, b)
        for row, v in arnold._reduce({m: sgn}).items():
            out[(pairs(row), pairs(b))] = v
    return out


def mutant(old, new):
    """A fresh copy of the arnold module with the one occurrence of ``old``
    in its source replaced by ``new``; the real module is left alone."""
    source = inspect.getsource(arnold)
    assert source.count(old) == 1, old
    module = types.ModuleType(arnold.__name__)
    module.__package__ = arnold.__package__
    exec(compile(source.replace(old, new), arnold.__file__, "exec"),
         module.__dict__)
    return module


class TestArnoldElements:
    def test_three_term_relation_reduces_to_zero(self):
        # e12 e13 - e12 e23 + e13 e23 = 0 in the top component of n = 3
        assert arnold._reduce(masked({((1, 2), (1, 3)): 1,
                                      ((1, 2), (2, 3)): -1,
                                      ((1, 3), (2, 3)): 1})) == {}
        assert arnold._reduce({mask(((1, 3), (2, 3))): 1}) == masked({
            ((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1})

    def test_squares_vanish(self):
        e12, e13 = mask([(1, 2)]), mask([(1, 3)])
        assert arnold._times(e12, e12) == (0, 0)
        assert arnold._times(e13, e12) == (mask([(1, 2), (1, 3)]), -1)
        assert arnold._times(e12, e13) == (mask([(1, 2), (1, 3)]), 1)

    def test_signs_match_sorted_tuples(self):
        # every edge times every monomial of degree <= 3 on K_5, and every
        # permutation of 1..4 on every monomial of degree <= 3 on K_4,
        # against sorting the tuple of edge pairs
        k5 = list(itertools.combinations(range(1, 6), 2))
        for d in range(4):
            for mono in itertools.combinations(k5, d):
                for e in k5:
                    m, s = sort_sign((e,) + mono)
                    assert arnold._times(mask([e]), mask(mono)) == (
                        (mask(m), s) if s else (0, 0))
        k4 = list(itertools.combinations(range(1, 5), 2))
        for images in itertools.permutations(range(1, 5)):
            perm = dict(zip(range(1, 5), images))
            for d in range(4):
                for mono in itertools.combinations(k4, d):
                    m, s = sort_sign(tuple(tuple(sorted((perm[i], perm[j])))
                                           for i, j in mono))
                    assert arnold._act(perm, mask(mono)) == (mask(m), s)

    def test_basis_size(self):
        assert len(arnold._nbc_top(3)) == 2
        assert len(arnold._nbc_top(4)) == 6
        assert all(arnold._reduce({b: 1}) == {b: 1} for b in arnold._nbc_top(4))

    def test_explicit_action_matrices_weight_three(self):
        # the 2x2 matrices of a transposition and a 3-cycle on the nbc basis
        # reproduce the character values 0 and -1
        basis = [pairs(b) for b in arnold._nbc_top(3)]
        assert sorted(basis) == [((1, 2), (1, 3)), ((1, 2), (2, 3))]
        for lam, trace in (((2, 1), 0), ((3,), -1)):
            m = action_matrix(3, cycle_type_representative(lam))
            assert {key for pair in m for key in pair} <= set(basis)
            assert sum(m.get((b, b), 0) for b in basis) == trace


class TestStraightening:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_kills_every_top_degree_relation_multiple(self, n):
        rows = list(arnold_relation_rows(n, n - 1))
        assert rows
        assert not any(arnold._reduce(masked(row)) for row in rows)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_character_matches_elimination(self, n):
        want = []
        for lam in integer_partitions(n):
            action = ref_arnold_action(n, cycle_type_representative(lam))
            want.append(sum(v for (row, col), v in action.items() if row == col))
        assert list(arnold_character(n).values) == want

    @pytest.mark.parametrize("n", range(2, 6))
    def test_action_matrices_match_elimination(self, n):
        for images in itertools.permutations(range(1, n + 1)):
            perm = dict(zip(range(1, n + 1), images))
            assert action_matrix(n, perm) == ref_arnold_action(n, perm)

    @pytest.mark.parametrize("old,new", [
        # the product sign forced to +1
        ("return x | m, -1 if (m & (x - 1)).bit_count() & 1 else 1",
         "return x | m, 1"),
        # the rewrite's second term dropped
        ("for y, c in ((b, sign), (a, -sign)):", "for y, c in ((b, sign),):"),
        # the rewrite's signs flipped
        ("for y, c in ((b, sign), (a, -sign)):",
         "for y, c in ((b, -sign), (a, sign)):"),
    ], ids=["product-sign-plus-one", "rewrite-second-term-dropped",
            "rewrite-signs-flipped"])
    def test_certificate_catches_a_faulty_engine(self, old, new):
        """The kill check is not vacuous: each of these faults in the
        engine makes the certificate fail."""
        with pytest.raises(ArithmeticError):
            mutant(old, new)._certify()

    def test_certificate_guards_every_result(self, monkeypatch):
        cached = (arnold._certify, arnold.arnold_dimension,
                  arnold.arnold_character)
        monkeypatch.setattr(arnold, "sparse_rank", lambda rows: 69)
        for f in cached:
            f.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                arnold_dimension(4)
            with pytest.raises(ArithmeticError):
                arnold_character(3)
        finally:
            for f in cached:
                f.cache_clear()


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
