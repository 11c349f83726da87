from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.analytic import principal_lambda, transport
from polylogvar.errors import DomainError
from polylogvar.hodge import (FilteredFiber, OneForm,
                              connection, evaluate_connection,
                              flatness_residual, graded_dimensions,
                              hodge_transversality_check, kummer_block_check,
                              trivial_subobject_check)
from polylogvar.paths import canonical_loop

from oracles import ref_transversality_failures


class TestConnection:
    def test_weight_zero(self):
        c = connection(0)
        assert c.entries == ((OneForm.ZERO,),)

    def test_weight_one(self):
        c = connection(1)
        assert c.entry(0, 1) == OneForm.DLOG_1MZ
        assert c.entry(0, 0) == OneForm.ZERO
        assert c.entry(1, 1) == OneForm.ZERO

    def test_weight_three_superdiagonal(self):
        c = connection(3)
        sup = tuple(c.entry(k, k + 1) for k in range(3))
        assert sup == (OneForm.DLOG_1MZ, OneForm.DLOG_Z, OneForm.DLOG_Z)
        for i in range(4):
            for j in range(4):
                if j != i + 1:
                    assert c.entry(i, j) == OneForm.ZERO

    def test_evaluate(self):
        A = evaluate_connection(connection(1), 0.5)
        assert A[0][1] == 2
        A = evaluate_connection(connection(2), 2)
        assert A[0][1] == -1
        assert A[1][2] == mp.mpf("0.5")

    def test_evaluate_at_puncture(self):
        with pytest.raises(DomainError):
            evaluate_connection(connection(1), 0)
        with pytest.raises(DomainError):
            evaluate_connection(connection(2), 1)


class TestFlatness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 20])
    def test_residual_small(self, n):
        assert flatness_residual(n, 0.5) <= 1e-4
        for z in (0.1, 0.5, 0.75, 0.9):
            assert flatness_residual(n, z, prec=128) <= 1e-4
        # the step follows the precision, so the residual falls with it
        assert (flatness_residual(n, 0.5, prec=256)
                < flatness_residual(n, 0.5, prec=128))


class TestFiltrations:
    def test_graded_dimensions_n2(self):
        fib = FilteredFiber.from_period_matrix(principal_lambda(2, 0.5))
        assert graded_dimensions(fib) == [(0, 1), (2, 1), (4, 1)]

    def test_graded_dimensions_n0(self):
        fib = FilteredFiber.from_period_matrix(principal_lambda(0, 0.5))
        assert graded_dimensions(fib) == [(0, 1)]

    def test_graded_dimensions_n4(self):
        fib = FilteredFiber.from_period_matrix(principal_lambda(4, 0.5))
        dims = graded_dimensions(fib)
        assert len(dims) == 5
        assert all(d == 1 for _, d in dims)
        assert sum(d for _, d in dims) == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 20, 64])
    def test_transversality_principal(self, n):
        for z in (0.1, 0.5):
            fib = FilteredFiber.from_period_matrix(principal_lambda(n, z))
            assert hodge_transversality_check(fib).passed
            assert graded_dimensions(fib) == [(2 * k, 1) for k in range(n + 1)]

    def test_transversality_degenerate(self):
        lam = principal_lambda(2, 0.5)
        grid = [list(row) for row in lam.entries]
        for i in range(3):
            grid[i][1] = grid[i][0]  # hodge column 1 replaced by column 0
        fib = FilteredFiber(2, tuple(tuple(r) for r in grid))
        assert not hodge_transversality_check(fib).passed

    def test_transversality_refuses_a_lower_entry(self):
        grid = [list(row) for row in principal_lambda(3, 0.5).entries]
        grid[2][1] = grid[1][1]
        rep = hodge_transversality_check(
            FilteredFiber(3, tuple(tuple(r) for r in grid)))
        assert not rep.passed
        assert rep.failures == ((1, "entry (2, 1) below the diagonal is "
                                    "nonzero: the fiber is not upper "
                                    "triangular"),)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_transversality_matches_rational_oracle(self, data):
        """Random upper-triangular rational fibers, with random exact zeros
        on the diagonal, fail at the k where nullspaces over Q say so."""
        n = data.draw(st.integers(0, 5))
        entry = st.fractions(-3, 3, max_denominator=4)
        nonzero = entry.filter(bool)
        grid = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            zero = data.draw(st.booleans())
            grid[i][i] = Fraction(0) if zero else data.draw(nonzero)
            for j in range(i + 1, n + 1):
                grid[i][j] = data.draw(entry)
        rep = hodge_transversality_check(
            FilteredFiber(n, tuple(tuple(r) for r in grid)))
        failing = ref_transversality_failures(grid)
        assert [k for k, _ in rep.failures] == sorted(failing)
        assert rep.passed == (not failing)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transversality_survives_transport(self, n):
        start = principal_lambda(n, 0.5)
        for which in (0, 1):
            moved = transport(n, canonical_loop(which), start)
            fib = FilteredFiber.from_period_matrix(moved)
            assert hodge_transversality_check(fib).passed


class TestKummerBlock:
    def test_weight_one_block(self):
        assert kummer_block_check(1, 0.5).passed

    def test_weight_two_block_by_hand(self):
        # expected block: [[2 pi i, 2 pi i log z], [0, (2 pi i)^2]]
        lam = principal_lambda(2, 0.5)
        with mp.workprec(128):
            tpi = 2j * mp.pi
            lg = mp.log(mp.mpf("0.5"))
            assert abs(lam.entries[1][1] - tpi) < mp.mpf("1e-30")
            assert abs(lam.entries[1][2] - tpi * lg) < mp.mpf("1e-30")
            assert abs(lam.entries[2][2] - tpi ** 2) < mp.mpf("1e-28")
        assert kummer_block_check(2, 0.5).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("z", ["0.3", "0.5", "0.7"])
    def test_block_structure(self, n, z):
        assert kummer_block_check(n, mp.mpf(z), tol=1e-10).passed

    def test_needs_positive_weight(self):
        with pytest.raises(DomainError):
            kummer_block_check(0, 0.5)


class TestTrivialSub:
    @pytest.mark.parametrize("n", [1, 2])
    def test_e0_fixed(self, n):
        rep = trivial_subobject_check(n, tol=1e-10)
        assert rep.passed, rep.details

    @pytest.mark.parametrize("z", ["0.3", "0.5", "0.7"])
    def test_lambda_column_zero(self, z):
        for n in range(1, 5):
            lam = principal_lambda(n, mp.mpf(z))
            assert lam.entries[0][0] == 1
            assert all(lam.entries[i][0] == 0 for i in range(1, n + 1))
