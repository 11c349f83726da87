import contextlib
import inspect
import io
import json
import textwrap
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polylogvar import acceptance, analytic, cli, hodge
from polylogvar.analytic import principal_lambda, transport
from polylogvar.errors import DomainError
from polylogvar.hodge import (ConnectionMatrix, FilteredFiber, OneForm,
                              connection, flatness_residual, graded_dimensions,
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
        assert c.entries[0][1] == OneForm.DLOG_1MZ
        assert c.entries[0][0] == OneForm.ZERO
        assert c.entries[1][1] == OneForm.ZERO

    def test_weight_three_superdiagonal(self):
        c = connection(3)
        sup = tuple(c.entries[k][k + 1] for k in range(3))
        assert sup == (OneForm.DLOG_1MZ, OneForm.DLOG_Z, OneForm.DLOG_Z)
        for i in range(4):
            for j in range(4):
                if j != i + 1:
                    assert c.entries[i][j] == OneForm.ZERO


def _patched_kummer_rows(old, new):
    """kummer_rows with one piece of its source replaced."""
    src = textwrap.dedent(inspect.getsource(analytic.kummer_rows))
    assert src.count(old) == 1
    scope = dict(vars(analytic))
    exec(src.replace(old, new), scope)
    return scope["kummer_rows"]


def _flatness_fails(n, prec=128):
    """flatness_residual and the flatness command fail, and so does
    criterion 2, which runs n = 1..4, if the fault reaches n <= 4."""
    assert not flatness_residual(n, "0.5", prec=prec).passed
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["flatness", "--n", str(n),
                         "--precision", str(prec)]) == 1
    assert json.loads(out.getvalue())["verdict"] == "fail"
    assert acceptance.criterion_2().passed is (n > 4)


class TestFlatness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 20])
    def test_residual_small(self, n):
        """Row 0 meets the series within its proved radius, with room to
        spare, at either precision, and the ratio is never 0."""
        for prec in (128, 256):
            for z in (0.1, 0.5, 0.75, 0.9):
                rep = flatness_residual(n, z, prec=prec)
                assert rep.passed and 0 < rep.residual < 1e-2, (z, prec, rep)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 20), z=st.floats(0.01, 0.99),
           prec=st.integers(64, 512))
    @example(n=1, z=0.41315746116475677, prec=64)
    def test_every_drawn_case_passes(self, n, z, prec):
        """Every drawn case passes.  The residual may be 0: in the example
        the stepped and the summed Li_1 are the same number at F = 84 bits,
        each a relative 2.9e-24 from -log(1 - z), inside the proved radius.
        test_residual_does_not_underflow_at_4096_bits keeps the guard
        against an underflowed 0."""
        rep = flatness_residual(n, z, prec=prec)
        assert rep.passed and 0 <= rep.residual <= 1, rep

    @pytest.mark.parametrize("z", ["0.1", "0.5", "0.9"])
    def test_weight_64_passes_at_128_bits(self, z):
        rep = flatness_residual(64, z, prec=128)
        assert rep.passed and 0 < rep.residual <= 1, rep

    def test_weight_zero_has_no_row_to_tie(self):
        assert flatness_residual(0, 0.5) == hodge.FlatnessReport(True, 0.0)

    def test_residual_does_not_underflow_at_4096_bits(self):
        assert 0 < flatness_residual(2, 0.5, prec=4096).residual <= 1

    @pytest.mark.parametrize("z", [0, 1, 1.5, mp.mpc(0.5, 0.1), 2.0 ** -1023])
    def test_z_outside_the_domain(self, z):
        with pytest.raises(DomainError):
            flatness_residual(2, z)

    @pytest.mark.parametrize("n, i, j, tag", [
        (3, 0, 1, OneForm.DLOG_Z), (3, 2, 3, OneForm.ZERO),
        (3, 1, 2, OneForm.DLOG_1MZ), (3, 1, 3, OneForm.DLOG_Z),
        (3, 2, 1, OneForm.DLOG_Z), (64, 63, 64, OneForm.ZERO)])
    def test_patched_tag_fails(self, n, i, j, tag, monkeypatch):
        monkeypatch.setattr(hodge, "connection",
                            _connection_with_tag(i, j, tag))
        assert flatness_residual(n, "0.5").residual <= 1
        _flatness_fails(n)

    def test_biased_li2_fails(self, monkeypatch):
        """Li_2 off by a relative 1e-30 everywhere: the series at z' and the
        row stepped from the series at z'/2 no longer meet."""
        li_row = analytic._li_row

        def biased(n, z, prec):
            row = li_row(n, z, prec)
            if n >= 2:
                row[1] *= 1 + mp.mpf("1e-30")
            return row
        monkeypatch.setattr(analytic, "_li_row", biased)
        monkeypatch.setattr(hodge, "_li_row", biased)
        assert flatness_residual(2, "0.5").residual > 1e6
        # above 3/4 both sides of the tie are chains, from 3/4 and from z'/2
        assert flatness_residual(2, "0.9").residual > 1e6
        _flatness_fails(2)

    @pytest.mark.parametrize("z", ["1e-5", "1e-100", "1e-300"])
    def test_z_far_below_one_passes(self, z):
        rep = flatness_residual(3, z, prec=128)
        assert rep.passed and 0 < rep.residual < 1e-2, rep

    def test_biased_li1_fails_far_below_one(self, monkeypatch):
        """Li_1 off by a relative 1e-30 at z = 1e-100, where the row is
        about 1e-100: the radius is relative to the row, so the bias fails.
        A radius with an absolute term (n + 1) 2^-(prec + 6) passed it."""
        li_row = analytic._li_row

        def biased(n, z, prec):
            row = li_row(n, z, prec)
            row[0] *= 1 + mp.mpf("1e-30")
            return row
        monkeypatch.setattr(analytic, "_li_row", biased)
        monkeypatch.setattr(hodge, "_li_row", biased)
        rep = flatness_residual(3, "1e-100", prec=128)
        assert not rep.passed and rep.residual > 1e6, rep

    def test_patched_kummer_rows_fail(self, monkeypatch):
        monkeypatch.setattr(hodge, "kummer_rows", _patched_kummer_rows(
            "terms[-1] * lg / m)", "terms[-1] * lg / (m + 1))"))
        rep = flatness_residual(3, "0.5")
        assert rep.residual <= 1 and not rep.passed
        _flatness_fails(3)


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
        assert kummer_block_check(n, mp.mpf(z)).passed

    def test_needs_positive_weight(self):
        with pytest.raises(DomainError):
            kummer_block_check(0, 0.5)

    def test_identity_is_exact_for_every_matrix_weight(self):
        assert all(hodge._kummer_identity(n) for n in range(1, 65))

    @pytest.mark.parametrize("n, z, prec", [(40, "0.230867", 128),
                                            (51, "0.880774", 64)])
    def test_one_ulp_on_a_large_entry_passes(self, n, z, prec):
        """Entries near 1e28 off by one rounding, within the proved radius;
        an absolute tolerance of 1e-12 failed both."""
        rep = kummer_block_check(n, z, prec=prec)
        assert rep.passed and rep.failing_entry is None, rep

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 64), k=st.integers(1, 999_999),
           prec=st.sampled_from([64, 128, 256, 512]))
    def test_every_drawn_block_passes(self, n, k, prec):
        assert kummer_block_check(n, f"{k / 10 ** 6:.6f}", prec=prec).passed

    def test_needs_no_li_series(self, monkeypatch):
        """The block reads rows 1..n alone; it never builds row 0, even at
        z = 0.9999 and 512 bits."""
        def no_series(*args):
            raise AssertionError("kummer_block_check summed row 0")
        monkeypatch.setattr(analytic, "_li_row", no_series)
        with pytest.raises(AssertionError):
            principal_lambda(2, "0.5")
        rep = kummer_block_check(64, "0.9999", prec=512)
        assert rep.passed

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_patched_row_recurrence_fails(self, prec, monkeypatch):
        monkeypatch.setattr(hodge, "kummer_rows", _patched_kummer_rows(
            "terms[-1] * lg / m)", "terms[-1] * lg / (m + 1))"))
        rep = kummer_block_check(3, "0.5", prec=prec)
        assert not rep.passed and rep.failing_entry == (1, 2)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["kummer-block", "--n", "3", "--z", "0.5",
                             "--precision", str(prec)]) == 1
        assert json.loads(out.getvalue())["verdict"] == "fail"

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("shift, passed", [(-1, True), (2, False)])
    def test_entry_moved_against_the_radius(self, prec, shift, passed,
                                            monkeypatch):
        """Moving one entry by 2^-(prec + 1) keeps it inside the proved
        radius 2^-(prec - 1); moving it by 2^-(prec - 2) puts it outside."""
        rows = analytic.kummer_rows(4, "0.3", prec=prec)
        with mp.workprec(prec + 20):
            rows[1][4] *= 1 + mp.ldexp(1, -prec + shift)
        monkeypatch.setattr(hodge, "kummer_rows", lambda *a, **k: rows)
        rep = kummer_block_check(4, "0.3", prec=prec)
        assert rep.passed is passed
        assert rep.failing_entry == (None if passed else (2, 4))

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("n, z", [(1, "0.5"), (4, "0.3"),
                                      (40, "0.230867")])
    def test_max_error_is_the_relative_distance(self, n, z, prec,
                                                monkeypatch):
        """On a correct block max_error is positive, as each entry is
        rounded to prec bits, and within the radius; an entry moved by a
        relative 2^-(prec - 3) raises it above the radius."""
        radius = 2.0 ** (1 - prec) + 2.0 ** -(prec + 8)
        rep = kummer_block_check(n, z, prec=prec)
        assert rep.passed and 0 < rep.max_error <= radius
        rows = analytic.kummer_rows(n, z, prec=prec)
        with mp.workprec(prec + 20):
            rows[0][n] *= 1 + mp.ldexp(1, 3 - prec)
        monkeypatch.setattr(hodge, "kummer_rows", lambda *a, **k: rows)
        rep = kummer_block_check(n, z, prec=prec)
        assert not rep.passed and rep.failing_entry == (1, n)
        assert rep.max_error > radius


def _connection_with_tag(i, j, tag=OneForm.DLOG_Z):
    def patched(n):
        grid = [list(row) for row in connection(n).entries]
        if max(i, j) <= n:
            grid[i][j] = tag
        return ConnectionMatrix(n, tuple(map(tuple, grid)))
    return patched


class TestTrivialSub:
    @pytest.mark.parametrize("n", [1, 2])
    def test_e0_fixed(self, n):
        rep = trivial_subobject_check(n)
        assert rep.passed, rep.details

    def test_every_matrix_weight(self):
        assert all(trivial_subobject_check(n).passed for n in range(65))

    @pytest.mark.parametrize("i, j, reason", [
        (1, 0, "e_0 is not flat"), (2, 1, "not strictly upper triangular"),
        (2, 2, "not strictly upper triangular")])
    def test_patched_connection_fails(self, i, j, reason, monkeypatch):
        monkeypatch.setattr(hodge, "connection", _connection_with_tag(i, j))
        rep = trivial_subobject_check(3)
        assert not rep.passed
        assert rep.details == (f"connection entry ({i}, {j}) is dz/z: "
                               f"{reason}",)
        crit = acceptance.criterion_4()
        assert not crit.passed
        assert crit.details[f"trivial_sub_n{max(i, j)}"] is False

    @pytest.mark.parametrize("z", ["0.3", "0.5", "0.7"])
    def test_lambda_column_zero(self, z):
        for n in range(1, 5):
            lam = principal_lambda(n, mp.mpf(z))
            assert lam.entries[0][0] == 1
            assert all(lam.entries[i][0] == 0 for i in range(1, n + 1))
