import cmath
import functools
import math
import random
import types
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, from_rational, mpf_div
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polylogvar import analytic
from polylogvar.analytic import (li_series, monodromy, principal_lambda,
                                 transport)
from polylogvar.errors import (DomainError, IntegrationError, PathError,
                               ReconstructionError)
from polylogvar.exact import RationalMatrix
from polylogvar.paths import Arc, LineTo, PathSpec, canonical_loop

from oracles import (LOG2, ORACLE_PREC, PI2_OVER_12, alternating_li2_minus1,
                     period_matrix_invariants, ref_li_disk_counts,
                     ref_loop_word, ref_polylog, ref_minus_log1m,
                     ref_solution, ref_winding, ref_word_monodromy)

TOL = 1e-10


def expected_monodromy_loop1(n):
    """Continuation around 1 sends Li_k to Li_k - 2 pi i log^(k-1)/(k-1)!,
    i.e. row 0 maps to row 0 - row 1: the matrix I - E_{0,1}."""
    m = [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    m[0][1] = Fraction(-1)
    return RationalMatrix(m)


def expected_monodromy_loop0(n):
    """Continuation around 0 sends log z to log z + 2 pi i and fixes row 0:
    rows i >= 1 pick up 1/(k-i)! in column k."""
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    m[0][0] = Fraction(1)
    for i in range(1, n + 1):
        for k in range(i, n + 1):
            m[i][k] = Fraction(1, math.factorial(k - i))
    return RationalMatrix(m)


class TestLiSeries:
    def test_log2(self):
        v = li_series(1, 0.5, prec=128)
        with mp.workprec(256):
            assert abs(v - mp.mpf(LOG2)) < mp.mpf("1e-19")

    def test_against_log_oracle(self):
        for z in (0.5, -0.3, mp.mpc(0.2, 0.4)):
            v = li_series(1, z, prec=160)
            with mp.workprec(256):
                assert abs(v - ref_minus_log1m(z)) < mp.mpf("1e-24")

    def test_li2_minus_one(self):
        v = li_series(2, -1, prec=128)
        with mp.workprec(256):
            assert abs(v + mp.mpf(PI2_OVER_12)) < mp.mpf("1e-19")
            assert abs(v - alternating_li2_minus1()) < mp.mpf("1e-19")

    def test_zero(self):
        assert li_series(5, 0) == 0

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            li_series(1, 0.8)
        with pytest.raises(DomainError):
            li_series(1, mp.mpc(-0.8, 0.1))
        with pytest.raises(DomainError):
            li_series(0, 0.5)

    def test_disk_is_decided_exactly(self):
        """0.6 + 0.45i read at 128 bits lies outside |z| <= 3/4, by less
        than its rounded modulus shows; 0.75i and -0.75 lie on the rim."""
        with mp.workprec(128):
            z = mp.mpc("0.6", "0.45")
            assert abs(z) <= 0.75
        x, y = _fractions(z)
        assert x * x + y * y > Fraction(9, 16)
        with pytest.raises(DomainError, match="li_series requires"):
            li_series(2, "0.6+0.45j", prec=128)
        for z in (0.75j, -0.75, mp.mpc(0, "0.75")):
            with mp.workprec(ORACLE_PREC):
                assert abs(li_series(2, z) - ref_polylog(2, z)) \
                    < mp.mpf(2) ** -120

    @pytest.mark.parametrize("z", [mp.nan, mp.mpc(0.1, mp.nan),
                                   mp.mpc(mp.nan, 0), complex(-0.9, math.nan)])
    def test_non_finite_z_fails_the_domain_gate(self, z):
        with pytest.raises(DomainError, match="li_series requires"):
            li_series(1, z)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_polylog(self, n):
        for z in (0.5, -0.75, mp.mpc(0.3, -0.3)):
            v = li_series(n, z, prec=160)
            with mp.workprec(256):
                assert abs(v - ref_polylog(n, z)) < mp.mpf("1e-21")


# |z| stays below 0.75 after float rounding; the examples cover the rim
_DISK_POINTS = st.builds(lambda r, a: r * complex(math.cos(a), math.sin(a)),
                         st.floats(0, 0.7499), st.floats(0, 2 * math.pi))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 5), z=st.one_of(_DISK_POINTS, st.floats(-1, -0.75)),
       prec=st.sampled_from([64, 128, 256]))
@example(n=5, z=-1.0, prec=256)
@example(n=3, z=0.75j, prec=128)
def test_li_series_follows_precision(n, z, prec):
    """Both kernels of ``li_series`` are within a relative 2^-(prec - 1) of
    mpmath's polylog."""
    v = li_series(n, z, prec=prec)
    ref = ref_polylog(n, z, prec + 64)
    with mp.workprec(prec + 64):
        assert abs(v - ref) <= mp.mpf(2) ** -(prec - 1) * abs(ref)


def test_li_series_near_minus_one_needs_no_zeta_value():
    """On [-1, -3/4) the row is the series' row at -3/4 stepped along the
    line to z, so no eta or zeta value enters: with mpmath's altzeta and
    zeta made to raise, Li_8(-1) is -(1 - 2^-7) zeta(8) at 256 bits, and
    each value is within a relative 2^-(prec - 1) of mpmath's polylog."""
    def no_zeta(*args, **kwargs):
        raise AssertionError("a zeta value was used")
    cases = ((8, -1.0, 256), (3, -0.8, 128), (64, -0.99, 128))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp, "altzeta", no_zeta)
        patch.setattr(mp, "zeta", no_zeta)
        values = [li_series(n, z, prec=prec) for n, z, prec in cases]
    with mp.workprec(320):
        assert abs(values[0] + (1 - mp.mpf(2) ** -7) * mp.zeta(8)) \
            <= mp.mpf(2) ** -255
    for v, (n, z, prec) in zip(values, cases):
        ref = ref_polylog(n, z, prec + 64)
        with mp.workprec(prec + 64):
            assert abs(v - ref) <= mp.mpf(2) ** -(prec - 1) * abs(ref)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 8),
       z=st.floats(0.75, 1 - 1e-6, exclude_min=True, exclude_max=True),
       prec=st.sampled_from([64, 128, 256]))
@example(n=8, z=1 - 1e-6 - 2 ** -52, prec=256)
@example(n=2, z=0.75 + 2 ** -52, prec=64)
@example(n=64, z=0.9999, prec=512)
def test_principal_row0_above_three_quarters(n, z, prec):
    """Above 3/4 row 0 is the series' row at 3/4 stepped along the line to
    z; every entry is within a relative 2^-(prec - 1) of mpmath's polylog.
    At z = 0.9999 and 512 bits the series would need about 3.7 million
    terms; the chain from 3/4 takes 16 disks."""
    row = principal_lambda(n, z, prec=prec).entries[0]
    for j in range(1, n + 1):
        ref = ref_polylog(j, z, prec + 64)
        with mp.workprec(prec + 64):
            assert abs(row[j] - ref) <= mp.mpf(2) ** -(prec - 1) * abs(ref)


class TestPrincipalLambda:
    def test_weight_zero(self):
        lam = principal_lambda(0, 0.5)
        assert lam.entries[0][0] == 1

    def test_weight_one(self):
        lam = principal_lambda(1, 0.5)
        assert abs(lam.entries[0][1] - mp.mpf(LOG2)) < 1e-15
        with mp.workprec(128):
            assert abs(lam.entries[1][1] - 2j * mp.pi) < mp.mpf("1e-30")

    def test_weight_two_log_entry(self):
        lam = principal_lambda(2, 0.5)
        with mp.workprec(128):
            expected = 2j * mp.pi * mp.log(mp.mpf(1) / 2)
            assert abs(lam.entries[1][2] - expected) < mp.mpf("1e-30")

    def test_invariants(self):
        for n in range(5):
            assert period_matrix_invariants(principal_lambda(n, 0.5))

    def test_domain(self):
        for bad in (0, 1, -0.5, 1.5, mp.mpc(0.5, 0.1), complex(0.5, 0.1)):
            with pytest.raises(DomainError):
                principal_lambda(2, bad)

    def test_exact_rational_input(self):
        lam = principal_lambda(1, Fraction(1, 2))
        with mp.workprec(256):
            assert abs(lam.entries[0][1] - mp.mpf(LOG2)) < mp.mpf("1e-15")

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_every_entry_follows_precision(self, prec):
        """Every entry, the logarithm rows included, is within a relative
        2^-(prec - 1) of mpmath at prec + 64 bits, on 60 seeded x."""
        rng = random.Random(prec)
        n = 4
        for _ in range(60):
            x = rng.uniform(0.05, 0.95)
            lam = principal_lambda(n, x, prec=prec)
            ref = ref_solution(n, x, prec + 64)
            with mp.workprec(prec + 64):
                rel = mp.mpf(2) ** -(prec - 1)
                for i in range(n + 1):
                    for j in range(n + 1):
                        v, r = lam.entries[i][j], mp.mpc(ref[i, j])
                        assert abs(v - r) <= rel * abs(r), (prec, x, i, j)


def square_loop_around_one():
    pts = [complex(0.6, -0.5), complex(1.4, -0.5), complex(1.4, 0.5),
           complex(0.6, 0.5), complex(0.6, -0.5), complex(0.5, 0.0)]
    return PathSpec(complex(0.5, 0.0), tuple(LineTo(p) for p in pts),
                    closed=True, name="square1")


def contractible_square():
    pts = [complex(0.6, 0.1), complex(0.4, 0.1), complex(0.4, -0.1),
           complex(0.6, -0.1), complex(0.6, 0.0), complex(0.5, 0.0)]
    return PathSpec(complex(0.5, 0.0), tuple(LineTo(p) for p in pts),
                    closed=True, name="smallbox")


def _assert_row0_within_bound(moved, prec, end):
    """Row 0 of ``moved``, transport from 1/2 along a path that stays on
    the principal branch, lies within the whole-transport bound of row 0 of
    L(end), from mpmath's polylog and log at the working precision:
    2^-prec |v| + 2^-(prec + 6) e^|Lambda| W_0, with W_0 the weight of
    row 0 of L(1/2)."""
    n, oracle_prec = moved.n, mp.mp.prec
    want = ref_solution(n, end, oracle_prec)
    growth = mp.exp(abs(mp.log(end) - mp.log(0.5)))
    start = ref_solution(n, 0.5, oracle_prec)
    weight = sum(abs(start[0, k]) for k in range(n + 1))
    for j in range(1, n + 1):
        v = moved.entries[0][j]
        bound = mp.mpf(2) ** -prec * abs(v) \
            + mp.mpf(2) ** -(prec + 6) * growth * weight
        assert abs(v - want[0, j]) <= bound


class TestTransport:
    def test_contractible_loop_is_identity(self):
        n = 2
        start = principal_lambda(n, 0.5)
        moved = transport(n, contractible_square())
        for i in range(n + 1):
            for j in range(n + 1):
                assert abs(moved.entries[i][j] - start.entries[i][j]) <= 10 * TOL

    def test_loop1_weight_one_endpoint(self):
        # by-hand continuation of -log(1-z): the value drops by 2 pi i, to
        # log 2 - 2 pi i; the diagonal, up to (2 pi i)^64, does not move
        moved = transport(64, canonical_loop(1))
        with mp.workprec(ORACLE_PREC):
            tau = 2j * mp.pi
            for (i, j), want in (((0, 1), mp.log(2) - tau), ((1, 1), tau),
                                 ((64, 64), tau ** 64)):
                assert abs(moved.entries[i][j] - want) <= \
                    mp.mpf("1e-30") * abs(want), (i, j)
        assert moved.entries[0][0] == 1

    def test_loop0_weight_one_endpoint(self):
        # row 0, (1, -log(1-z), Li_2(z)), is single valued around 0
        start = principal_lambda(2, 0.5)
        moved = transport(2, canonical_loop(0))
        for j in range(3):
            assert abs(moved.entries[0][j] - start.entries[0][j]) <= \
                mp.mpf("1e-35"), j

    def test_margin_enforced(self):
        bad = PathSpec(complex(0.5, 0), (LineTo(complex(1.0 - 1e-6, 0)),
                                         LineTo(complex(0.5, 0))), closed=True)
        with pytest.raises(PathError):
            transport(1, bad)

    def test_triangular_structure_is_exact(self):
        n = 3
        start = principal_lambda(n, 0.5)
        moved = transport(n, canonical_loop(0))
        for i in range(n + 1):
            for j in range(i):
                assert moved.entries[i][j] == 0
        assert moved.entries[0][0] == 1
        # bottom row never moves
        for j in range(n):
            assert moved.entries[n][j] == 0
        assert moved.entries[n][n] == start.entries[n][n]
        assert period_matrix_invariants(moved)
        assert moved.branch_tag.endswith("loop0")

    # the ids keep the tolerances these cases passed when transport still
    # took one; the accuracy follows prec alone
    @pytest.mark.parametrize("prec", [128, 256], ids=["128-1e-40", "256-1e-80"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_precision_controls_accuracy(self, n, prec):
        # off the real axis to |z1| < 0.75, away from the cut [1, oo): row 0
        # continues to the principal Li_j(z1)
        z1 = complex(-0.25, 0.5)
        path = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.5, 0.5)), LineTo(z1)))
        moved = transport(n, path, prec=prec)
        with mp.workprec(ORACLE_PREC):
            bound = mp.mpf(2) ** -(prec - 16)
            for j in range(1, n + 1):
                assert abs(moved.entries[0][j] - ref_polylog(j, z1)) < bound

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("corner, centre", [(None, 0j),
                                                (0.5 + 0.5j, 0.1 + 0.1j)],
                             ids=["about-0", "inexact-radius"])
    def test_open_path_ends_on_its_arc(self, prec, corner, centre):
        """Transport along an arc of sweep pi/3 ends at
        p + (a - p) exp(i sweep) itself, for the start a and centre p, not
        at its float64 neighbour: row 0 lies within the whole-transport
        bound of row 0 of L(end), from mpmath's polylog and log at
        2 prec + 64 bits, the continuation that bound is stated against.
        From 0.5 + 0.5j about 0.1 + 0.1j, a - p is not exact in float64."""
        n = 4
        sweep = math.pi / 3
        lines = (LineTo(corner),) if corner else ()
        path = PathSpec(complex(0.5, 0.0), lines + (Arc(centre, sweep),))
        moved = transport(n, path, prec=prec)
        with mp.workprec(2 * prec + 64):
            a, p = mp.mpc(corner or 0.5), mp.mpc(centre)
            _assert_row0_within_bound(moved, prec,
                                      p + (a - p) * mp.expj(mp.mpf(sweep)))

    def test_path_through_puncture_rejected(self):
        through = PathSpec(complex(0.5, 0), (LineTo(complex(-0.5, 0)),))
        with pytest.raises(DomainError):
            analytic._plan_chain(1, through, 128, 0)
        # passes validation within its 1e-12 slack; the chain stops short of 0
        with pytest.raises(PathError):
            analytic._plan_chain(1, through, 128, 1e-13)

    def test_float64_planning_floor_is_a_path_error(self):
        # 1e-14 from 1 the doubles are too coarse to plan a step of the
        # exact ratio: a PathError, not a step that fails the exact check
        past = PathSpec(complex(0.5, 1e-14), (LineTo(complex(1.5, 1e-14)),))
        past.validate(margin=1e-14)
        with pytest.raises(PathError, match="float64"):
            analytic._disk_chain(past, 1e-14)


@pytest.mark.parametrize("continue_along", [transport, monodromy])
def test_base_off_the_real_interval_is_a_domain_error(continue_along):
    """``transport`` and ``monodromy`` share one base check: a loop based
    at 0.5 + 0.1i is refused before any chain is planned."""
    loop = PathSpec(complex(0.5, 0.1), (LineTo(complex(0.6, 0.1)),
                                        LineTo(complex(0.5, 0.1))),
                    closed=True)
    loop.validate()
    with pytest.raises(DomainError, match=r"based at real z in \(0, 1\)"):
        continue_along(1, loop)


class TestMonodromy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop1(self, n):
        assert monodromy(n, canonical_loop(1)) == expected_monodromy_loop1(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop0(self, n):
        assert monodromy(n, canonical_loop(0)) == expected_monodromy_loop0(n)

    def test_loop0_weight_two_explicit(self):
        # identity plus a unit in entry (1, 2)
        M = monodromy(2, canonical_loop(0))
        expected = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert M == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_homotopy_invariance(self, n):
        square = monodromy(n, square_loop_around_one())
        assert square == expected_monodromy_loop1(n)

    def test_inverse_loop(self):
        loop = canonical_loop(0)
        M = monodromy(2, loop)
        Minv = monodromy(2, loop.reversed())
        assert M * Minv == RationalMatrix.identity(3)

    def test_upper_triangular(self):
        for which in (0, 1):
            M = monodromy(2, canonical_loop(which))
            assert all(M.entries[i][j] == 0
                       for i in range(3) for j in range(i))

    @pytest.mark.parametrize("which", [0, 1])
    def test_double_turn_squares_the_monodromy(self, which):
        # Lambda gains 4 pi i on one arc: m = 2 in Log z_end - Log z_base
        expected = (expected_monodromy_loop0, expected_monodromy_loop1)[which]
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.25 + 0.5 * which, 0.0)),
                         Arc(complex(which, 0.0), 4 * math.pi),
                         LineTo(complex(0.5, 0.0))), closed=True)
        assert monodromy(3, loop) == expected(3) * expected(3)

    def test_turn_and_turn_back_is_identity(self):
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.25, 0.0)), Arc(0j, 2 * math.pi),
                         Arc(0j, -2 * math.pi), LineTo(complex(0.5, 0.0))),
                        closed=True)
        assert monodromy(3, loop) == RationalMatrix.identity(4)

    def test_open_path_rejected(self):
        path = PathSpec(complex(0.5, 0), (LineTo(complex(0.6, 0)),))
        with pytest.raises(DomainError):
            monodromy(1, path)

    def test_tight_denominator_bound_fails(self, first_step_off):
        # the first disk step leaves Li_1 1 too large, which every later step
        # carries unchanged, so entry (0, 1) is off by i / (2 pi), about
        # 0.16 i, beyond its proved radius, rho(-2) / 7 = 1/14 at n = 3
        with pytest.raises(ReconstructionError, match=r"entry \(0,1\)"):
            monodromy(3, canonical_loop(1))

    def test_loop_closing_within_the_closure_tolerance_certifies(self):
        # the loop around 1 ends 5e-10 past its base, which validate allows;
        # its disk chain closes on the base point itself
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.75, 0.0)), Arc(1 + 0j, 2 * math.pi),
                         LineTo(complex(0.5 + 5e-10, 0.0))), closed=True)
        assert monodromy(3, loop) == expected_monodromy_loop1(3)
        steps = analytic._disk_chain(loop, 1e-3)
        assert steps[-1][1] == loop.base_point

    def test_precision_independence(self):
        """The certified matrix is exact, so no cap at or above p* changes
        it: loop0 and loop1 at each listed cap give their generators'
        closed forms, up to n = 64, whose p* is 296 bits."""
        for n, which, caps in ((2, 1, (128, 192)), (4, 1, (64,)),
                               (8, 0, (64, 128, 4096)), (8, 1, (64, 512)),
                               (20, 0, (512,)), (20, 1, (512,)),
                               (30, 0, (128,)), (34, 1, (128,)),
                               (64, 1, (296, 299))):
            want = (expected_monodromy_loop0,
                    expected_monodromy_loop1)[which](n)
            for cap in caps:
                assert monodromy(n, canonical_loop(which), prec=cap) == \
                    want, (n, which, cap)

    @pytest.mark.parametrize("n, prec, tol", [(4, 64, 1e-10), (4, 512, 1e-14),
                                              (8, 64, 1e-10), (8, 128, 1e-14),
                                              (8, 512, 1e-14)])
    def test_guard_sizing_at_extremes(self, monkeypatch, n, prec, tol):
        # the fixed-point guard bits follow the sized precision and the term
        # count, so the certificate holds at the smallest and largest
        # precisions and weights; a certificate said to need the cap prec
        # itself makes the chain be sized for it.  tol is accepted and read
        # nowhere.
        monkeypatch.setattr(analytic, "_certified_bits", lambda *args: prec)
        assert monodromy(n, canonical_loop(0), tol=tol, prec=prec) == \
            expected_monodromy_loop0(n)
        assert monodromy(n, canonical_loop(1), tol=tol, prec=prec) == \
            expected_monodromy_loop1(n)

    def test_ambiguous_certificate_rejected_before_transport(self, monkeypatch):
        """p*'s DomainError comes before any Li series is summed and any
        disk is stepped."""
        def no_step(*args, **kwargs):
            raise AssertionError("a series or a disk step ran")

        monkeypatch.setattr(analytic, "_li_fixed", no_step)
        monkeypatch.setattr(analytic, "_step_row", no_step)
        # 128 bits prove row 0 within 4.7e-40, over 1 / (2 * 35!) = 4.8e-41
        with pytest.raises(DomainError, match="needs 132 bits"):
            monodromy(35, canonical_loop(0))
        with pytest.raises(DomainError, match="needs 296 bits"):
            monodromy(64, canonical_loop(0))
        with pytest.raises(DomainError, match="needs 296 bits"):
            monodromy(64, canonical_loop(1), prec=295)
        # rho(-3) / 7 = 1/14 would pass at n = 1, but the rounding proof
        # needs p >= -2
        with pytest.raises(DomainError, match="needs -2 bits"):
            monodromy(1, canonical_loop(1), prec=-3)


def _seeded_rectangle(around, seed):
    """A counterclockwise rectangle from the base point 1/2 around puncture
    ``around``, its corners drawn by ``random.Random(seed)``; homotopic to
    ``canonical_loop(around)``."""
    rng = random.Random(seed)
    inner, outer = rng.uniform(0.35, 0.65), rng.uniform(1.3, 1.6)
    y0, y1 = rng.uniform(-0.6, -0.3), rng.uniform(0.3, 0.6)
    if around == 1:
        corners = [(inner, y0), (outer, y0), (outer, y1), (inner, y1),
                   (inner, y0)]
    else:
        corners = [(inner, y0), (inner, y1), (1 - outer, y1), (1 - outer, y0),
                   (inner, y0)]
    return PathSpec(complex(0.5, 0.0),
                    tuple(LineTo(complex(x, y)) for x, y in corners)
                    + (LineTo(complex(0.5, 0.0)),), closed=True)


def _word_path(word):
    """The letters (which, sign, seed) joined end to end: the canonical loop
    about ``which`` for seed None, else a seeded rectangle, reversed for
    sign -1."""
    loops = []
    for which, sign, seed in word:
        loop = canonical_loop(which) if seed is None \
            else _seeded_rectangle(which, seed)
        loops.append(loop if sign == 1 else loop.reversed())
    path = loops[0]
    for loop in loops[1:]:
        path = path.then(loop)
    return path


_LETTERS = st.tuples(st.sampled_from([0, 1]), st.sampled_from([1, -1]),
                     st.one_of(st.none(), st.integers(0, 2 ** 16)))


def _certificate_radius(n, base, bits):
    """rho(bits) / 7, the radius ``monodromy`` tests row 0 against: the
    chain's radius over 7 b for a chain sized for ``bits`` from the double
    b = ``base``."""
    return analytic._chain_radius(n, base, bits) / (7 * Fraction(base))


def _spy_reconstruct(monkeypatch):
    """Record (x, denominator, radius) of every ``rational_reconstruct``
    call that ``monodromy`` makes; x is handed over as an exact dyadic
    Fraction."""
    seen = []
    reconstruct = analytic.rational_reconstruct

    def spy(x, denominator, radius):
        assert isinstance(x, Fraction)
        assert x.denominator & (x.denominator - 1) == 0
        seen.append((x, denominator, radius))
        return reconstruct(x, denominator, radius)

    monkeypatch.setattr(analytic, "rational_reconstruct", spy)
    return seen


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 6), word=st.lists(_LETTERS, min_size=1, max_size=4),
       data=st.data())
@example(n=6, word=[(0, 1, None), (1, -1, 7)], data=None)
@example(n=1, word=[(1, 1, None), (1, 1, None)], data=None)
def test_word_monodromy_is_the_generator_product(n, word, data):
    """A word in the canonical loops, seeded rectangles homotopic to them
    and their reverses, joined end to end, has the product of the
    generators' closed forms in word order as its monodromy:
    M(a.then(b)) = M(a) M(b).  Any cap in [p*, 512] sizes the chain for p*
    and leaves that matrix as it is; the cap still sets the precision of the
    chain's arc ends.  Each exact row-0 entry (0, j) lies within rho(p*) of
    the real part handed to ``rational_reconstruct``, with its lattice
    denominator j!."""
    need = analytic._certified_bits(n, 0.5)
    cap = 512 if data is None else data.draw(st.integers(need, 512))
    exact = ref_word_monodromy(n, [(w, s) for w, s, _ in word])
    with pytest.MonkeyPatch.context() as patch:
        seen = _spy_reconstruct(patch)
        assert monodromy(n, _word_path(word), prec=cap) == \
            RationalMatrix(exact)
    radius = _certificate_radius(n, 0.5, need)
    assert [(d, r) for _, d, r in seen] == \
        [(math.factorial(j), radius) for j in range(1, n + 1)]
    for (x, _, _), e in zip(seen, exact[0][1:]):
        assert abs(x - e) <= radius


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_certified_bits_is_the_least_that_certify(n):
    half = Fraction(1, 2 * math.factorial(n))
    for base in (0.5, 0.3, 0.05, 0.9, 2 ** -20):
        need = analytic._certified_bits(n, base)
        radius = _certificate_radius(n, base, need)
        assert radius < half
        assert need == -2 or half <= _certificate_radius(n, base, need - 1)
        # the radius with V = max(1, Li_1(b)) itself is no larger
        rho = 7 * radius
        with mp.workprec(ORACLE_PREC):
            b = mp.mpf(base)
            assert (n + 1) * max(1, -mp.log(1 - b)) / b \
                / mp.mpf(2) ** (need + 6) \
                <= mp.mpf(rho.numerator) / rho.denominator


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 64),
       base=st.floats(0, 1, exclude_min=True, exclude_max=True))
@example(n=4, base=0.5)
@example(n=64, base=2 ** -1074)
@example(n=1, base=1 - 2 ** -53)
def test_certified_bits_is_the_least_p_for_any_base(n, base):
    """p*, found by one integer comparison, is the least p >= -2 with
    rho(p) / 7 < 1/(2 n!) for any double b in (0, 1), and the chain's
    radius over 7 b is (n + 1) max(1, b / (1 - b)) / b 2^-(p + 6) / 7
    exactly."""
    half = Fraction(1, 2 * math.factorial(n))
    need = analytic._certified_bits(n, base)
    b = Fraction(base)
    for p in (need, need - 1):
        assert _certificate_radius(n, base, p) == \
            (n + 1) * max(1, b / (1 - b)) / b / Fraction(2) ** (p + 6) / 7
    assert need >= -2
    assert _certificate_radius(n, base, need) < half
    assert need == -2 or half <= _certificate_radius(n, base, need - 1)


def _r_times_le(r2, a, b):
    """r a <= b for r = sqrt(r2) and a >= 0, decided exactly: b >= 0 and
    r2 a^2 <= b^2."""
    return b >= 0 and r2 * a * a <= b * b


@settings(deadline=None, max_examples=60)
@given(prec=st.integers(1, 300), x=st.floats(-0.75, 0.75),
       y=st.floats(-0.75, 0.75))
@example(prec=53, x=0.5, y=0.0)  # r^K meets 2^-t (1 - r) exactly at K = t + 1
@example(prec=128, x=0.75, y=0.0)
@example(prec=64, x=0.375, y=0.25)
@example(prec=128, x=1e-300, y=0.0)
@example(prec=1, x=2.0 ** -14, y=0.0)  # past the cap on the leading zeros
@example(prec=1, x=2.0 ** -13, y=0.0)  # at the cap
# just below 1 / (2^t + 1), where K = 1
@example(prec=1, x=2.0 ** -11 * (1 - 2.0 ** -10), y=0.0)
def test_li_disk_counts_are_the_least_its_docstring_defines(prec, x, y):
    """``_li_disk_size`` finds the least K and F of its docstring for the
    dyadic bound rho >= r = |z|, as an exact oracle decides them, and they
    are sound for r itself: r^K <= 2^-t (1 - r) and
    2^f (1 - r) >= 5 (K + 1), F = t + f, t = prec + 10."""
    r2 = Fraction(x) ** 2 + Fraction(y) ** 2
    assume(0 < r2 <= Fraction(9, 16))
    X, Y, s = analytic._dyadic(complex(x, y))
    K, F = analytic._li_disk_size(X * X + Y * Y, s, prec)
    assert (K, F) == ref_li_disk_counts(prec, complex(x, y))
    T, h, f = Fraction(1, 2 ** (prec + 10)), K // 2, F - prec - 10
    if K % 2:  # r (r^(K-1) + T) <= T
        assert _r_times_le(r2, r2 ** h + T, T)
    else:  # r T <= T - r^K
        assert _r_times_le(r2, T, T - r2 ** h)
    assert _r_times_le(r2, 2 ** f, 2 ** f - 5 * (K + 1))
    if not y:  # a real z, as a float or an mpc: an imaginary row of exact 0s
        for z in (x, mp.mpc(x)):
            assert analytic._li_disk(3, z, prec)[1] == [0, 0, 0]


def test_dyadic_truncates_toward_zero_below_the_larger_part():
    """Given ``keep``, both parts are cut toward 0 at 2^(e - keep),
    2^(e - 1) <= |larger part| < 2^e; a real z, and parts of 128 bits
    within 2^32 of each other, stay as they are at keep = 160."""
    def value(v, keep=None):
        X, Y, s = analytic._dyadic(v, keep)
        return Fraction(X, 2 ** s), Fraction(Y, 2 ** s)

    dyadic = analytic._dyadic
    assert value(complex(-(2 ** -20 + 2 ** -50), 0.75), 40) == \
        value(complex(-2 ** -20, 0.75))
    assert value(complex(0.5, -(2 ** -20 + 2 ** -50)), 40) == \
        value(complex(0.5, -2 ** -20))
    assert value(complex(0.75 + 2 ** -50, 2 ** -20), 40) == \
        value(complex(0.75, 2 ** -20))
    with mp.workprec(128):
        tiny = mp.mpf("1e-300000000")
        assert value(mp.mpc(tiny, 0.5), 160) == (0, Fraction(1, 2))
        for v in (mp.mpc(tiny), mp.mpc(1, 3) / 7,
                  mp.mpc(2 ** 31, 1) / 7 / 2 ** 32):
            assert dyadic(v, 160) == dyadic(v)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_li_series_within_its_bound_when_a_part_is_cut(n):
    """z = 1/2 + 3^-95 i at 128 bits: its imaginary part, near 2^-150, loses
    its bits below 2^-160, and Li_n(z) stays within 2^-127 relative."""
    with mp.workprec(128):
        z = mp.mpc(0.5, mp.mpf(3) ** -95)
        assert analytic._dyadic(z, 160) != analytic._dyadic(z)
        got = li_series(n, z, prec=128)
    with mp.workprec(320):
        ref = mp.polylog(n, z)
        assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** -127


@settings(deadline=None, max_examples=200)
@given(ab=st.integers(2, 64).flatmap(
    lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
    t=st.integers(0, 300))
@example(ab=(1, 2), t=0)
@example(ab=(1, 2), t=300)
@example(ab=(63, 64), t=300)
def test_least_terms_is_the_least_count(ab, t):
    """``_least_terms`` against a brute-force count up from K = 1; (1, 2, t)
    meets the bound with equality at K = t + 1."""
    a, b = ab
    K, left, right = 1, a * b << t, b * (b - a)  # a^K 2^t b, b^K (b - a)
    while left > right:
        K, left, right = K + 1, left * a, right * b
    assert analytic._least_terms(a, b, t) == K
    if ab == (1, 2):
        assert K == t + 1



@pytest.mark.parametrize("offset", [3, -3])
def test_least_terms_steps_a_wrong_estimate_to_the_least(monkeypatch, offset):
    """With the float estimate off by ``offset``, the exact integer tests
    still step K to the least count: down for +3, up for -3."""
    cases = ((2, 5, 100), (3, 4, 50), (1, 1000, 7))
    want = [analytic._least_terms(*case) for case in cases]
    off = types.SimpleNamespace(**vars(math))
    off.ceil = lambda v: math.ceil(v) + offset
    monkeypatch.setattr(analytic, "math", off)
    assert [analytic._least_terms(*case) for case in cases] == want
    assert want == [77, 126, 1]

def test_series_terms_is_the_least_for_the_ratio_two_fifths():
    """K = ``_series_terms(prec)`` is the least K >= 1 with
    5 2^(K + m) <= 3 5^K, m = prec + 8, for every prec from 0 to 2000."""
    for prec in range(2001):
        K, m = analytic._series_terms(prec), prec + analytic._GUARD_BITS
        assert 5 << (K + m) <= 3 * 5 ** K
        assert 5 << (K - 1 + m) > 3 * 5 ** (K - 1)


def test_growth_bound_second_order_fits_its_slack():
    """``transport``'s growth bound: the per-disk error is
    e + r < 1.76 2^-(p + G + 8), and the terms past the first order in e
    multiply the bound by at most 1 + (n - 1) delta, where
    delta = eps (1 + eps)^(n - 1) and eps = (15/11) 2^-(p' + 8) for the
    bits p' >= bitlen(n - 1) - 4 that the chain is sized for.  So every
    entry stays within 2^-(p + 7) when 1.76 (1 + (n - 1) delta) < 2.  delta
    falls as p' grows, so the least p' is the worst case; monodromy's p*
    is never below it."""
    for n in range(1, 65):
        least = (n - 1).bit_length() - 4
        eps = Fraction(15, 11) / Fraction(2) ** (least + 8)
        delta = eps * (1 + eps) ** (n - 1)
        assert Fraction(176, 100) * (1 + (n - 1) * delta) < 2
        assert analytic._certified_bits(n, 0.5) >= least


def test_chain_is_sized_for_at_least_the_second_order_floor():
    # at n = 64 the floor is bitlen(63) - 4 = 2 bits: 1 and 2 size alike
    F = [analytic._plan_chain(64, canonical_loop(1), bits, 1e-3).F
         for bits in (1, 2, 3)]
    assert F[0] == F[1] < F[2]


@pytest.mark.parametrize("scale", [Fraction(16, 17), Fraction(16, 15)])
def test_biased_constants_fail_the_radius_checks(monkeypatch, scale):
    """1/(2 pi) off by a relative 2^-4 moves entry (0, 1) of loop 1's
    matrix by 1/16, beyond rho(1) / 7 = 0.0112 at n = 4.  log b off by a
    relative 2^-4 moves entry (0, 2) by i |log b| / (32 pi) = 0.0069 i:
    within the radius at n = 4, beyond it (rho(3) / 7 = 0.0033) at n = 5,
    where the integer test of the imaginary part catches it."""
    pi_fixed, mpf_log = analytic.pi_fixed, analytic.mpf_log
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "pi_fixed", lambda prec: pi_fixed(prec)
                      * scale.numerator // scale.denominator)
        with pytest.raises(ReconstructionError, match=r"entry \(0,1\) ="):
            monodromy(4, canonical_loop(1))
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "mpf_log", lambda x, prec: mpf_div(
            mpf_log(x, prec), from_rational(scale.numerator,
                                            scale.denominator, prec), prec))
        with pytest.raises(ReconstructionError,
                           match=r"entry \(0,2\) has imaginary part"):
            monodromy(5, canonical_loop(1))


def _rectangle_from(base, around):
    """A counterclockwise rectangle from the real base point ``base`` around
    puncture ``around``, 0.3 above and below the real line."""
    far = 1.3 if around == 1 else -0.5
    corners = [(base, -0.3), (far, -0.3), (far, 0.3), (base, 0.3)]
    if around == 0:
        corners.reverse()
    return PathSpec(complex(base, 0.0),
                    tuple(LineTo(complex(x, y)) for x, y in corners)
                    + (LineTo(complex(base, 0.0)),), closed=True)


@pytest.mark.parametrize("base", [0.9, 0.99])
@pytest.mark.parametrize("around", [0, 1])
def test_monodromy_based_above_three_quarters(base, around):
    """From a base above 3/4 the start row v is itself the series' row at
    3/4 stepped to the base, a chain nested in the loop's.  Rectangles about
    either puncture and their reverses have the generators' closed forms."""
    n = 4
    loop = _rectangle_from(base, around)
    for sign, path in ((1, loop), (-1, loop.reversed())):
        assert monodromy(n, path) == \
            RationalMatrix(ref_word_monodromy(n, [(around, sign)]))


def test_certified_bits_at_the_named_weights():
    # at b = 1/2, p* is the least p >= -2 with 7 * 2^(p + 5) > (n + 1)! * 2
    assert [analytic._certified_bits(n, 0.5) for n in (4, 20, 30, 33, 34, 64)] \
        == [1, 59, 106, 121, 127, 296]


@pytest.mark.parametrize("n", [1, 4, 20, 64])
@pytest.mark.parametrize("base", [0.5, 0.05, 0.9])
def test_certified_bits_reads_the_chain_radius(monkeypatch, n, base):
    """p* is decided from ``_chain_radius`` alone: doubling the radius
    raises it by exactly one bit, unless p* sits at its floor -2, where the
    doubled radius either still certifies at -2 or needs -1."""
    plain = analytic._certified_bits(n, base)
    doubled_radius = 2 * _certificate_radius(n, base, -2)
    radius = analytic._chain_radius
    monkeypatch.setattr(analytic, "_chain_radius",
                        lambda *args: 2 * radius(*args))
    doubled = analytic._certified_bits(n, base)
    if plain > -2:
        assert doubled == plain + 1
    else:
        half = Fraction(1, 2 * math.factorial(n))
        assert doubled == (-1 if doubled_radius >= half else -2)


def _cut(count, f, c):
    """``analytic``'s ``count``, the function f, cut by c: c fewer series
    terms a disk, the radius over 2^c, c bits less than p*, c fewer guard
    bits G, c fewer fraction bits F, or c fewer terms K or fraction bits F
    of the start row's Li series (``_li_disk_size.K`` and ``.F``)."""
    if count == "_series_terms":
        return lambda prec: f(prec) - c
    if count == "_chain_radius":
        return lambda n, b, bits: f(n, b, bits) / 2 ** c
    if count.startswith("_li_disk_size."):
        cut = (c, 0) if count.endswith("K") else (0, c)
        return lambda *args: tuple(v - d for v, d in zip(f(*args), cut))
    return lambda *args: f(*args) - c


@pytest.mark.parametrize("count, n, least0, least1", [
    ("_series_terms", 4, 16, 14), ("_series_terms", 9, 24, 21),
    ("_series_terms", 20, 28, 25),
    ("_chain_radius", 4, 19, 19), ("_chain_radius", 9, 27, 27),
    ("_chain_radius", 20, 28, 28),
    ("_certified_bits", 4, 1, 1), ("_certified_bits", 9, 1, 1),
    ("_certified_bits", 20, 1, 1), ("_certified_bits", 33, 1, 1),
    ("_product_guard", 4, 21, 18), ("_product_guard", 9, 30, 27),
    ("_product_guard", 20, 28, 28),
    ("_fraction_bits", 4, None, None), ("_fraction_bits", 9, None, None),
    ("_fraction_bits", 20, 29, 28),
    ("_li_disk_size.K", 4, 39, None), ("_li_disk_size.K", 9, 49, None),
    ("_li_disk_size.F", 4, 47, None), ("_li_disk_size.F", 9, 52, None)])
def test_cut_counts_are_rejected_never_wrong(monkeypatch, count, n, least0,
                                             least1):
    """Each count on the certificate's path, cut where ``monodromy`` reads
    it as a module global, leaves loop0 and loop1 their exact matrices at
    cap 4096 below the least cut, and from it on is rejected with a
    ReconstructionError or DomainError, never a wrong matrix.  A smaller
    radius lowers p* with it, so both the chain's sizing and the test
    radius shrink.  The least cuts, for loop0 and loop1, are the slack of
    ``_step_plan``.

    No cut of F is rejected at n = 4 or 9 (None): F, 29 and 50 bits there,
    falls to the canonical loops' nearest-approach floor of 26 bits after
    a cut of 3 or 24, and 26 bits still certify, so every cut up to 29 is
    checked to keep the exact matrix.  A cut of G to p + G + 8 < 0 leaves
    ``_series_terms`` no target, a ValueError before any step; at n = 4
    that is the cut of 23, two past loop0's least.

    ``_li_disk_size`` sizes the start row at b = 1/2 for the plan's F
    bits: K = 40 and F = 48 at n = 4, K = 61 and F = 70 at n = 9.  No cut
    of either rejects loop1 (None): an error in the start row's Li entries
    is a row with 0 in column 0, which solves the system without its
    dz/(1-z) term and so comes back unchanged around 1.  A cut of F past F
    is a negative shift, a ValueError before any sum; at n = 4 that is the
    cut of 49, two past loop0's least."""
    name = count.partition(".")[0]
    f = getattr(analytic, name)
    for which, first in ((0, least0), (1, least1)):
        exact = RationalMatrix(ref_word_monodromy(n, [(which, 1)]))
        for c in range(30 if first is None else first + 3):
            monkeypatch.setattr(analytic, name, _cut(count, f, c))
            if first is None or c < first:
                assert monodromy(n, canonical_loop(which), prec=4096) == exact
            elif count == "_product_guard" and \
                    analytic._certified_bits(n, 0.5) + f(n, 21) + 8 < c or \
                    count == "_li_disk_size.F" and \
                    f(1, 1, {4: 29, 9: 50}[n])[1] < c:
                # p + G + 8 < 0 on the canonical loops' 21 disks, or
                # F - c < 0 for the row at b = 1/2 = 1 2^-1 summed for the
                # plan's F, 29 and 50 bits
                with pytest.raises(ValueError):
                    monodromy(n, canonical_loop(which), prec=4096)
            else:
                with pytest.raises((ReconstructionError, DomainError)):
                    monodromy(n, canonical_loop(which), prec=4096)


def _stepped_plans(patch):
    """Patch ``analytic._step_plan`` to record each plan it steps; the
    list it returns fills as plans are stepped."""
    plans, step_plan = [], analytic._step_plan

    def spy(plan):
        plans.append(plan)
        return step_plan(plan)

    patch.setattr(analytic, "_step_plan", spy)
    return plans


@pytest.mark.parametrize("prec", [16, 24, 64, 128])
def test_monodromy_sizes_its_chain_for_the_certificate(monkeypatch, prec):
    plans = _stepped_plans(monkeypatch)
    assert monodromy(4, canonical_loop(0), prec=prec) == \
        expected_monodromy_loop0(4)
    # rho(1) / 7 = 5 * 2^-6 / 7 < 1 / 48 <= rho(0) / 7 at n = 4: one bit
    # certifies, and one plan, the loop's, is stepped
    [plan] = plans
    assert plan.bits == min(prec, 1)
    assert plan == analytic._plan_chain(4, canonical_loop(0), 1, 1e-3)


@pytest.mark.parametrize("n, p, terms, F", [
    (1, -2, 9, 26), (2, -2, 12, 26), (3, -2, 14, 26), (4, 1, 18, 29)])
def test_the_plan_is_read_before_any_row_step(monkeypatch, n, p, terms, F):
    """With no Li series and no disk step allowed, the plan of each
    canonical loop at p* still gives its 21 disks, its sizing and its
    winding, 1 about 0 and 0 about 1; F is the 26-bit floor of the loops'
    nearest approach at n <= 3, where p* = -2, and the sizing's at n = 4,
    where p* = 1."""
    def no_step(*args, **kwargs):
        raise AssertionError("a series or a disk step ran")

    monkeypatch.setattr(analytic, "_li_fixed", no_step)
    monkeypatch.setattr(analytic, "_step_row", no_step)
    assert analytic._certified_bits(n, 0.5) == p
    for which in (0, 1):
        plan = analytic._plan_chain(n, canonical_loop(which), p, 1e-3)
        assert (len(plan.points) - 1, plan.terms, plan.F, plan.winding) \
            == (21, terms, F, 1 - which)
        assert plan.guard == analytic._product_guard(n, 21) \
            + max(0, (n - 1).bit_length() - 4 - p)
        assert plan.terms == analytic._series_terms(p + plan.guard)
        assert plan.radius == analytic._chain_radius(n, 0.5, p)
    with pytest.raises(AssertionError, match="a series or a disk step ran"):
        analytic._step_plan(plan)


@pytest.mark.parametrize("n, word, tol", [
    (4, [(0, 1, None)], 1e-10), (4, [(1, 1, None)], 1e-10),
    (3, [(0, 1, None), (1, -1, None)], 1e-10),
    (4, [(0, 1, None)], 1e-30), (4, [(1, 1, None)], 1e-30),
    (2, [(1, 1, 5), (0, 1, 11)], 1e-30), (4, [(1, 1, None)], 1e-80)])
def test_row0_entries_lie_within_the_proved_radius(monkeypatch, n, word, tol):
    """Each real part handed to ``rational_reconstruct`` lies within
    rho(p*) of the exact entry, with the entry's lattice denominator j!.
    ``tol`` is accepted and read nowhere, so the values handed over are
    those of a call without it."""
    seen = _spy_reconstruct(monkeypatch)
    M = monodromy(n, _word_path(word), tol=tol, prec=512)
    exact = ref_word_monodromy(n, [(w, s) for w, s, _ in word])
    assert M == RationalMatrix(exact)
    radius = _certificate_radius(n, 0.5, analytic._certified_bits(n, 0.5))
    assert [(d, r) for _, d, r in seen] == \
        [(math.factorial(j), radius) for j in range(1, n + 1)]
    for (v, _, _), e in zip(seen, exact[0][1:]):
        assert abs(v - e) <= radius
    monodromy(n, _word_path(word), prec=512)
    assert seen[n:] == seen[:n]


@settings(deadline=None, max_examples=6)
@given(around=st.sampled_from([0, 1]), inner=st.floats(0.35, 0.65),
       outer=st.floats(1.3, 1.6), y0=st.floats(-0.6, -0.3),
       y1=st.floats(0.3, 0.6))
def test_rectangles_are_homotopic_to_canonical_loops(around, inner, outer,
                                                     y0, y1):
    """Counterclockwise rectangles from the base point 1/2 around one
    puncture, with one vertical edge between the punctures."""
    if around == 1:
        corners = [(inner, y0), (outer, y0), (outer, y1), (inner, y1),
                   (inner, y0)]
        expected = expected_monodromy_loop1(2)
    else:
        corners = [(inner, y0), (inner, y1), (1 - outer, y1), (1 - outer, y0),
                   (inner, y0)]
        expected = expected_monodromy_loop0(2)
    segs = tuple(LineTo(complex(x, y)) for x, y in corners)
    rect = PathSpec(complex(0.5, 0.0), segs + (LineTo(complex(0.5, 0.0)),),
                    closed=True)
    rect.validate(margin=0.3)
    assert monodromy(2, rect) == expected
    assert monodromy(2, rect.reversed()) * expected == \
        RationalMatrix.identity(3)


def _seeded_loop(shape, around, seed):
    """A closed path from the base point 1/2 about puncture 0, 1 or both
    (``around`` 2), drawn by ``random.Random(seed)``: for ``shape`` "rect"
    a counterclockwise rectangle, and for "arc" a line out to a circle
    about 0, 1 or 1/2, an arc of a whole number of turns, from -2 to 2, plus
    a part, and a line back.  Every line keeps at least 0.14, and every
    circle at least 0.15, from the punctures."""
    if shape == "rect" and around < 2:
        return _seeded_rectangle(around, seed)
    rng = random.Random(seed)
    base = complex(0.5, 0.0)
    if shape == "rect":
        x0, x1 = rng.uniform(-0.6, -0.3), rng.uniform(1.3, 1.6)
        y0, y1 = rng.uniform(-0.6, -0.3), rng.uniform(0.3, 0.6)
        corners = [(0.5, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0),
                   (0.5, y0), (0.5, 0.0)]
        return PathSpec(base, tuple(LineTo(complex(x, y)) for x, y in corners),
                        closed=True)

    def angle():
        # seen from the centre, the side on which the base point lies
        if around == 2:
            return rng.choice([1, -1]) * rng.uniform(math.pi / 4,
                                                     3 * math.pi / 4)
        return math.pi * around + rng.uniform(-math.pi / 2, math.pi / 2)

    centre = complex((0.0, 1.0, 0.5)[around], 0.0)
    radius = rng.uniform(0.7, 1.2) if around == 2 else rng.uniform(0.15, 0.4)
    start, end = angle(), angle()
    sweep = end - start + 2 * math.pi * rng.randint(-2, 2)
    return PathSpec(base, (LineTo(centre + cmath.rect(radius, start)),
                           Arc(centre, sweep), LineTo(base)), closed=True)


def test_loop_word_reads_the_generators():
    for which in (0, 1):
        for loop in (canonical_loop(which), _seeded_rectangle(which, 3)):
            assert ref_loop_word(loop) == [(which, 1)]
            assert ref_loop_word(loop.reversed()) == [(which, -1)]
    both = _seeded_loop("rect", 2, 3)
    assert ref_loop_word(both) == [(1, 1), (0, 1)]
    assert ref_loop_word(both.then(both.reversed())) == \
        [(1, 1), (0, 1), (0, -1), (1, -1)]


_PIECES = st.tuples(st.sampled_from(["rect", "arc"]), st.sampled_from([0, 1, 2]),
                    st.sampled_from([1, -1]), st.integers(0, 2 ** 16))


@settings(deadline=None, max_examples=25)
@given(n=st.integers(1, 4), pieces=st.lists(_PIECES, min_size=1, max_size=3))
@example(n=3, pieces=[("arc", 2, 1, 0), ("rect", 2, -1, 1), ("arc", 0, 1, 2)])
def test_any_loop_has_the_monodromy_of_its_crossing_word(n, pieces):
    """Seeded rectangles and arcs about 0, 1 or both, their reverses and
    their concatenations have the monodromy of the word that
    ``ref_loop_word`` reads from their crossings of (-oo, 0) and (1, oo)."""
    loops = [_seeded_loop(shape, around, seed) for shape, around, _, seed
             in pieces]
    loops = [loop if sign == 1 else loop.reversed()
             for loop, (_, _, sign, _) in zip(loops, pieces)]
    path = functools.reduce(PathSpec.then, loops)
    assert monodromy(n, path) == \
        RationalMatrix(ref_word_monodromy(n, ref_loop_word(path)))


def _chain_points(path, margin=1e-3):
    """The polygon of ``path``'s disk chain: its float64 points, and an
    open path's final arc end at 128 bits."""
    points = [path.base_point] + [z1 for _, z1 in
                                  analytic._disk_chain(path, margin)]
    if not path.closed and isinstance(path.segments[-1], Arc):
        points.append(analytic._arc_end(path, 128))
    return points


def _winding_path(seed):
    """A path from 1/2 drawn by ``random.Random(seed)``: one to three of
    ``_seeded_loop``'s rectangles and arcs about 0, 1 or both, each maybe
    reversed, end to end; for an odd seed an open tail follows, a line out
    to a circle about 0 or 1, an arc on it of up to 9 radians either way,
    and for a seed divisible by 3 a radial line off the arc's end."""
    rng = random.Random(seed)
    loops = [_seeded_loop(rng.choice(["rect", "arc"]), rng.randrange(3),
                          rng.randrange(2 ** 16))
             for _ in range(rng.randint(1, 3))]
    path = functools.reduce(PathSpec.then, [
        loop if rng.random() < 0.5 else loop.reversed() for loop in loops])
    if seed % 2:
        centre = complex(rng.randrange(2), 0.0)
        angle = math.pi * centre.real + rng.uniform(-math.pi / 2, math.pi / 2)
        sweep = rng.uniform(-9, 9)
        tail = [LineTo(centre + cmath.rect(rng.uniform(0.15, 0.4), angle)),
                Arc(centre, sweep)]
        if seed % 3 == 0:
            tail.append(LineTo(centre + cmath.rect(rng.uniform(0.15, 0.45),
                                                   angle + sweep)))
        path = PathSpec(path.base_point, path.segments + tuple(tail))
    return path


def test_winding_count_matches_the_float_reading():
    """``_plan_chain``'s exact count of the floored chain's crossings of
    (-oo, 0) equals ``ref_winding``'s float reading of the chain's polygon
    on 320 seeded paths, half of them open, with every winding from -3 to
    4 among them."""
    seen = set()
    for seed in range(320):
        path = _winding_path(seed)
        path.validate()
        m = analytic._plan_chain(1, path, 8, 1e-3).winding
        assert m == ref_winding(_chain_points(path)), seed
        seen.add(m)
    assert set(range(-3, 5)) <= seen


_SQUARE = [(-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (0.5, 0.5)]


@pytest.mark.parametrize("corners, m", [
    # a vertex exactly on (-oo, 0), entered from above: ended on, or left
    # above or below
    ([(0.5, 0.5), (-0.5, 0.5), (-0.5, 0)], 0),
    ([(0.5, 0.5), (-0.5, 0.5), (-0.5, 0), (-0.5, 0.5)], 0),
    ([(0.5, 0.5), (-0.5, 0.5), (-0.5, 0), (-0.5, -0.5)], 1),
    # the same vertex entered from below
    ([(0.5, -0.5), (-0.5, -0.5), (-0.5, 0)], -1),
    ([(0.5, -0.5), (-0.5, -0.5), (-0.5, 0), (-0.5, -0.5)], 0),
    ([(0.5, -0.5), (-0.5, -0.5), (-0.5, 0), (-0.5, 0.5)], -1),
    # horizontal steps along (-oo, 0), then off it downwards
    ([(0.5, 0.5), (-0.5, 0.5), (-0.5, 0), (-1.5, 0), (-1.5, -0.5)], 1),
    # steps across (0, 1), then along it
    ([(0.5, 0.3), (0.5, -0.3), (0.25, 0), (0.75, 0)], 0),
    # steps across (1, oo), ended on it from below
    ([(0.5, 0.5), (1.5, 0.5), (1.5, -0.5), (1.5, 0)], 0),
    # twice round the square, ended on -1/2 from above or from below
    ([(0.5, 0.5)] + 2 * _SQUARE + [(-0.5, 0.5), (-0.5, 0)], 2),
    ([(0.5, 0.5)] + 2 * _SQUARE + [(-0.5, 0.5), (-0.5, -0.5), (-0.5, 0)], 2)],
    ids=["above-end", "above-above", "above-below", "below-end",
         "below-below", "below-above", "along-the-cut", "across-0-1",
         "across-1-oo", "twice-from-above", "twice-from-below"])
def test_winding_counts_crossings_of_the_negative_axis(corners, m):
    """The count at its edge cases: a floored vertex exactly on (-oo, 0),
    an axis point counting as upper; steps along the axis; crossings of
    (0, 1) and (1, oo), which change nothing.  It agrees with
    ``ref_winding``, and a path ended on the cut gets Arg pi from
    ``transport``: entry (1, 2) is 2 pi i (Log z_D + 2 pi i m)."""
    path = PathSpec(complex(0.5, 0.0),
                    tuple(LineTo(complex(x, y)) for x, y in corners))
    path.validate()
    points = _chain_points(path)
    assert {complex(x, y) for x, y in corners} <= set(points)
    plan = analytic._plan_chain(1, path, 8, 1e-3)
    assert plan.winding == m == ref_winding(points)
    if corners[-1] == (-0.5, 0):
        assert plan.points[-1] == [-1 << plan.F - 1, 0]
        v = transport(2, path).entries[1][2]
        with mp.workprec(ORACLE_PREC):
            want = 2j * mp.pi * (-mp.log(2) + (2 * m + 1) * mp.pi * 1j)
            assert abs(v - want) <= mp.mpf(10) ** -30 * abs(want)


def _meets_cuts(a, b):
    """Whether the segment [a, b] meets (-oo, 0] or [1, oo)."""
    if a.imag == b.imag == 0:
        return not (0 < a.real < 1 and 0 < b.real < 1)
    if (a.imag > 0 and b.imag > 0) or (a.imag < 0 and b.imag < 0):
        return False
    t = a.imag / (a.imag - b.imag)
    return not 0 < a.real + t * (b.real - a.real) < 1


def _fractions(z):
    """The parts of z, a Python number or an mpc, as exact Fractions."""
    if isinstance(z, mp.mpc):
        return tuple(Fraction((-1) ** sign * man) * Fraction(2) ** exp
                     for sign, man, exp, _ in z._mpc_)
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _within_step_ratio(c, z1):
    """|z1 - c|^2 <= 0.16 min(|c|^2, |1 - c|^2), decided exactly."""
    (a, b), (x, y) = _fractions(c), _fractions(z1)
    return (x - a) ** 2 + (y - b) ** 2 <= \
        Fraction(4, 25) * min(a * a + b * b, (1 - a) ** 2 + b * b)


def _stepped_row(row, c, z1, prec):
    """Entries 1..n of (1, row) T(c -> z1) from ``_step_row``, at the term
    count and fraction bits of ``prec``, rounded to ``prec`` bits."""
    terms = analytic._series_terms(prec)
    F = analytic._fraction_bits(prec, terms)
    fixed = [analytic._to_fixed(v, F) for v in row]
    r_re, r_im = analytic._step_row(
        [a for a, _ in fixed], [b for _, b in fixed],
        analytic._to_fixed(c, F), analytic._to_fixed(z1, F), terms, F)
    with mp.workprec(prec):
        return [analytic._from_fixed(a, b, F) for a, b in zip(r_re, r_im)]


_DISK_STEP = dict(x=st.floats(-1.5, 2.5), y=st.floats(-1.5, 1.5),
                  ratio=st.floats(0, 0.4), angle=st.floats(0, 2 * math.pi))


def _disk_step(x, y, ratio, angle):
    """(c, z1) for a step of ``ratio`` times the distance to the punctures,
    or a failed assumption when c is within 0.05 of one, the step leaves
    the disk or it crosses a cut."""
    c = complex(x, y)
    d = min(abs(c), abs(1 - c))
    assume(d >= 0.05)
    z1 = c + ratio * d * complex(math.cos(angle), math.sin(angle))
    assume(_within_step_ratio(c, z1))
    assume(not _meets_cuts(c, z1))
    return c, z1


def _oracle_transition(n, c, z1):
    """L(c)^-1 L(z1) from mpmath's polylog, 64 bits above the largest
    precision under test."""
    oracle_prec = ORACLE_PREC + 64
    with mp.workprec(oracle_prec):
        return mp.inverse(ref_solution(n, c, oracle_prec)) \
            * ref_solution(n, z1, oracle_prec)


@settings(deadline=None, max_examples=12)
@given(n=st.integers(1, 5), **_DISK_STEP)
def test_transition_row0_against_oracle(n, x, y, ratio, angle):
    """Row 0 of one disk's transition matrix, the start row e_0 stepped by
    ``_step_row``, against L(c)^-1 L(z1) built from mpmath's polylog, within
    the 2^-(prec - 2) bound of ``transport``."""
    c, z1 = _disk_step(x, y, ratio, angle)
    T = _oracle_transition(n, c, z1)
    for prec in (64, 128, 256):
        top = _stepped_row([0] * n, c, z1, prec)
        with mp.workprec(ORACLE_PREC + 64):
            for j in range(1, n + 1):
                assert abs(top[j - 1] - T[0, j]) <= mp.mpf(2) ** -(prec - 2)


@settings(deadline=None, max_examples=12)
@given(n=st.integers(1, 5), **_DISK_STEP,
       row=st.lists(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=5, max_size=5))
def test_step_row_moves_any_start_row(n, x, y, ratio, angle, row):
    """A random start row R = (1, r) stepped by ``_step_row`` against R T
    from the oracle, within 2^-(prec - 2) times its weight 1 + sum |r_i|:
    the truncation error grows with R, the rounding does not."""
    c, z1 = _disk_step(x, y, ratio, angle)
    row = row[:n]
    T = _oracle_transition(n, c, z1)
    weight = 1 + sum(abs(v) for v in row)
    for prec in (64, 128, 256):
        moved = _stepped_row(row, c, z1, prec)
        with mp.workprec(ORACLE_PREC + 64):
            for j in range(1, n + 1):
                want = T[0, j] + sum(row[i - 1] * T[i, j]
                                     for i in range(1, j + 1))
                assert abs(moved[j - 1] - want) <= \
                    mp.mpf(2) ** -(prec - 2) * weight


_PLANE = st.builds(complex, st.floats(-2, 3), st.floats(-2, 2))
_SEGMENT = st.one_of(
    st.builds(LineTo, _PLANE),
    st.builds(Arc, st.one_of(st.sampled_from([0j, 1 + 0j]), _PLANE),
              st.floats(-7, 7)))


@settings(deadline=None, max_examples=40)
@given(base=_PLANE, segments=st.lists(_SEGMENT, min_size=1, max_size=4))
def test_disk_chain_steps_stay_in_their_disks(base, segments):
    """Every step of ``_disk_chain`` has |z1 - c| <= 0.4 dist(c, {0, 1})
    exactly, the steps chain from the base point, and every line ends
    exactly on its end point."""
    path = PathSpec(base, tuple(segments))
    try:
        path.validate(margin=0.05)
    except PathError:
        assume(False)
    steps = analytic._disk_chain(path, 0.05)
    points = [base] + [z1 for _, z1 in steps]
    for k, (c, z1) in enumerate(steps):
        assert c == points[k]
        assert _within_step_ratio(c, z1)
    k = 0
    for seg in segments:
        if isinstance(seg, LineTo):
            k = points.index(seg.end, k)


# 1e7 + 0.002 from 1e7 i, so the arc about 1e7 i passes 0.002 below 0
_FAR_ARC_START = 1e7j + (1e7 + 0.002) * complex(-math.sin(0.5),
                                                -math.cos(0.5))


@pytest.mark.parametrize("segment, m0, m1", [
    ((-1e7 + 0.002j, LineTo(complex(1e7, 0.002))), 0, 0),
    ((_FAR_ARC_START, Arc(1e7j, 1.0)), 1, 1)], ids=["line", "arc"])
def test_long_segment_past_the_punctures(segment, m0, m1):
    """A line and an arc 1e7 or more long that pass 0.002 from 0 and 1,
    reached from 1/2 by a line up to 1/2 + i/2 and one out to the segment's
    start, above both punctures: every step keeps the exact ratio, and
    transport at n = 2 gives 2 pi i (Log(end) + 2 pi i m0) in entry (1, 2)
    and Li_1 continued, -Log(1 - end) - 2 pi i m1, in entry (0, 1), within
    the whole-transport bound, at the path's exact end.  The arc crosses
    both cuts once."""
    start, tail = segment
    path = PathSpec(complex(0.5, 0.0),
                    (LineTo(complex(0.5, 0.5)), LineTo(start), tail))
    path.validate()
    steps = analytic._disk_chain(path, 1e-3)
    assert all(_within_step_ratio(c, z1) for c, z1 in steps)
    moved = transport(2, path)
    with mp.workprec(ORACLE_PREC):
        base = ref_solution(2, 0.5)
        end = _exact_end(path)
        lam = mp.log(end) - mp.log(0.5) + 2j * mp.pi * m0
        li1 = -mp.log(1 - end) - 2j * mp.pi * m1
        for (i, j), want in (((1, 2), 2j * mp.pi * (mp.log(end)
                                                    + 2j * mp.pi * m0)),
                             ((0, 1), li1)):
            v = moved.entries[i][j]
            weight = sum(abs(base[i, k]) for k in range(3))
            bound = mp.mpf(2) ** -128 * abs(v) \
                + mp.mpf(2) ** -134 * mp.exp(abs(lam)) * weight
            assert abs(v - want) <= bound


def _turn_loop(around, sweeps, radius=0.25):
    """A closed loop from 1/2 to ``radius`` from ``around`` (0 or 1), arcs
    of the given sweeps about it, and back to 1/2."""
    approach = complex(around + (1 - 2 * around) * radius, 0.0)
    arcs = tuple(Arc(complex(around, 0.0), s) for s in sweeps)
    return PathSpec(complex(0.5, 0.0),
                    (LineTo(approach),) + arcs + (LineTo(complex(0.5, 0.0)),),
                    closed=True)


_CLOSED_LOOPS = {
    "loop0": canonical_loop(0),
    "loop1": canonical_loop(1),
    "loop0-reversed": canonical_loop(0).reversed(),
    "loop1-reversed": canonical_loop(1).reversed(),
    "double-turn-0": _turn_loop(0, [4 * math.pi]),
    "double-turn-1": _turn_loop(1, [4 * math.pi]),
    "turn-and-back": _turn_loop(0, [2 * math.pi, -2 * math.pi]),
    "loop0-then-loop1": canonical_loop(0).then(canonical_loop(1)),
}


@pytest.mark.parametrize("name", list(_CLOSED_LOOPS))
def test_closed_chain_is_float64_and_calls_no_mpmath(monkeypatch, name):
    """A closed loop's disk chain is all Python complex points, and its
    certificate calls neither mpmath.expj nor
    mpmath.workprec: ``monodromy`` still returns the matrix of the word
    that ``ref_loop_word`` reads from the loop."""
    loop = _CLOSED_LOOPS[name]
    steps = analytic._disk_chain(loop, 1e-3)
    assert all(type(z) is complex for step in steps for z in step)
    assert steps[-1][1] == loop.base_point

    def no_mpmath(*args, **kwargs):
        raise AssertionError("a closed chain called mpmath")

    monkeypatch.setattr(mp, "expj", no_mpmath)
    monkeypatch.setattr(mp, "workprec", no_mpmath)
    n = 3
    assert monodromy(n, loop) == \
        RationalMatrix(ref_word_monodromy(n, ref_loop_word(loop)))


def _near_loop(shape, around, delta):
    """A counterclockwise loop from 1/2 about puncture ``around`` that comes
    within ``delta`` of it and no nearer: for "rect" a rectangle whose
    sides pass ``delta`` from it, for "arc" one turn of radius ``delta``
    about it."""
    if shape == "arc":
        return _turn_loop(around, [2 * math.pi], delta)
    far = -delta if around == 0 else 1 + delta
    ys = (delta, -delta) if around == 0 else (-delta, delta)
    corners = [(0.5, ys[0]), (far, ys[0]), (far, ys[1]), (0.5, ys[1]),
               (0.5, 0.0)]
    return PathSpec(complex(0.5, 0.0),
                    tuple(LineTo(complex(x, y)) for x, y in corners),
                    closed=True)


def _floored(z, F):
    """The parts of z floored to 2^-F and scaled by 2^F, in Fractions."""
    return tuple(math.floor(v * 2 ** F) for v in _fractions(z))


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 3), shape=st.sampled_from(["rect", "arc"]),
       around=st.sampled_from([0, 1]), sign=st.sampled_from([1, -1]),
       exponent=st.floats(2, math.log2(1000)))
@example(n=1, shape="arc", around=0, sign=1, exponent=2)
@example(n=1, shape="rect", around=1, sign=-1, exponent=math.log2(1000))
@example(n=3, shape="arc", around=1, sign=1, exponent=math.log2(1000))
def test_chain_floor_follows_the_nearest_approach(n, shape, around, sign,
                                                  exponent):
    """Closed loops about 0 and 1 whose nearest approach d runs from 1/4
    down to the default margin 1e-3, near the floor's worst case
    margin / 2 (``validate`` keeps a path itself at least the margin away).
    The matrix is the generator's; the stepped plan's fraction bits are
    the sizing for p* or, when larger, the least F with
    3.4 2^-F < 0.4 2^-20 d, found here in Fractions, and never above the
    margin's floor 2^-F <= 2^-25 margin; its points are the float64
    centres floored to 2^-F; and every floored step passes the exact test
    25 |w|^2 <= 4 min(|c|^2, |1 - c|^2).  The plan keeps only the floored
    points, so d, the float64 nearest approach, is read from the centres
    of ``_disk_chain``."""
    margin = 1e-3
    delta = max(margin, 2.0 ** -exponent)
    loop = _near_loop(shape, around, delta)
    if sign == -1:
        loop = loop.reversed()
    with pytest.MonkeyPatch.context() as patch:
        plans = _stepped_plans(patch)
        assert monodromy(n, loop) == \
            RationalMatrix(ref_word_monodromy(n, [(around, sign)]))
    [plan] = plans
    F, need = plan.F, analytic._certified_bits(n, 0.5)
    assert plan.bits == need
    steps = analytic._disk_chain(loop, margin)
    assert len(plan.points) - 1 == len(steps)
    d = min(min(abs(c), abs(1 - c)) for c, _ in steps)
    # two centres at distance D either side of the nearest point are at
    # most 0.4 D apart, so D <= delta / sqrt(0.96)
    assert margin / 2 <= d <= 1.03 * delta
    least = 0
    while Fraction(34, 10) / 2 ** least >= \
            Fraction(4, 10) * Fraction(d) / 2 ** 20:
        least += 1
    guard = plan.guard
    assert guard == analytic._product_guard(n, len(plan.points) - 1) \
        + max(0, (n - 1).bit_length() - 4 - need)
    assert plan.terms == analytic._series_terms(need + guard)
    assert F == max(analytic._fraction_bits(need + guard, plan.terms), least)
    by_margin = 0
    while Fraction(1, 2 ** by_margin) > Fraction(margin) / 2 ** 25:
        by_margin += 1
    assert least <= by_margin
    assert [tuple(z) for z in plan.points] == [_floored(loop.base_point, F)] \
        + [_floored(z1, F) for _, z1 in steps]
    one = 2 ** F
    for (a, b), (x, y) in zip(plan.points, plan.points[1:]):
        assert 25 * ((x - a) ** 2 + (y - b) ** 2) <= \
            4 * min(a * a + b * b, (one - a) ** 2 + b * b)


@pytest.mark.parametrize("prec", [128, 256])
def test_open_path_through_an_interior_arc(prec):
    """From 1/2 an arc about 0 by pi/3, then a line to 0.3 + 0.3i: the arc
    ends on its float64 end, the line's start, and transport's row 0 lies
    within the whole-transport bound of row 0 of L(end), the polylog
    itself, from mpmath's polylog and log at 2 prec + 64 bits."""
    n = 4
    end = complex(0.3, 0.3)
    path = PathSpec(complex(0.5, 0.0), (Arc(0j, math.pi / 3), LineTo(end)))
    steps = analytic._disk_chain(path, 1e-3)
    arc_end = path.segment_starts()[0][1]
    assert arc_end in [z1 for _, z1 in steps]
    assert all(type(z) is complex for step in steps for z in step)
    moved = transport(n, path, prec=prec)
    with mp.workprec(2 * prec + 64):
        _assert_row0_within_bound(moved, prec, mp.mpc(end))


def test_arc_too_wide_for_its_margin_is_a_path_error():
    """An arc with |p| + r >= 2^48 margin could end, in float64, more than
    a quarter of the margin from its exact end: PathError.  Below the bound
    the same arc is stepped; at margin 1/8 the bound is 2^45."""
    for r, ok in ((2.0 ** 44, True), (2.0 ** 45, False)):
        path = PathSpec(complex(r, 0.0), (Arc(0j, 0.5),
                                          LineTo(complex(r, r))))
        if ok:
            assert analytic._disk_chain(path, 2.0 ** -3)
        else:
            with pytest.raises(PathError, match="too wide"):
                analytic._disk_chain(path, 2.0 ** -3)


@settings(deadline=None, max_examples=12)
@given(n=st.integers(1, 4), side=st.sampled_from([1, -1]),
       corners=st.lists(st.tuples(st.floats(-1.2, 2.2), st.floats(0.3, 1.2)),
                        min_size=1, max_size=3),
       radius=st.floats(0.25, 0.74), angle=st.floats(0.3, math.pi - 0.3))
def test_multi_disk_transport_against_oracle(n, side, corners, radius, angle):
    """Row 0 of ``transport`` along a 2-4 segment polyline from 1/2 that
    stays at least 0.2 from the punctures inside one half-plane, against
    the polylog at its end from mpmath at 2 prec + 64 bits, within the
    whole-transport bound in ``transport``'s docstring."""
    end = complex(radius * math.cos(angle), side * radius * math.sin(angle))
    pts = [complex(x, side * y) for x, y in corners] + [end]
    path = PathSpec(complex(0.5, 0.0), tuple(LineTo(p) for p in pts))
    try:
        path.validate(margin=0.2)
    except PathError:
        assume(False)
    for prec in (64, 128, 256):
        moved = transport(n, path, prec=prec)
        with mp.workprec(2 * prec + 64):
            _assert_row0_within_bound(moved, prec, mp.mpc(end))


class TestPrincipalLambdaPrecision:
    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_row0_follows_precision(self, prec):
        for x in (0.05, 0.5, 0.75, 0.9, Fraction(1, 3)):
            lam = principal_lambda(4, x, prec=prec)
            with mp.workprec(ORACLE_PREC + 64):
                xr = mp.mpf(x.numerator) / x.denominator \
                    if isinstance(x, Fraction) else mp.mpf(x)
                for j in range(1, 5):
                    ref = ref_polylog(j, xr, ORACLE_PREC + 64)
                    assert abs(lam.entries[0][j] - ref) <= \
                        mp.mpf(2) ** -(prec - 1)

    @pytest.mark.parametrize("loop", [
        canonical_loop(0), canonical_loop(1),
        canonical_loop(0).then(canonical_loop(1))],
        ids=["loop0", "loop1", "loop0-then-loop1"])
    def test_loop0_entries_near_their_rationals(self, loop):
        # transport(L0) around a loop is M L0 for the exact monodromy M:
        # at 128 bits it must sit within 2^-100 of M times L(1/2)
        n = 4
        moved = transport(n, loop, prec=128)
        exact = monodromy(n, loop)
        with mp.workprec(ORACLE_PREC):
            start = ref_solution(n, 0.5)
            for i in range(n + 1):
                for j in range(n + 1):
                    target = sum(mp.mpf(q.numerator) / q.denominator
                                 * start[k, j]
                                 for k, q in enumerate(exact.entries[i]))
                    assert abs(moved.entries[i][j] - target) <= \
                        mp.mpf(2) ** -100


def test_invariant_validation_catches_corruption():
    lam = principal_lambda(2, 0.5)
    grid = [list(r) for r in lam.entries]
    grid[2][0] = mp.mpc(1)  # break column 0
    from polylogvar.analytic import PeriodMatrix
    bad = PeriodMatrix(2, tuple(tuple(r) for r in grid), "tampered")
    assert not period_matrix_invariants(bad)


def test_period_matrix_rejects_a_bad_grid():
    """A grid that is not (n+1) x (n+1), or that holds a non-finite entry,
    is a ValueError."""
    from polylogvar.analytic import PeriodMatrix
    one = mp.mpc(1)
    with pytest.raises(ValueError, match="grid"):
        PeriodMatrix(1, ((one, one), (one,)))
    with pytest.raises(ValueError, match="finite"):
        PeriodMatrix(1, ((one, mp.mpc(mp.inf, 0)), (one, one)))


@pytest.mark.parametrize("f", [transport, monodromy])
def test_transport_and_monodromy_need_n_at_least_one(f):
    with pytest.raises(DomainError, match="needs n >= 1"):
        f(0, canonical_loop(0))


def test_step_row_takes_exactly_two_fifths_and_no_more():
    """``_step_row``'s exact test, 25 |w|^2 <= 4 dist(c, {0, 1})^2: at
    c = 5/16 and F = 20 a step of 1/8 along either axis, a ratio of exactly
    2/5, is taken, and a step one unit of 2^-20 longer is an
    IntegrationError."""
    c, w = 5 << 16, 1 << 17

    def step(dx, dy):
        return analytic._step_row([0, 0], [0, 0], (c, 0), (c + dx, dy), 6, 20)

    for dx, dy in ((w, 0), (-w, 0), (0, w)):
        step(dx, dy)
    for dx, dy in ((w + 1, 0), (-w - 1, 0), (0, w + 1)):
        with pytest.raises(IntegrationError, match="longer than 0.4"):
            step(dx, dy)


# 1/2 -> 1/2 + i/2 -> s -> an arc about 1e6 i by 0.3 rad that ends at about
# 0.02 + 0.02i: |centre| + r is 2e6 against the end's 0.028 from 0
_WIDE_ARC = PathSpec(complex(0.5, 0.0), (
    LineTo(complex(0.5, 0.5)),
    LineTo(complex(-295520.18164420564, 44663.52407071972)),
    Arc(1e6j, 0.3)))


def _wide_final_arc(seed):
    """A path like ``_WIDE_ARC``, drawn by ``random.Random(seed)``: its arc
    about R i, R from 1e5 to 1e7, by 0.2 to 0.4 rad ends 0.01 to 0.05 above
    the real line and 0.01 to 0.05 from 0 or from 1 along it.  The whole
    path lies in the upper half-plane, on the principal branch."""
    rng = random.Random(seed)
    centre = complex(0.0, 10 ** rng.uniform(5, 7))
    x, y = rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05)
    end = complex(x if rng.random() < 0.5 else 1 - x, y)
    sweep = rng.uniform(0.2, 0.4)
    start = centre + (end - centre) * cmath.exp(-1j * sweep)
    return PathSpec(complex(0.5, 0.0), (LineTo(complex(0.5, 0.5)),
                                        LineTo(start), Arc(centre, sweep)))


def _exact_end(path):
    """The exact end of ``path`` at the working precision: a final line's
    end point, or centre + (s - centre) exp(i sweep) for a final arc from
    its float64 start s."""
    seg = path.segments[-1]
    if isinstance(seg, LineTo):
        return mp.mpc(seg.end)
    start = mp.mpc(path.segment_starts()[0][-1])
    return seg.center + (start - seg.center) * mp.expj(seg.sweep)


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
@pytest.mark.parametrize("path", [_WIDE_ARC] + [_wide_final_arc(seed)
                                                for seed in range(3)],
                         ids=["wide-arc", "seed0", "seed1", "seed2"])
def test_transport_bound_holds_at_a_wide_arcs_exact_end(path, prec):
    """Transport along a path whose final arc is wide beside its end's
    distance to the punctures lies within the whole-transport bound of
    L(e), e the arc's exact end, from mpmath at 2 prec + 64 bits.  Taken
    to only a few bits past the row's, the arc end misses e by up to
    2^-(prec + 6) (|centre| + r), which moved row 0 of ``_WIDE_ARC`` 294,
    99, 351 and 579 times its bound from L(e) at 64, 128, 256 and 512
    bits."""
    path.validate()
    moved = transport(2, path, prec=prec)
    with mp.workprec(2 * prec + 64):
        _assert_row0_within_bound(moved, prec, _exact_end(path))


def _li_line(z):
    """``_li_fixed``'s chain for real z: the line from 3/4 or -3/4, the
    sign of z, to z, with margin min(3/4, |1 - z|)."""
    return (PathSpec(complex(math.copysign(0.75, z), 0.0),
                     (LineTo(complex(z, 0.0)),)), min(0.75, abs(1 - z)))


def _flatness_line(z):
    """``flatness_residual``'s chain at the double z: the line from z / 2
    to z, with margin min(z / 2, 1 - z)."""
    return (PathSpec(complex(z / 2, 0.0), (LineTo(complex(z, 0.0)),)),
            min(z / 2, 1 - z))


# (path, margin, monodromy word or None for an open path on the principal
# branch): the chain shapes of monodromy, _li_fixed, flatness_residual and
# transport
_RADIUS_CHAINS = {
    "loop0": (canonical_loop(0), 1e-3, [(0, 1)]),
    "loop1": (canonical_loop(1), 1e-3, [(1, 1)]),
    "loop0-reversed": (canonical_loop(0).reversed(), 1e-3, [(0, -1)]),
    "loop1-reversed": (canonical_loop(1).reversed(), 1e-3, [(1, -1)]),
    "rect0-seed5": (_seeded_rectangle(0, 5), 1e-3, [(0, 1)]),
    "rect1-seed11": (_seeded_rectangle(1, 11), 1e-3, [(1, 1)]),
    "li-0.8": (*_li_line(0.8), None),
    "li-0.99": (*_li_line(0.99), None),
    "li--0.9": (*_li_line(-0.9), None),
    "li--1": (*_li_line(-1.0), None),
    "flatness-1e-6": (*_flatness_line(1e-6), None),
    "flatness-0.3": (*_flatness_line(0.3), None),
    "flatness-0.99999": (*_flatness_line(0.99999), None),
    "open-arc": (PathSpec(complex(0.5, 0.0), (Arc(0j, math.pi / 3),)),
                 1e-3, None),
    "wide-arc": (_WIDE_ARC, 1e-3, None),
}


@pytest.mark.parametrize("bits", [1, 64, 128])
@pytest.mark.parametrize("name", list(_RADIUS_CHAINS))
def test_chain_radius_bounds_every_stepped_entry(name, bits):
    """``_Plan.radius``, the one radius that ``monodromy``,
    ``_li_fixed``, ``flatness_residual`` and ``transport`` read, is an exact
    Fraction, and every entry of the row that ``_step_plan`` steps across
    the plan lies within it of row 0 of
    L(b) continued along the path to its exact end, from ``tests/oracles``
    at 2 bits + 64 bits: M L(b) for a loop of monodromy M, else the
    principal L at the end."""
    n = 4
    path, margin, word = _RADIUS_CHAINS[name]
    plan = analytic._plan_chain(n, path, bits, margin)
    assert isinstance(plan.radius, Fraction)
    assert plan.radius == analytic._chain_radius(n, path.base_point.real,
                                                 bits)
    _, row = analytic._step_plan(plan)
    with mp.workprec(2 * bits + 64):
        if word is None:
            L = ref_solution(n, _exact_end(path), mp.mp.prec)
            want = [L[0, j] for j in range(1, n + 1)]
        else:
            M = ref_word_monodromy(n, word)[0]
            L = ref_solution(n, path.base_point.real, mp.mp.prec)
            want = [sum(mp.mpf(q.numerator) / q.denominator * L[k, j]
                        for k, q in enumerate(M)) for j in range(1, n + 1)]
        radius = mp.mpmathify(plan.radius)
        for a, b, w in zip(*row, want):
            u = mp.make_mpc((from_man_exp(a, -plan.F),
                             from_man_exp(b, -plan.F)))
            assert abs(u - w) <= radius
