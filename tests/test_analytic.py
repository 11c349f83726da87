import cmath
import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, mpf_div
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polylogvar import analytic
from polylogvar.analytic import (li_series, monodromy, principal_lambda,
                                 transport)
from polylogvar.errors import DomainError, PathError, ReconstructionError
from polylogvar.exact import RationalMatrix
from polylogvar.paths import Arc, LineTo, PathSpec, canonical_loop

from oracles import (LOG2, ORACLE_PREC, PI2_OVER_12, alternating_li2_minus1,
                     period_matrix_invariants, ref_li_disk_counts,
                     ref_loop_word, ref_polylog, ref_minus_log1m,
                     ref_solution, ref_word_monodromy)

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


class TestTransport:
    def test_contractible_loop_is_identity(self):
        n = 2
        start = principal_lambda(n, 0.5)
        moved = transport(n, contractible_square(), start)
        for i in range(n + 1):
            for j in range(n + 1):
                assert abs(moved.entries[i][j] - start.entries[i][j]) <= 10 * TOL

    def test_loop1_weight_one_endpoint(self):
        # by-hand continuation of -log(1-z): the value drops by 2 pi i
        start = principal_lambda(1, 0.5)
        moved = transport(1, canonical_loop(1), start)
        with mp.workprec(128):
            expected01 = start.entries[0][1] - 2j * mp.pi
            assert abs(moved.entries[0][1] - expected01) <= 10 * TOL
            assert abs(moved.entries[1][1] - start.entries[1][1]) <= 10 * TOL
        assert moved.entries[0][0] == 1

    def test_loop0_weight_one_endpoint(self):
        # -log(1-z) is single valued around 0
        start = principal_lambda(1, 0.5)
        moved = transport(1, canonical_loop(0), start)
        assert abs(moved.entries[0][1] - start.entries[0][1]) <= 10 * TOL

    def test_composition(self):
        n = 2
        start = principal_lambda(n, 0.5)
        p1 = canonical_loop(0)
        p2 = canonical_loop(1)
        oneshot = transport(n, p1.then(p2), start)
        twostep = transport(n, p2, transport(n, p1, start))
        for i in range(n + 1):
            for j in range(n + 1):
                assert abs(oneshot.entries[i][j] - twostep.entries[i][j]) <= 10 * TOL

    def test_margin_enforced(self):
        bad = PathSpec(complex(0.5, 0), (LineTo(complex(1.0 - 1e-6, 0)),
                                         LineTo(complex(0.5, 0))), closed=True)
        start = principal_lambda(1, 0.5)
        with pytest.raises(PathError):
            transport(1, bad, start)

    def test_triangular_structure_is_exact(self):
        n = 3
        start = principal_lambda(n, 0.5)
        moved = transport(n, canonical_loop(0), start)
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
        start = principal_lambda(n, 0.5, prec=prec)
        moved = transport(n, path, start, prec=prec)
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
        at its float64 neighbour: row 0 matches mpmath's polylog there
        within the whole-transport bound.  From 0.5 + 0.5j about
        0.1 + 0.1j, a - p is not exact in float64."""
        n = 4
        sweep = math.pi / 3
        lines = (LineTo(corner),) if corner else ()
        path = PathSpec(complex(0.5, 0.0), lines + (Arc(centre, sweep),))
        start = principal_lambda(n, 0.5, prec=prec)
        moved = transport(n, path, start, prec=prec)
        oracle_prec = ORACLE_PREC + 64
        with mp.workprec(oracle_prec):
            a, p = mp.mpc(corner or 0.5), mp.mpc(centre)
            end = p + (a - p) * mp.expj(mp.mpf(sweep))
            growth = mp.exp(abs(mp.log(end) - mp.log(0.5)))
            weight = sum(abs(v) for v in start.entries[0])
            for j in range(1, n + 1):
                v = moved.entries[0][j]
                bound = mp.mpf(2) ** -prec * abs(v) \
                    + mp.mpf(2) ** -(prec + 6) * growth * weight
                assert abs(v - ref_polylog(j, end, oracle_prec)) <= bound

    def test_path_through_puncture_rejected(self):
        through = PathSpec(complex(0.5, 0), (LineTo(complex(-0.5, 0)),))
        start = principal_lambda(1, 0.5)
        with pytest.raises(DomainError):
            transport(1, through, start, margin=0)
        # passes validation within its 1e-12 slack; transport stops short of 0
        with pytest.raises(PathError):
            transport(1, through, start, margin=1e-13)

    def test_float64_planning_floor_is_a_path_error(self):
        # 1e-14 from 1 the doubles are too coarse to plan a step of the
        # exact ratio: a PathError, not a step that fails the exact check
        past = PathSpec(complex(0.5, 1e-14), (LineTo(complex(1.5, 1e-14)),))
        start = principal_lambda(1, 0.5)
        with pytest.raises(PathError, match="float64"):
            transport(1, past, start, margin=1e-14)


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
            assert all(M[i, j] == 0 for i in range(3) for j in range(i))

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
        # 0.16 i, beyond its proved radius, 1/16 at n = 3
        with pytest.raises(ReconstructionError, match=r"entry \(0,1\)"):
            monodromy(3, canonical_loop(1))

    def test_loop_closing_within_the_closure_tolerance_certifies(self):
        # the loop around 1 ends 5e-10 past its base, which validate allows;
        # its disk chain closes on the base point itself
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.75, 0.0)), Arc(1 + 0j, 2 * math.pi),
                         LineTo(complex(0.5 + 5e-10, 0.0))), closed=True)
        assert monodromy(3, loop) == expected_monodromy_loop1(3)
        steps = analytic._disk_chain(loop, 1e-3, 128)
        assert steps[-1][1] == loop.base_point

    def test_precision_independence(self):
        # the certified matrix is exact, so precision cannot change it
        a = monodromy(2, canonical_loop(1), prec=128)
        b = monodromy(2, canonical_loop(1), prec=192)
        assert a == b

    @pytest.mark.parametrize("n, prec, tol", [(4, 64, 1e-10), (4, 512, 1e-14),
                                              (8, 128, 1e-14)])
    def test_guard_sizing_at_extremes(self, monkeypatch, n, prec, tol):
        # the fixed-point guard bits follow the sized precision and the term
        # count, so the certificate holds at the smallest and largest
        # precisions and weights; a certificate said to need more bits than
        # any cap makes the chain be sized for the cap prec itself.  tol is
        # accepted and read nowhere.
        monkeypatch.setattr(analytic, "_certified_bits", lambda *args: 10 ** 6)
        assert monodromy(n, canonical_loop(0), tol=tol, prec=prec) == \
            expected_monodromy_loop0(n)
        assert monodromy(n, canonical_loop(1), tol=tol, prec=prec) == \
            expected_monodromy_loop1(n)

    def test_ambiguous_certificate_rejected_before_transport(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a disk step ran")

        monkeypatch.setattr(analytic, "_step_row", no_step)
        # 128 bits prove row 0 within 3.2e-39, just over 1 / (2 * 34!)
        with pytest.raises(DomainError, match="needs 129 bits"):
            monodromy(34, canonical_loop(0))
        with pytest.raises(DomainError, match="needs 299 bits"):
            monodromy(64, canonical_loop(0))
        with pytest.raises(DomainError, match="needs 299 bits"):
            monodromy(64, canonical_loop(1), prec=298)


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
    radius = analytic._row0_radius(n, 0.5, need)
    assert [(d, r) for _, d, r in seen] == \
        [(math.factorial(j), radius) for j in range(1, n + 1)]
    for (x, _, _), e in zip(seen, exact[0][1:]):
        assert abs(x - e) <= radius


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_certified_bits_is_the_least_that_certify(n):
    half = Fraction(1, 2 * math.factorial(n))
    for base in (0.5, 0.3, 0.05, 0.9, 2 ** -20):
        need = analytic._certified_bits(n, base)
        radius = analytic._row0_radius(n, base, need)
        assert radius < half <= analytic._row0_radius(n, base, need - 1)
        # the radius with V = max(1, Li_1(b)) itself is no larger
        with mp.workprec(ORACLE_PREC):
            b = mp.mpf(base)
            assert (n + 1) * max(1, -mp.log(1 - b)) / b \
                / mp.mpf(2) ** (need + 6) \
                <= mp.mpf(radius.numerator) / radius.denominator


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 64),
       base=st.floats(0, 1, exclude_min=True, exclude_max=True))
@example(n=4, base=0.5)
@example(n=64, base=2 ** -1074)
@example(n=1, base=1 - 2 ** -53)
def test_certified_bits_is_the_least_p_for_any_base(n, base):
    """p*, found by one integer comparison, is the least p with
    rho(p) < 1/(2 n!) for any double b in (0, 1), and ``_row0_radius`` is
    (n + 1) max(1, b / (1 - b)) / b 2^-(p + 6) exactly."""
    half = Fraction(1, 2 * math.factorial(n))
    need = analytic._certified_bits(n, base)
    b = Fraction(base)
    for p in (need, need - 1):
        assert analytic._row0_radius(n, base, p) == \
            (n + 1) * max(1, b / (1 - b)) / b / Fraction(2) ** (p + 6)
    assert analytic._row0_radius(n, base, need) < half \
        <= analytic._row0_radius(n, base, need - 1)


@settings(deadline=None, max_examples=60)
@given(prec=st.integers(1, 300), x=st.floats(-0.75, 0.75),
       y=st.floats(-0.75, 0.75))
@example(prec=53, x=0.5, y=0.0)  # r^K meets 2^-t (1 - r) exactly at K = t + 1
@example(prec=128, x=0.75, y=0.0)
@example(prec=64, x=0.375, y=0.25)
@example(prec=128, x=1e-300, y=0.0)
def test_li_disk_counts_are_the_least_its_docstring_defines(prec, x, y):
    """``_li_disk_size`` finds the least K and F of ``_li_disk``'s
    docstring, as an exact oracle decides them."""
    assume(0 < Fraction(x) ** 2 + Fraction(y) ** 2 <= Fraction(9, 16))
    X, Y, s = analytic._dyadic(complex(x, y))
    assert analytic._li_disk_size(X * X + Y * Y, s, prec) == \
        ref_li_disk_counts(prec, complex(x, y))


class _TruthyZero(int):
    """An imaginary part 0 that tests true, so ``_li_disk`` runs its
    complex loop on a real z."""

    def __bool__(self):
        return True


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 8), prec=st.integers(1, 300),
       x=st.floats(-0.75, 0.75).filter(bool), as_mpc=st.booleans())
@example(n=4, prec=35, x=0.3, as_mpc=False)
@example(n=2, prec=128, x=-0.75, as_mpc=True)
def test_li_disk_real_branch_matches_the_complex_loop(n, prec, x, as_mpc):
    """On real z ``_li_disk`` skips the imaginary half of its loop; the
    integers are those of the complex loop, where that half stays 0."""
    z = mp.mpc(x) if as_mpc else x
    got = analytic._li_disk(n, z, prec)
    dyadic = analytic._dyadic

    def truthy_zero_im(v):
        X, Y, s = dyadic(v)
        assert Y == 0
        return [X, _TruthyZero(0), s]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_dyadic", truthy_zero_im)
        want = analytic._li_disk(n, z, prec)
    assert got == want and got[1] == [0] * n


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
    F = [analytic._step_chain(64, canonical_loop(1), prec, 1e-3)[4]
         for prec in (1, 2, 3)]
    assert F[0] == F[1] < F[2]


@pytest.mark.parametrize("scale", [Fraction(16, 17), Fraction(16, 15)])
def test_biased_constants_fail_the_radius_checks(monkeypatch, scale):
    """1/(2 pi) off by a relative 2^-4 moves entry (0, 1) of loop 1's
    matrix by 1/16, beyond rho(3) = 0.0195 at n = 4.  log b off by a
    relative 2^-4 moves entry (0, 2) by i |log b| / (32 pi) = 0.0069 i:
    within rho at n = 4, beyond it (0.0029) at n = 5, where the integer
    test of the imaginary part catches it."""
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
    # at b = 1/2, p* is the least p with 2^(p + 5) > (n + 1)! * 2
    assert [analytic._certified_bits(n, 0.5) for n in (4, 20, 30, 33, 34, 64)] \
        == [3, 62, 109, 124, 129, 299]


@pytest.mark.parametrize("prec", [16, 24, 64, 128])
def test_monodromy_sizes_its_chain_for_the_certificate(monkeypatch, prec):
    calls = []
    step_chain = analytic._step_chain

    def spy(*args, **kwargs):
        calls.append(kwargs["li_bits"])
        return step_chain(*args, **kwargs)

    monkeypatch.setattr(analytic, "_step_chain", spy)
    assert monodromy(4, canonical_loop(0), prec=prec) == \
        expected_monodromy_loop0(4)
    # rho(3) = 5 * 2^-8 < 1 / 48 <= rho(2) at n = 4: three bits certify
    assert calls == [min(prec, 3)]


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
    radius = analytic._row0_radius(n, 0.5, analytic._certified_bits(n, 0.5))
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
    steps = analytic._disk_chain(path, 0.05, 128)
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


@pytest.mark.parametrize("path, m0, m1", [
    (PathSpec(complex(-1e7, 0.002), (LineTo(complex(1e7, 0.002)),)), 0, 0),
    (PathSpec(_FAR_ARC_START, (Arc(1e7j, 1.0),)), 1, 1)],
    ids=["line", "arc"])
def test_long_segment_past_the_punctures(path, m0, m1):
    """A line and an arc 1e7 or more long that pass 0.002 from 0 and 1: every
    step keeps the exact ratio, and transport of the identity at n = 2 gives
    Lambda = Log(end / base) + 2 pi i m0 in entry (1, 2) and
    Log(1 - base) - Log(1 - end) - 2 pi i m1 in entry (0, 1), within the
    whole-transport bound.  The arc crosses both cuts once."""
    path.validate()
    steps = analytic._disk_chain(path, 1e-3, 128)
    assert all(_within_step_ratio(c, z1) for c, z1 in steps)
    one, zero = mp.mpc(1), mp.mpc(0)
    start = analytic.PeriodMatrix(2, tuple(
        tuple(one if i == j else zero for j in range(3)) for i in range(3)))
    moved = transport(2, path, start)
    with mp.workprec(ORACLE_PREC):
        base, end = mp.mpc(path.base_point), mp.mpc(steps[-1][1])
        lam = mp.log(end) - mp.log(base) + 2j * mp.pi * m0
        li1 = mp.log(1 - base) - mp.log(1 - end) - 2j * mp.pi * m1
        for v, want in ((moved.entries[1][2], lam),
                        (moved.entries[0][1], li1)):
            bound = mp.mpf(2) ** -128 * abs(v) \
                + mp.mpf(2) ** -134 * mp.exp(abs(lam))
            assert abs(v - want) <= bound


@settings(deadline=None, max_examples=12)
@given(n=st.integers(1, 4), side=st.sampled_from([1, -1]),
       corners=st.lists(st.tuples(st.floats(-1.2, 2.2), st.floats(0.3, 1.2)),
                        min_size=1, max_size=3),
       radius=st.floats(0.25, 0.74), angle=st.floats(0.3, math.pi - 0.3))
def test_multi_disk_transport_against_oracle(n, side, corners, radius, angle):
    """Row 0 of ``transport`` along a 2-4 segment polyline from 1/2 that
    stays at least 0.2 from the punctures inside one half-plane, against the
    continuation of the given start matrix built from mpmath's polylog,
    within the whole-transport bound in ``transport``'s docstring."""
    end = complex(radius * math.cos(angle), side * radius * math.sin(angle))
    pts = [complex(x, side * y) for x, y in corners] + [end]
    path = PathSpec(complex(0.5, 0.0), tuple(LineTo(p) for p in pts))
    try:
        path.validate(margin=0.2)
    except PathError:
        assume(False)
    oracle_prec = ORACLE_PREC + 64
    with mp.workprec(oracle_prec):
        P = mp.inverse(ref_solution(n, 0.5, oracle_prec)) \
            * ref_solution(n, end, oracle_prec)
        growth = mp.exp(abs(mp.log(end) - mp.log(0.5)))
    for prec in (64, 128, 256):
        start = principal_lambda(n, 0.5, prec=prec)
        moved = transport(n, path, start, prec=prec)
        with mp.workprec(oracle_prec):
            row = mp.matrix([list(start.entries[0])]) * P
            weight = sum(abs(v) for v in start.entries[0])
            for j in range(1, n + 1):
                v = moved.entries[0][j]
                bound = mp.mpf(2) ** -prec * abs(v) \
                    + mp.mpf(2) ** -(prec + 6) * growth * weight
                assert abs(v - row[0, j]) <= bound


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

    def test_loop0_entries_near_their_rationals(self):
        # transport(L0) around loop0 is M_0 L0: at 128 bits it must sit
        # within 2^-100 of the exact M_0 times L0
        n = 4
        start = principal_lambda(n, 0.5, prec=128)
        moved = transport(n, canonical_loop(0), start, prec=128)
        exact = expected_monodromy_loop0(n)
        with mp.workprec(128):
            for i in range(n + 1):
                for j in range(n + 1):
                    target = sum(mp.mpf(q.numerator) / q.denominator
                                 * start.entries[k][j]
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
