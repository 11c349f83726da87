import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polylogvar import analytic
from polylogvar.analytic import (li_series, monodromy, principal_lambda,
                                 transport)
from polylogvar.errors import DomainError, PathError, ReconstructionError
from polylogvar.exact import RationalMatrix
from polylogvar.paths import Arc, LineTo, PathSpec, canonical_loop

from oracles import (LOG2, ORACLE_PREC, PI2_OVER_12, alternating_li2_minus1,
                     period_matrix_invariants, ref_polylog, ref_minus_log1m,
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
        assert monodromy(n, canonical_loop(1), tol=TOL) == expected_monodromy_loop1(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop0(self, n):
        assert monodromy(n, canonical_loop(0), tol=TOL) == expected_monodromy_loop0(n)

    def test_loop0_weight_two_explicit(self):
        # identity plus a unit in entry (1, 2)
        M = monodromy(2, canonical_loop(0), tol=TOL)
        expected = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert M == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_homotopy_invariance(self, n):
        square = monodromy(n, square_loop_around_one(), tol=TOL)
        assert square == expected_monodromy_loop1(n)

    def test_inverse_loop(self):
        loop = canonical_loop(0)
        M = monodromy(2, loop, tol=TOL)
        Minv = monodromy(2, loop.reversed(), tol=TOL)
        assert M * Minv == RationalMatrix.identity(3)

    def test_upper_triangular(self):
        for which in (0, 1):
            M = monodromy(2, canonical_loop(which), tol=TOL)
            assert all(M[i, j] == 0 for i in range(3) for j in range(i))

    @pytest.mark.parametrize("which", [0, 1])
    def test_double_turn_squares_the_monodromy(self, which):
        # Lambda gains 4 pi i on one arc: m = 2 in Log z_end - Log z_base
        expected = (expected_monodromy_loop0, expected_monodromy_loop1)[which]
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.25 + 0.5 * which, 0.0)),
                         Arc(complex(which, 0.0), 4 * math.pi),
                         LineTo(complex(0.5, 0.0))), closed=True)
        assert monodromy(3, loop, tol=TOL) == expected(3) * expected(3)

    def test_turn_and_turn_back_is_identity(self):
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.25, 0.0)), Arc(0j, 2 * math.pi),
                         Arc(0j, -2 * math.pi), LineTo(complex(0.5, 0.0))),
                        closed=True)
        assert monodromy(3, loop, tol=TOL) == RationalMatrix.identity(4)

    def test_open_path_rejected(self):
        path = PathSpec(complex(0.5, 0), (LineTo(complex(0.6, 0)),))
        with pytest.raises(DomainError):
            monodromy(1, path)

    def test_tight_denominator_bound_fails(self, first_step_off):
        # the first disk step leaves Li_1 1e-9 off, which every later step
        # carries unchanged, so entry (0, 1) is off by 1.6e-10 i, more than
        # rtol = 1e-10 allows
        with pytest.raises(ReconstructionError, match=r"entry \(0,1\)"):
            monodromy(3, canonical_loop(1), tol=1e-12)

    def test_loop_closing_within_the_closure_tolerance_certifies(self):
        # the loop around 1 ends 5e-10 past its base, which validate allows;
        # its disk chain closes on the base point itself
        loop = PathSpec(complex(0.5, 0.0),
                        (LineTo(complex(0.75, 0.0)), Arc(1 + 0j, 2 * math.pi),
                         LineTo(complex(0.5 + 5e-10, 0.0))), closed=True)
        assert monodromy(3, loop, tol=1e-12) == expected_monodromy_loop1(3)
        steps = analytic._disk_chain(loop, 1e-3, 128)
        assert steps[-1][1] == loop.base_point

    def test_precision_independence(self):
        # the reconstructed matrix is exact, so precision cannot change it
        a = monodromy(2, canonical_loop(1), tol=1e-10, prec=128)
        b = monodromy(2, canonical_loop(1), tol=1e-14, prec=192)
        assert a == b

    @pytest.mark.parametrize("n, prec, tol", [(4, 64, 1e-10), (4, 512, 1e-14),
                                              (8, 128, 1e-14)])
    def test_guard_sizing_at_extremes(self, monkeypatch, n, prec, tol):
        # the fixed-point guard bits follow the sized precision and the term
        # count, so the certificate holds at the smallest and largest
        # precisions and weights; a certificate said to need more bits than
        # any cap makes the chain be sized for the cap prec itself
        monkeypatch.setattr(analytic, "_certified_bits", lambda *args: 10 ** 6)
        assert monodromy(n, canonical_loop(0), tol=tol, prec=prec) == \
            expected_monodromy_loop0(n)
        assert monodromy(n, canonical_loop(1), tol=tol, prec=prec) == \
            expected_monodromy_loop1(n)

    def test_ambiguous_certificate_rejected_before_transport(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a disk step ran")

        monkeypatch.setattr(analytic, "_step_row", no_step)
        # 2 * (100 * 1e-8) * 5040^2 is about 51: no unique rational
        with pytest.raises(DomainError):
            monodromy(7, canonical_loop(0), tol=1e-8)
        # 2 * (100 * 1e-8) * 720^2 is about 1.04, just over the bound
        with pytest.raises(DomainError):
            monodromy(6, canonical_loop(0), tol=1e-8)
        # 64 bits prove row 0 within 3.6e-20, wider than 1 / (20!)^2; the
        # certificate at tol 1e-50 needs 159
        with pytest.raises(DomainError, match="needs 159 bits"):
            monodromy(20, canonical_loop(0), tol=1e-50, prec=64)


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


def _rtol(tol, prec=analytic.DEFAULT_PREC):
    """rtol = 100 tol as ``monodromy`` forms it, as an exact Fraction."""
    with mp.workprec(prec):
        return analytic.mpf_to_fraction(mp.mpf(tol) * 100)


_LETTERS = st.tuples(st.sampled_from([0, 1]), st.sampled_from([1, -1]),
                     st.one_of(st.none(), st.integers(0, 2 ** 16)))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 6), word=st.lists(_LETTERS, min_size=1, max_size=4),
       data=st.data())
@example(n=6, word=[(0, 1, None), (1, -1, 7)], data=None)
def test_word_monodromy_is_the_generator_product(n, word, data):
    """A word in the canonical loops, seeded rectangles homotopic to them
    and their reverses, joined end to end, has the product of the
    generators' closed forms in word order as its monodromy:
    M(a.then(b)) = M(a) M(b).  Any cap in [p*, 512] sizes the chain for p*
    and leaves that matrix as it is; the cap still sets the precision of the
    chain's arc ends."""
    need = analytic._certified_bits(n, 0.5, _rtol(TOL))
    cap = 512 if data is None else data.draw(st.integers(need, 512))
    assert monodromy(n, _word_path(word), tol=TOL, prec=cap) == \
        RationalMatrix(ref_word_monodromy(n, [(w, s) for w, s, _ in word]))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_certified_bits_is_the_least_that_certify(n):
    for base in (0.5, 0.3, 0.05, 0.9, 2 ** -20):
        for tol in (1e-10, 1e-14, 1e-30, 1e-60):
            rtol = _rtol(tol)
            need = analytic._certified_bits(n, base, rtol)
            radius = analytic._row0_radius(n, base, need)
            assert radius <= rtol < analytic._row0_radius(n, base, need - 1)
            # the radius with V = max(1, Li_1(b)) itself is no larger
            with mp.workprec(ORACLE_PREC):
                b = mp.mpf(base)
                assert (n + 1) * max(1, -mp.log(1 - b)) / b \
                    / mp.mpf(2) ** (need + 6) \
                    <= mp.mpf(radius.numerator) / radius.denominator


@pytest.mark.parametrize("prec", [16, 24, 64, 128])
def test_monodromy_sizes_its_chain_for_the_certificate(monkeypatch, prec):
    calls = []
    step_chain = analytic._step_chain

    def spy(*args, **kwargs):
        calls.append(kwargs["li_bits"])
        return step_chain(*args, **kwargs)

    monkeypatch.setattr(analytic, "_step_chain", spy)
    assert monodromy(4, canonical_loop(0), tol=1e-10, prec=prec) == \
        expected_monodromy_loop0(4)
    assert calls == [min(prec, 24)]


@pytest.mark.parametrize("n, word, tol", [
    (4, [(0, 1, None)], 1e-10), (4, [(1, 1, None)], 1e-10),
    (3, [(0, 1, None), (1, -1, None)], 1e-10),
    (4, [(0, 1, None)], 1e-30), (4, [(1, 1, None)], 1e-30),
    (2, [(1, 1, 5), (0, 1, 11)], 1e-30), (4, [(1, 1, None)], 1e-80)])
def test_row0_entries_lie_within_the_proved_radius(monkeypatch, n, word, tol):
    """Each real part handed to ``rational_reconstruct`` lies within
    rho(p*) of the exact entry."""
    seen = []
    reconstruct = analytic.rational_reconstruct

    def spy(x, max_den, rtol):
        seen.append(analytic.mpf_to_fraction(x))
        return reconstruct(x, max_den, rtol)

    monkeypatch.setattr(analytic, "rational_reconstruct", spy)
    M = monodromy(n, _word_path(word), tol=tol, prec=512)
    exact = ref_word_monodromy(n, [(w, s) for w, s, _ in word])
    assert M == RationalMatrix(exact)
    radius = analytic._row0_radius(
        n, 0.5, analytic._certified_bits(n, 0.5, _rtol(tol, 512)))
    assert len(seen) == n
    for v, e in zip(seen, exact[0][1:]):
        assert abs(v - e) <= radius


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
    assert monodromy(2, rect, tol=TOL) == expected
    assert monodromy(2, rect.reversed(), tol=TOL) * expected == \
        RationalMatrix.identity(3)


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
