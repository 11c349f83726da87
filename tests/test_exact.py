import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar import exact
from polylogvar.exact import (RationalMatrix, eulerian, nilpotency_index,
                              rational_reconstruct)
from polylogvar.mpoly import MPoly

import mpmath as mp

from oracles import ref_eulerian


def _poly(coeffs):
    """The one-variable MPoly sum_d coeffs[d] x^d."""
    return MPoly(1, {(d,): c for d, c in enumerate(coeffs)})


class TestEulerian:
    def test_small_values(self):
        assert eulerian(0) == _poly([1])
        assert eulerian(1) == _poly([1])
        assert eulerian(2) == _poly([1, 1])
        assert eulerian(3) == _poly([1, 4, 1])

    def test_r4_by_hand(self):
        # one more recurrence step from 1 + 4x + x^2
        assert eulerian(4) == _poly([1, 11, 11, 1])

    @pytest.mark.parametrize("r", range(13))
    def test_value_at_one_is_factorial(self, r):
        assert eulerian(r).substitute(0, 1) == MPoly.const(1, math.factorial(r))

    @pytest.mark.parametrize("r", range(1, 13))
    def test_palindromic_positive(self, r):
        e = eulerian(r)
        coeffs = [e.terms.get((d,), 0) for d in range(e.degree_in(0) + 1)]
        assert coeffs == coeffs[::-1]
        assert all(c > 0 for c in coeffs)

    @pytest.mark.parametrize("r", range(13))
    def test_degree(self, r):
        e = eulerian(r)
        assert e.nvars == 1
        assert e.degree_in(0) == max(r - 1, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eulerian(-1)

    def test_built_once_and_shared(self, monkeypatch):
        """Every E_r comes from the process-wide list, so a second call
        returns the same object; a fresh list, filled up to r = 20 and then
        asked for lower r, gives the explicit sum's coefficients."""
        monkeypatch.setattr(exact, "_EULERIAN", [MPoly.const(1, 1)])
        for r in (20, 3, 0, 12):
            assert eulerian(r) == _poly(ref_eulerian(r))
            assert eulerian(r) is eulerian(r)
        assert len(exact._EULERIAN) == 21


class TestRationalReconstruct:
    """k / q, k = round(q x), is returned when it is the one point of
    (1/q) Z within the radius of x: radius < 1 / (2 q) and
    |x - k / q| <= radius."""

    def test_half(self):
        assert rational_reconstruct(0.5, 2, 1e-9) == Fraction(1, 2)
        assert rational_reconstruct(0.5 + 1e-10, 6, 1e-9) == Fraction(1, 2)
        # 1/2 does not lie in Z
        assert rational_reconstruct(0.5, 1, 1e-9) is None

    def test_minus_one(self):
        assert rational_reconstruct(-1.0, 10, 1e-9) == Fraction(-1)
        assert rational_reconstruct(-1, 1, 0) == Fraction(-1)

    def test_pi_is_absent(self):
        # 22/7 is the nearest point of (1/7) Z, off by about 1.3e-3
        assert rational_reconstruct(3.14159265358979, 7, 1e-9) is None
        # a radius of half the spacing or more does not single one out
        assert rational_reconstruct(0.5, 10, Fraction(1, 20)) is None
        assert rational_reconstruct(0.5, 10, Fraction(1, 21)) == \
            Fraction(1, 2)

    def test_roundtrip_small_fractions(self):
        for q in range(1, 51):
            for p in range(-50, 51):
                x = Fraction(round(Fraction(p, q) * 2 ** 128), 2 ** 128)
                got = rational_reconstruct(x, q, Fraction(1, 10 ** 12))
                assert got == Fraction(p, q)

    @settings(max_examples=200)
    @given(p=st.integers(-10 ** 6, 10 ** 6), q=st.integers(1, 10 ** 4),
           share=st.integers(0, 10 ** 6),
           noise=st.fractions(-1, 1, max_denominator=10 ** 9))
    def test_recovers_within_tolerance(self, p, q, share, noise):
        """Off by at most a radius below 1 / (2 q), x gives p / q back."""
        radius = Fraction(share, 2 * q * (10 ** 6 + 1))
        x = Fraction(p, q) + noise * radius
        assert rational_reconstruct(x, q, radius) == Fraction(p, q)
        assert rational_reconstruct(float(x), q, radius) in (
            Fraction(p, q), None)

    @settings(max_examples=200)
    @given(p=st.integers(-10 ** 6, 10 ** 6), q=st.integers(1, 10 ** 4),
           share=st.integers(1, 10 ** 6),
           noise=st.fractions(1, 2, max_denominator=10 ** 9).filter(
               lambda f: f > 1),
           sign=st.sampled_from([1, -1]))
    def test_refuses_outside_tolerance(self, p, q, share, noise, sign):
        """Off by more than a radius r <= 1 / (4 q) and at most 2 r, x is
        more than r from p / q and at least 1 / (2 q) from every other point
        of (1/q) Z."""
        radius = Fraction(share, 4 * q * 10 ** 6)
        x = Fraction(p, q) + sign * noise * radius
        assert rational_reconstruct(x, q, radius) is None

    def test_dyadic_fraction_inputs(self):
        """The values ``monodromy`` hands over: a real part rounded to
        2^-F, F = 128, and a Fraction radius."""
        x = Fraction(round(Fraction(3, 7) * 2 ** 128), 2 ** 128)
        radius = Fraction(1, 2 ** 100)
        assert rational_reconstruct(x, 7, 1e-20) == Fraction(3, 7)
        assert rational_reconstruct(x, 14, radius) == Fraction(3, 7)
        # x is within 2^-129 of 3/7, not exactly on it
        assert rational_reconstruct(x, 7, 0) is None

    def test_mpf_inputs(self):
        """An mpmath mpf is refused: callers convert it exactly first."""
        with pytest.raises(TypeError):
            rational_reconstruct(mp.mpf(3) / 7, 7, 1e-20)


class TestNilpotency:
    def test_identity(self):
        assert nilpotency_index(RationalMatrix.identity(3)) == 0

    def test_jordan_2(self):
        m = RationalMatrix([[1, -1], [0, 1]])
        assert nilpotency_index(m) == 2

    def test_not_unipotent(self):
        m = RationalMatrix([[2, 0], [0, 1]])
        assert nilpotency_index(m) is None

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for size in range(2, 6):
            jordan = RationalMatrix(
                [[1 if j == i or j == i + 1 else 0 for j in range(size)]
                 for i in range(size)])
            base = nilpotency_index(jordan)
            assert base == size
            for _ in range(3):
                # unipotent upper times unipotent lower is invertible
                up = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
                       for j in range(size)] for i in range(size)]
                lo = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0)
                       for j in range(size)] for i in range(size)]
                P = RationalMatrix(up) * RationalMatrix(lo)
                Pinv = _inverse(P)
                conj = P * jordan * Pinv
                assert nilpotency_index(conj) == base

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            nilpotency_index(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


def _inverse(m):
    n = m.rows
    aug = [[m.entries[i][j] for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return RationalMatrix([row[n:] for row in aug])
