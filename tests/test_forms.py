from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.errors import DomainError, IntegrationError
from polylogvar.forms import (form_recurrence_check, gauge_form,
                              gauge_exactness_check, integrate_cube, omega)
from polylogvar.mpoly import MPoly, rational_functions_equal
from polylogvar.analytic import li_series

from oracles import LI2_HALF, LOG2, ref_cube_integral, ref_polylog


def test_omega_k0_is_constant():
    w = omega(2, 0)
    assert w.num == MPoly.const(3, 1)
    assert w.den == MPoly.const(3, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_top_is_geometric_kernel(n):
    # omega(n, n) = z / (1 - z t1...tn), since E_0 = 1
    w = omega(n, n)
    z = MPoly.var(n + 1, 0)
    x = z * MPoly(n + 1, {(0,) + (1,) * n: Fraction(1)})
    assert w.num == z
    assert w.den == MPoly.const(n + 1, 1) - x


def test_omega_2_1_uses_e1():
    # E_1 = 1, so omega(2,1) = z / (1 - z t1 t2)^2
    w = omega(2, 1)
    z = MPoly.var(3, 0)
    x = z * MPoly(3, {(0, 1, 1): Fraction(1)})
    assert w.num == z
    assert w.den == (MPoly.const(3, 1) - x) ** 2


def test_omega_3_1_uses_e2():
    # E_2 = 1 + x, so the numerator is z (1 + z t1 t2 t3)
    w = omega(3, 1)
    z = MPoly.var(4, 0)
    x = z * MPoly(4, {(0, 1, 1, 1): Fraction(1)})
    assert w.num == z * (MPoly.const(4, 1) + x)
    assert w.den == (MPoly.const(4, 1) - x) ** 3


def test_omega_bad_indices():
    with pytest.raises(DomainError):
        omega(2, 3)
    with pytest.raises(DomainError):
        omega(2, -1)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(2, n + 1)])
def test_recurrence_exact(n, k):
    assert form_recurrence_check(n, k)


def test_recurrence_fails_with_wrong_exponent():
    n, k = 3, 2
    lhs = omega(n, k, _exponent_shift=1).d_dz()
    rhs = omega(n, k - 1)
    z = MPoly.var(n + 1, 0)
    assert not rational_functions_equal(lhs.num, lhs.den, rhs.num, z * rhs.den)


def test_gauge_exactness():
    assert gauge_exactness_check()


def test_gauge_fails_without_boundary_vanishing():
    # replace t(1-t) by t: the t = 1 boundary condition breaks
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    num = -1 * z * t
    den = (one - z) * (one - z * t)
    assert not gauge_exactness_check(num, den)


def test_gauge_fails_when_scaled():
    num, den = gauge_form()
    assert not gauge_exactness_check(2 * num, den)


def test_degree_bookkeeping():
    for n in range(1, 6):
        for k in range(n + 1):
            w = omega(n, k)
            expected = max(n - k - 1, 0) if k >= 1 else 0
            assert w.product_variable_degree() == expected


def test_derivative_reduces_denominator():
    w = omega(3, 3)
    d = w.d_dz()
    # d/dz [z/(1-x)] = 1/(1-x)^2; the quotient-rule square must cancel
    assert d.den.degree_in(0) == 2


class TestIntegrateCube:
    def test_k0_is_one(self):
        v = integrate_cube(2, 0, 0.5, 1e-10)
        assert abs(v - 1) <= 1e-10

    def test_li2_half(self):
        v = integrate_cube(2, 2, 0.5, 1e-10)
        assert abs(v - mp.mpf(LI2_HALF)) <= 1e-8

    def test_li1_minus_one(self):
        v = integrate_cube(3, 1, -1.0, 1e-10)
        assert abs(v + mp.mpf(LOG2)) <= 1e-8

    @pytest.mark.parametrize("z", [mp.mpf("0.3"), mp.mpf("-0.5"),
                                   mp.mpc("0.25", "0.25")])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_series(self, n, z):
        for k in range(n + 1):
            v = integrate_cube(n, k, z, 1e-8)
            ref = 1 if k == 0 else li_series(k, z, tol=1e-20)
            assert abs(v - ref) <= 1e-6

    def test_cut_guard(self):
        with pytest.raises(DomainError):
            integrate_cube(2, 1, 1.5, 1e-8)
        with pytest.raises(DomainError):
            integrate_cube(2, 1, mp.mpc(2, 0.04), 1e-8)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            integrate_cube(5, 1, 0.5, 1e-8)

    def test_nonconvergence_raises(self):
        # no float64 sum resolves 1e-30, so every halving runs and it raises
        with pytest.raises(IntegrationError):
            integrate_cube(2, 2, 0.5, 1e-30)

    def test_deterministic(self):
        a = integrate_cube(3, 2, mp.mpc("0.25", "0.25"), 1e-8)
        b = integrate_cube(3, 2, mp.mpc("0.25", "0.25"), 1e-8)
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), data=st.data(),
           z=st.complex_numbers(max_magnitude=0.6, allow_nan=False,
                                allow_infinity=False))
    def test_matches_polylog_and_tensor_oracle(self, n, data, z):
        k = data.draw(st.integers(0, n), label="k")
        v = complex(integrate_cube(n, k, z, 1e-10))
        ref = 1 if k == 0 else complex(ref_polylog(k, z))
        assert abs(v - ref) <= 1e-8
        if n <= 3:
            assert abs(v - ref_cube_integral(n, k, z)) <= 1e-8
