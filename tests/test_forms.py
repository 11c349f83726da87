from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.errors import DomainError, IntegrationError
from polylogvar.forms import (RationalForm, form_recurrence_check, gauge_form,
                              gauge_exactness_check, integrate_cube, omega)
from polylogvar.mpoly import MPoly, rational_functions_equal
from polylogvar.analytic import li_series

from oracles import (LI2_HALF, LOG2, ref_cube_integral, ref_cube_text,
                     ref_omega, ref_on_cube, ref_polylog)


def _on_cube(form):
    """(num, den) of ``form`` in the cube coordinates, by the oracle."""
    return ref_on_cube(form.num, form.n), ref_on_cube(form.den, form.n)


def test_omega_k0_is_constant():
    w = omega(2, 0)
    assert w.num == w.den == MPoly.const(2, 1)
    assert _on_cube(w) == (MPoly.const(3, 1), MPoly.const(3, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_top_is_geometric_kernel(n):
    # omega(n, n) = z / (1 - z t1...tn), since E_0 = 1
    num, den = _on_cube(omega(n, n))
    z = MPoly.var(n + 1, 0)
    x = z * MPoly(n + 1, {(0,) + (1,) * n: Fraction(1)})
    assert num == z
    assert den == MPoly.const(n + 1, 1) - x


def test_omega_2_1_uses_e1():
    # E_1 = 1, so omega(2,1) = z / (1 - z t1 t2)^2
    num, den = _on_cube(omega(2, 1))
    z = MPoly.var(3, 0)
    x = z * MPoly(3, {(0, 1, 1): Fraction(1)})
    assert num == z
    assert den == (MPoly.const(3, 1) - x) ** 2


def test_omega_3_1_uses_e2():
    # E_2 = 1 + x, so the numerator is z (1 + z t1 t2 t3)
    num, den = _on_cube(omega(3, 1))
    z = MPoly.var(4, 0)
    x = z * MPoly(4, {(0, 1, 1, 1): Fraction(1)})
    assert num == z * (MPoly.const(4, 1) + x)
    assert den == (MPoly.const(4, 1) - x) ** 3


@pytest.mark.parametrize("n", range(11))
def test_omega_matches_product_construction(n):
    """The closed-form monomials in (z, tau), carried to the cube by the
    oracle's substitution, equal the MPoly product construction term for
    term, for every k and a broken exponent too: the denominator times
    1 - z tau is the oracle's with its exponent raised by one."""
    one_less_x = MPoly.const(2, 1) - MPoly.var(2, 0) * MPoly.var(2, 1)
    for k in range(n + 1):
        w = omega(n, k)
        broken = w if k == 0 else RationalForm(n, w.num, w.den * one_less_x)
        for got, shift in ((w, 0), (broken, 1)):
            assert got.num.nvars == got.den.nvars == 2
            assert _on_cube(got) == ref_omega(n, k, shift)
            assert all(type(c) is int for c in got.num.terms.values())
            assert all(type(c) is int for c in got.den.terms.values())


@pytest.mark.parametrize("n", list(range(9)) + [64])
def test_repr_is_the_printed_cube_form(n):
    """repr expands tau^d to t1^d...tn^d exactly as the oracle prints the
    cube-coordinate pair; at n = 0 the only form is the constant 1."""
    for k in range(n + 1):
        assert repr(omega(n, k)) == ref_cube_text(n, *ref_omega(n, k))


def test_rational_form_needs_z_tau():
    """The coefficients are polynomials in (z, tau) for every n; a pair in
    the n + 1 cube coordinates is refused."""
    one = MPoly.const(4, 1)
    with pytest.raises(ValueError):
        RationalForm(3, one, one)
    with pytest.raises(ValueError):
        RationalForm(-1, MPoly.const(2, 1), MPoly.const(2, 1))
    with pytest.raises(ValueError):
        RationalForm(3, MPoly.const(2, 1), MPoly(2, {}))


_ZT_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5), max_size=5).map(lambda terms: MPoly(2, terms))


@settings(max_examples=60, deadline=None)
@given(p=_ZT_POLYS, q=_ZT_POLYS, n=st.integers(1, 4))
def test_substitution_commutes_with_ring_operations_and_d_dz(p, q, n):
    """tau -> t_1...t_n is an injective ring map that commutes with d/dz
    and preserves exact quotients, so every identity the forms decide in
    (z, tau) holds in the cube coordinates."""
    phi_p, phi_q = ref_on_cube(p, n), ref_on_cube(q, n)
    assert ref_on_cube(p + q, n) == phi_p + phi_q
    assert ref_on_cube(p * q, n) == phi_p * phi_q
    assert ref_on_cube(p.diff(0), n) == phi_p.diff(0)
    assert (phi_p == phi_q) is (p == q)
    if not q.is_zero():
        assert (p * q).divide_exact(q) == p
        assert ref_on_cube(p * q, n).divide_exact(phi_q) == phi_p
        quot = p.divide_exact(q)
        cube_quot = phi_p.divide_exact(phi_q)
        assert (quot is None) is (cube_quot is None)
        if quot is not None:
            assert ref_on_cube(quot, n) == cube_quot


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
    """A broken denominator fails the recurrence in (z, tau), and so does
    its image in the cube coordinates."""
    n, k = 3, 2
    w = omega(n, k)
    z, tau = MPoly.var(2, 0), MPoly.var(2, 1)
    lhs = RationalForm(n, w.num, w.den * (MPoly.const(2, 1) - z * tau)).d_dz()
    rhs = omega(n, k - 1)
    assert not rational_functions_equal(lhs.num, lhs.den, rhs.num, z * rhs.den)
    assert not rational_functions_equal(*_on_cube(lhs),
                                        ref_on_cube(rhs.num, n),
                                        ref_on_cube(z * rhs.den, n))


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


def test_derivative_keeps_the_square_when_division_fails():
    # d/dz 1/(1-z) = 1/(1-z)^2: the numerator 1 is not a multiple of 1 - z
    one, z = MPoly.const(2, 1), MPoly.var(2, 0)
    q = one - z
    d = RationalForm(1, one, q).d_dz()
    assert d.num == one
    assert d.den == q * q


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
            ref = 1 if k == 0 else li_series(k, z)
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
