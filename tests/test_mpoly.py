from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogvar.mpoly import MPoly, rational_functions_equal


def test_arithmetic():
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    p = (one + z * t) ** 2
    q = one + 2 * z * t + (z * t) ** 2
    assert p == q
    assert (p - q).is_zero()


def test_diff():
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    p = z ** 3 * t + 2 * z
    assert p.diff(0) == 3 * z ** 2 * t + MPoly.const(2, 2)
    assert p.diff(1) == z ** 3


def test_substitute():
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    p = t * (MPoly.const(2, 1) - t) * z
    assert p.substitute(1, 0).is_zero()
    assert p.substitute(1, 1).is_zero()
    assert p.substitute(1, Fraction(1, 2)) == Fraction(1, 4) * z


def test_divide_exact():
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    d = one - z * t
    p = d ** 3
    q = p.divide_exact(d)
    assert q == d ** 2
    assert p.divide_exact(one + z) is None


def test_divide_by_zero():
    one = MPoly.const(1, 1)
    with pytest.raises(ZeroDivisionError):
        one.divide_exact(MPoly(1, {}))


def test_eval():
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    p = z ** 2 + 3 * t
    assert p.eval([Fraction(1, 2), Fraction(2)]) == Fraction(25, 4)


def test_cross_multiplied_equality():
    z = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    # (1 - z^2)/(1 - z) == (1 + z)/1
    assert rational_functions_equal(one - z ** 2, one - z, one + z, one)
    assert not rational_functions_equal(one - z ** 2, one - z, one, one)


def test_degree_in():
    z = MPoly.var(3, 0)
    t1 = MPoly.var(3, 1)
    p = z * t1 ** 4 + z ** 2
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 4
    assert p.degree_in(2) == 0


# --- ring laws, on random sparse polynomials in 1 to 3 variables -----------

_COEFFS = st.fractions(min_value=-3, max_value=3,
                       max_denominator=4).filter(bool)


@st.composite
def _polys(draw, nvars, count=1, nonzero=False):
    """``count`` sparse polynomials in ``nvars`` variables with nonzero
    Fraction coefficients and exponents up to 3."""
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    return [MPoly(nvars, draw(st.dictionaries(mono, _COEFFS,
                                              min_size=int(nonzero),
                                              max_size=4)))
            for _ in range(count)]


def _ring(count):
    """``count`` polynomials in one ring of 1 to 3 variables."""
    return st.integers(1, 3).flatmap(lambda nvars: _polys(nvars, count))


@settings(max_examples=60, deadline=None)
@given(_ring(3))
def test_addition_is_commutative_and_associative(ps):
    p, q, r = ps
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@settings(max_examples=60, deadline=None)
@given(_ring(3))
def test_multiplication_is_commutative_associative_and_distributive(ps):
    p, q, r = ps
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(_ring(1))
def test_identities_and_additive_inverse(ps):
    p, = ps
    zero, one = MPoly.const(p.nvars, 0), MPoly.const(p.nvars, 1)
    assert zero.is_zero()
    assert p + zero == p and zero + p == p
    assert p * one == p and one * p == p
    assert (p * zero).is_zero()
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda nvars: st.tuples(_polys(nvars), _polys(nvars, 2, nonzero=True))))
def test_exact_division_and_cross_multiplication(case):
    (p,), (q, r) = case
    assert (p * q).divide_exact(q) == p
    assert rational_functions_equal(p * r, q * r, p, q)
