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


def test_eval():
    # the value at a point, one variable at a time
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    p = z ** 2 + 3 * t
    value = p.substitute(0, Fraction(1, 2)).substitute(1, 2)
    assert value == MPoly.const(2, Fraction(25, 4))


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
def test_cross_multiplication_cancels_a_common_factor(case):
    (p,), (q, r) = case
    assert rational_functions_equal(p * r, q * r, p, q)


# --- coefficients: ints when integral, Fractions otherwise, never floats ----

_MIXED = st.one_of(st.integers(-5, 5),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _mixed_ring(draw, count):
    """``count`` polynomials in 1 to 3 variables whose coefficients are ints
    and Fractions, the Fractions integral or not, plus a rational point."""
    nvars = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    polys = [MPoly(nvars, draw(st.dictionaries(mono, _MIXED, max_size=4)))
             for _ in range(count)]
    point = draw(st.lists(st.fractions(min_value=-2, max_value=2,
                                       max_denominator=5),
                          min_size=nvars, max_size=nvars))
    return polys, point


def _value(p, point):
    """p at ``point``, summed term by term in Fractions."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


def _derivative_value(p, i, point):
    """d p / d x_i at ``point``, from the power rule term by term."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        if mono[i]:
            term = Fraction(c) * mono[i]
            for j, (x, e) in enumerate(zip(point, mono)):
                term *= x ** (e - (j == i))
            total += term
    return total


def _exact_coefficients(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


@settings(max_examples=80, deadline=None)
@given(_mixed_ring(2), st.integers(0, 3), st.data())
def test_operations_commute_with_evaluation(case, k, data):
    (p, q), point = case
    i = data.draw(st.integers(0, p.nvars - 1))
    a = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=5))
    vp, vq = _value(p, point), _value(q, point)
    at_a = point[:i] + [a] + point[i + 1:]
    results = [(p + q, vp + vq), (p - q, vp - vq), (p * q, vp * vq),
               (-p, -vp), (p ** k, vp ** k), (a * p, a * vp),
               (p.diff(i), _derivative_value(p, i, point)),
               (p.substitute(i, a), _value(p, at_a))]
    for poly, want in [(p, vp), (q, vq)] + results:
        assert _exact_coefficients(poly)
        assert _value(poly, point) == want


def test_integral_coefficients_are_ints():
    p = MPoly(2, {(1, 0): Fraction(4, 2), (0, 1): 2.0, (0, 0): Fraction(1, 3)})
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    assert (3 * p).terms[0, 0] == 1 and type((3 * p).terms[0, 0]) is int
    assert MPoly(1, {(0,): 0.5}).terms[(0,)] == Fraction(1, 2)


def test_two_and_fraction_two_agree():
    two, frac_two = MPoly.const(2, 2), MPoly.const(2, Fraction(2))
    assert two == frac_two
    assert hash(two) == hash(frac_two)
    assert repr(two) == repr(frac_two) == "2"
    assert type(frac_two.terms[0, 0]) is int


def test_show_spells_each_variable_by_its_names():
    """A variable prints as every name of its tuple, or, with an empty
    tuple, as nothing; repr is show with x0, x1, ..., so x12 never reads
    as x1 followed by a 2."""
    p = MPoly(2, {(2, 3): -3, (1, 1): Fraction(1, 2), (0, 0): 1})
    assert p.show([("z",), ("t1", "t2")]) == \
        "-3*z^2*t1^3*t2^3 + 1/2*z*t1*t2 + 1"
    assert p.show([("z",), ()]) == "-3*z^2 + 1/2*z + 1"
    assert MPoly(2).show([("z",), ("t",)]) == repr(MPoly(2)) == "0"
    x12 = MPoly.var(13, 12) * MPoly.var(13, 1)
    assert repr(x12) == "1*x1*x12"
    assert x12.show([(f"v{i}",) for i in range(13)]) == "1*v1*v12"
    with pytest.raises(ValueError):
        p.show([("z",)])
