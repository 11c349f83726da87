"""The acceptance battery: every structural identity the package certifies,
with its tolerance pinned where it has one.  Criteria 2, 3 and 4 have none:
flatness reads the connection's tags and ties the solution matrix to them
by proved radii, monodromy certifies each entry on its lattice (1/j!) Z by
a proved radius, the Kummer block is an exact identity tied to the numbers
by principal_lambda's proved radius, and the trivial subobject is read from
the connection's tags.

Each criterion returns a CriterionResult whose `details` dict contains only
deterministically serializable values, so identical runs produce identical
reports.  The battery is shared by the `suite` CLI command and the test
suite.
"""

import math
from collections import namedtuple

import mpmath as mp

from .analytic import li_series, monodromy
from .arnold import (arnold_character, arnold_dimension,
                     induced_character_check, sign_multiplicity)
from .exact import eulerian, nilpotency_index
from .forms import form_recurrence_check, gauge_exactness_check, integrate_cube
from .hodge import (flatness_residual, kummer_block_check,
                    trivial_subobject_check)
from .mpoly import MPoly
from .partitions import paving_check, postnikov_graded_check
from .paths import LineTo, PathSpec, canonical_loop
from .poset import poset_homology

CriterionResult = namedtuple("CriterionResult", "number name passed details")


def square_loop_around_one():
    """A rectangular loop around the puncture at 1, homotopic to loop1."""
    pts = [complex(0.6, -0.5), complex(1.4, -0.5), complex(1.4, 0.5),
           complex(0.6, 0.5), complex(0.6, -0.5), complex(0.5, 0.0)]
    return PathSpec(complex(0.5, 0.0), tuple(LineTo(p) for p in pts),
                    closed=True, name="square1")


def criterion_1():
    """Cube integrals of the basis forms reproduce the polylogarithm."""
    zs = [mp.mpf("0.3"), mp.mpf("-0.5"), mp.mpc("0.25", "0.25")]
    worst = 0.0
    worst_zero = 0.0
    ok = True
    for n in (1, 2, 3):
        for z in zs:
            v0 = integrate_cube(n, 0, z, 1e-10)
            err0 = float(abs(v0 - 1))
            worst_zero = max(worst_zero, err0)
            ok = ok and err0 <= 1e-10
            for k in range(1, n + 1):
                quad = integrate_cube(n, k, z, 1e-8)
                ref = li_series(k, z)
                err = float(abs(quad - ref))
                worst = max(worst, err)
                ok = ok and err <= 1e-6
    return CriterionResult(1, "cube integrals match polylog values", ok,
                           {"max_error": worst, "max_error_k0": worst_zero,
                            "tolerance": 1e-6, "tolerance_k0": 1e-10})


def criterion_2():
    """The solution matrix solves the connection at 192 bits: its tags are
    the stepped system, rows 1..n its exact closed form, and row 0 meets
    the series within two proved radii (``flatness_residual``); each
    residual is row 0's largest distance over its radius."""
    residuals = {}
    ok = True
    for n in range(1, 5):
        rep = flatness_residual(n, 0.5, prec=192)
        residuals[str(n)] = rep.residual
        ok = ok and rep.passed
    return CriterionResult(2, "flatness of the connection", ok,
                           {"residuals": residuals, "tolerance": 1.0})


def criterion_3():
    """Monodromy entries are rationals with denominator <= n!, the matrices
    are unipotent of index <= n+1, and homotopic loops agree exactly."""
    ok = True
    details = {}
    matrices = {}
    for n in range(1, 5):
        for which in (0, 1):
            M = matrices[n, which] = monodromy(n, canonical_loop(which))
            den = M.max_denominator()
            index = nilpotency_index(M)
            unipotent = index is not None
            details[f"n{n}_loop{which}"] = {
                "max_denominator": den,
                "unipotent": unipotent,
                "nilpotency_index": index,
                "matrix": [[str(v) for v in row] for row in M.entries],
            }
            ok = ok and den <= math.factorial(n) and unipotent
            ok = ok and index <= n + 1
    square = monodromy(2, square_loop_around_one())
    homotopic = square == matrices[2, 1]
    details["square_equals_loop1_n2"] = homotopic
    ok = ok and homotopic
    return CriterionResult(3, "monodromy rationality and unipotence", ok, details)


def criterion_4():
    """Trivial subobject and divided-power symmetric-power block structure,
    with no tolerance."""
    ok = True
    details = {}
    for n in range(1, 5):
        for z in ("0.3", "0.5", "0.7"):
            rep = kummer_block_check(n, mp.mpf(z))
            details[f"kummer_n{n}_z{z}"] = rep.passed
            ok = ok and rep.passed
        triv = trivial_subobject_check(n)
        details[f"trivial_sub_n{n}"] = triv.passed
        ok = ok and triv.passed
    return CriterionResult(4, "trivial sub and twisted symmetric-power quotient",
                           ok, details)


def criterion_5():
    """Exact derivative identities of the de Rham basis forms."""
    ok = gauge_exactness_check()
    details = {"gauge": ok}
    for n in range(2, 7):
        for k in range(2, n + 1):
            good = form_recurrence_check(n, k)
            details[f"recurrence_n{n}_k{k}"] = good
            ok = ok and good
    return CriterionResult(5, "de Rham form identities", ok, details)


def _eulerian_from_series(r):
    """Independent construction from the generating identity
    sum_j (j+1)^r x^j = E_r(x) / (1-x)^(r+1): multiply the truncated series
    by (1-x)^(r+1) and read off the polynomial coefficients."""
    return MPoly(1, {(m,): sum((-1) ** i * math.comb(r + 1, i) * (m - i + 1) ** r
                               for i in range(m + 1))
                     for m in range(max(r - 1, 0) + 1)})


def criterion_6():
    """Eulerian polynomials: the outputs satisfy the defining recurrence,
    match the generating-series construction, and have E_r(1) = r!, for
    r <= 12, exactly."""
    ok = True
    x = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    for r in range(13):
        e = eulerian(r)
        ok = ok and e == _eulerian_from_series(r)
        ok = ok and e.substitute(0, 1) == MPoly.const(1, math.factorial(r))
        ok = ok and e.degree_in(0) == max(r - 1, 0)
        if r < 12:
            rhs = x * (one - x) * e.diff(0) + (one + r * x) * e
            ok = ok and eulerian(r + 1) == rhs
    return CriterionResult(6, "Eulerian polynomials", ok, {"r_max": 12})


def criterion_7():
    """Top Arnol'd dimensions, poset homology concentration, sign vanishing,
    induced characters, and the graded Stirling identity."""
    ok = True
    details = {}
    for n in range(3, 7):
        hom = poset_homology(n)
        conc = all(d == 0 for q, d in hom if q != n - 3)
        top = hom[-1][1]
        a = arnold_dimension(n)
        good = conc and top == math.factorial(n - 1) and a == top
        details[f"poset_n{n}"] = {"concentrated": conc, "top_dim": top,
                                  "arnold_dim": a}
        ok = ok and good
    details["arnold_dim_2"] = arnold_dimension(2)
    ok = ok and arnold_dimension(2) == 1
    for n in range(2, 7):
        s = sign_multiplicity(n)
        i = induced_character_check(n)
        chi = arnold_character(n)
        norm = chi.inner(chi)
        valid = (norm.denominator == 1 and norm > 0
                 and all(v.denominator == 1 for v in chi.values))
        details[f"characters_n{n}"] = {"sign_multiplicity": s,
                                       "induced_ok": i, "valid_character": valid}
        ok = ok and s == 0 and i and valid
    for n in range(2, 9):
        rep = postnikov_graded_check(n)
        details[f"postnikov_n{n}"] = rep.passed
        ok = ok and rep.passed
    return CriterionResult(7, "partition and Arnol'd combinatorics", ok, details)


def criterion_8():
    """Paving of the rescaled cube by order simplices."""
    ok = True
    details = {}
    for n in range(1, 5):
        rep = paving_check(n, 0.5, 100_000, 0)
        details[f"n{n}"] = {"passed": rep.passed,
                            "volume_identity": rep.volume_identity_ok}
        ok = ok and rep.passed
    return CriterionResult(8, "simplex paving of the cube", ok, details)


def run_battery():
    """Criteria 1 through 8.  (Criterion 9, byte-reproducibility of the suite
    command, is a property of the CLI run as a whole and is exercised
    externally by running the suite twice.)"""
    return [criterion_1(), criterion_2(), criterion_3(), criterion_4(),
            criterion_5(), criterion_6(), criterion_7(), criterion_8()]
