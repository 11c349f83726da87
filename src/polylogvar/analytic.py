"""High-precision polylogarithms, fundamental solution matrices, and their
parallel transport along paths in C \\ {0, 1}.

The fundamental solution at weight n is the (n+1) x (n+1) upper-triangular
matrix with first row (1, Li_1(z), ..., Li_n(z)) and rows i >= 1 given by
(2*pi*i)^i log(z)^(j-i)/(j-i)!.  It solves the linear system
dL = L * A(z) dz, where A(z) has 1/(1-z) in slot (0,1) and 1/z on the rest
of the superdiagonal: a nilpotent Fuchsian system with poles only at 0, 1
and infinity.  Transport continues it along a path by a chain of disks, each
at most 0.4 times as wide as the distance to the punctures (van der Hoeven
1999; Mezzarobba 2016).  The product of the disks' transition matrices is
unitriangular with exp(Lambda N) below row 0, N the upper shift and Lambda
the continued log(end / base), so transport carries only its row 0, as the
solution row of the system stepped across each disk by its truncated
Taylor series, and takes Lambda once from the two end points.  It
multiplies the start matrix by that product once, at the end.  The row
step, the series and the principal first row of Li values run on Python
integers in fixed point, with guard bits sized from the term count and the
number of disks so that their rounding stays below the truncation error.
A Li row has one source, ``_li_row``: the series on the disk |z| <= 3/4,
and for real z in [-1, -3/4) or (3/4, 1) the series' row at +-3/4 stepped
to z by the same disk chain, so no special value and no term cap enters.

Monodromy matrices share transport's disk chain and row step
(``_step_chain``).  Below row 0 the system is the Tate-twisted symmetric
power of the Kummer (log) system, so rows 1..n of a monodromy matrix are
fixed by the loop's winding number about 0, read from the phase sum of the
closed chain; only the n entries of row 0, from the row (1, Li_1, ..., Li_n)
stepped around the loop, are reconstructed as exact rationals.  The
normalization by powers of 2*pi*i is what makes those entries rational;
entry (0, j) lies in the lattice (1/j!) Z, so it is certified by rounding
once its proved radius is below half the spacing 1/j!, with no tolerance.
Monodromy runs at the least precision that certifies: its row step is sized
for the fewest bits whose proved row-0 radius is below 1/(2 n!), and the
caller's precision only caps that count.  From that count to the lattice
points it runs on Python integers: the sizing, the start row, the twist of
the stepped row by log b and 2*pi*i, and the radius tests.  mpmath enters
only at an arc's end, in libmp's fixed-point log b and pi, and in
transport's final product.
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_log, pi_fixed, to_fixed

from .errors import (DomainError, IntegrationError, PathError,
                     ReconstructionError)
from .exact import RationalMatrix, rational_reconstruct
from .paths import DEFAULT_MARGIN, LineTo, PathSpec

DEFAULT_PREC = 128

# The most disks one transport may take; a longer chain is a PathError.
_DISK_CAP = 100_000

class PeriodMatrix(namedtuple("PeriodMatrix", "n entries branch_tag")):
    """Fundamental solution matrix on some branch.

    ``entries`` is an (n+1) x (n+1) grid of mpmath complex numbers;
    ``branch_tag`` records the path from the canonical base point that was
    used to reach this branch.
    """

    __slots__ = ()

    def __new__(cls, n, entries, branch_tag="principal"):
        if len(entries) != n + 1 or any(len(row) != n + 1 for row in entries):
            raise ValueError("entries must form an (n+1) x (n+1) grid")
        for row in entries:
            for v in row:
                if not mp.isfinite(v):
                    raise ValueError("period matrix entries must be finite")
        return super().__new__(cls, n, entries, branch_tag)


def li_series(n, z, prec=DEFAULT_PREC):
    """Li_n(z) for |z| <= 0.75 or real z in [-1, -0.75], to ``prec`` bits.

    It is the last entry of ``_li_row``: the series on the disk |z| <= 0.75,
    and on [-1, -0.75) that series at -3/4 stepped along the line to z.
    Either way the value is within a relative 2^-(prec + 7) of Li_n(z)
    before the final rounding to ``prec`` bits, so within 2^-(prec - 1)
    after it.  z = 0 gives an exact 0.  Anywhere else, callers must use
    transport.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    with mp.workprec(prec):
        zc = mp.mpc(mp.mpmathify(z))
        if not zc:
            return mp.mpc(0)
        # negated, so that a NaN part fails it too
        if not abs(zc) <= 0.75 and not (zc.imag == 0 and -1 <= zc.real < 0):
            raise DomainError("li_series requires |z| <= 0.75 or real z in "
                              "[-1, -0.75]; use transport elsewhere")
        return _li_row(n, zc, prec)[-1]


def principal_lambda(n, z, prec=DEFAULT_PREC):
    """Fundamental solution on the principal branch, at real z in (0, 1).

    Row 0 holds (1, Li_1(z), ..., Li_n(z)); rows 1..n are ``kummer_rows``.
    Row 0 is ``_li_row``'s, summed on z <= 3/4 and stepped from 3/4 above
    it, to a relative 2^-(prec + 7) before the final rounding.  Every entry
    is rounded once, to ``prec`` bits, so each is within a relative
    2^-(prec - 1).  Above 3/4 the cost grows like log(1 / (1 - z)); z
    within about 2^-28 of 1 is a PathError.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    with mp.workprec(prec):
        zm = _principal_z(z)
        row0 = [mp.mpc(1)] + _li_row(n, zm, prec)
        grid = [row0] + kummer_rows(n, zm, prec)
        return PeriodMatrix(n, tuple(tuple(row) for row in grid), "principal")


def _principal_z(z):
    """z read at the working precision as an mpc; DomainError unless it is
    real and in (0, 1)."""
    zm = mp.mpc(mp.mpmathify(z))
    if zm.imag != 0 or not 0 < zm.real < 1:
        raise DomainError("principal_lambda needs real z in (0, 1)")
    return zm


def kummer_rows(n, z, prec=DEFAULT_PREC):
    """Rows 1..n of ``principal_lambda(n, z, prec)``, entry for entry, with
    no Li series: row i is zero before column i and holds
    (2 pi i)^i log(z)^(j-i) / (j-i)! in column j >= i, with the real
    principal logarithm, each rounded once to ``prec`` bits.

    Bound.  The real magnitude (2 pi)^i lg^m / m!, m = j - i, is formed at
    F bits, u = 2^-F, as P_i T_m with P_i = P_(i-1) (2 pi) and
    T_m = T_(m-1) lg / m, then multiplied exactly by the unit i^i.  Take
    2 pi and lg = log(z) each within a relative 2u and every product or
    quotient within u: P_i carries at most 3 i such factors (1 + u), T_m at
    most 4 m and the product one more, 4 n + 1 in all as i + m <= n, so the
    magnitude is within a relative 1.01 (4 n + 1) u < (5 n + 6) u.
    F = prec + 10 + bitlength(5 n + 5) puts that below 2^-(prec + 10), and
    the rounding to ``prec`` bits adds at most 2^-prec.
    """
    with mp.workprec(prec):
        zr = _principal_z(z).real
        with mp.workprec(prec + 10 + (5 * n + 5).bit_length()):
            two_pi, lg = 2 * mp.pi, mp.log(zr)
            terms = [mp.mpf(1)]
            for m in range(1, n):
                terms.append(terms[-1] * lg / m)
            power, rows = mp.mpf(1), []
            for i in range(1, n + 1):
                power *= two_pi
                rows.append([power * t for t in terms[:n + 1 - i]])
        for i, row in enumerate(rows, 1):
            unit = mp.mpc((1, 1j, -1, -1j)[i % 4])
            rows[i - 1] = [mp.mpc(0)] * i + [unit * v for v in row]
        return rows


def _li_row(n, z, prec):
    """[Li_1(z), ..., Li_n(z)] for an mpc z with 0 < |z| <= 3/4, or real z
    in [-1, -3/4) or (3/4, 1), each within a relative 2^-(prec + 7) of its
    value before it is rounded once to the active precision: the row of
    ``_li_fixed`` so rounded.  This is the one source of a Li row."""
    re, im, E = _li_fixed(n, z, prec)
    return [_from_fixed(a, b, E) for a, b in zip(re, im)]


def _li_fixed(n, z, prec):
    """(re, im, E) with Li_j(z) = (re_j + i im_j) 2^-E, j = 1..n, each within
    a relative 2^-(prec + 7), for an mpc or a Python number z as in
    ``_li_row``: exact integers, before any rounding.  On the disk it is
    ``_li_disk``.  Elsewhere the disk's row at b = +-3/4, the sign of z, is
    stepped by ``_step_chain`` along the line from b to z, with
    li_bits = p + ceil(log2(8 (n + 2))), p = max(prec, the fraction bits of
    z), and margin min(3/4, |1 - z|), the line's distance to the punctures.

    Proof.  The disks of the chain are centred on the real line between b
    and z, each of radius at most 0.4 times its distance to {0, 1}, so they
    avoid 0 and the cut [1, oo), where (1, Li_1, ..., Li_n) is analytic
    and solves the system that ``_step_row`` steps: row 0 of L(b) P_c is
    (1, Li_1(z), ..., Li_n(z)) for the exact product P_c of the chain.  The
    chain's points are floored to 2^-F, which keeps it in its disks as in
    ``monodromy``, and its ends b and z are exact there: b is 3/4 in
    modulus, and F >= li_bits + 14 exceeds the fraction bits of z.  Every
    |Li_j(b)| <= Li_1(3/4) = log 4 < 3, so V = 3 bounds the start row, and
    ``monodromy``'s accuracy bound puts the stepped row within
    (n + 1) V 2^-(li_bits + 7) of the start row times P_c.  The start row
    is within 3 V 2^-F of Li(b) after flooring, and rows 1..n of P_c are
    exp(Lambda N) with Lambda = log(z / b) real and |Lambda| < log(4/3), so
    that error adds at most 3 V e^0.3 2^-F < 0.1 2^-(li_bits + 7).  So each
    entry is within 3 (n + 2) 2^-(li_bits + 7).  On the two intervals
    |Li_j(z)| >= 3/8: Li_j(z) >= z > 3/4 on (3/4, 1), and on [-1, -3/4)
    the series alternates with terms falling in modulus, so
    |Li_j(z)| >= |z| - |z|^2 / 2 >= 15/32.  The error is then a relative
    8 (n + 2) 2^-(li_bits + 7) <= 2^-(prec + 7).  Near 1 the chain takes
    about log(1 / (1 - z)) / log(5/3) disks, and ``_disk_chain``'s
    PathError stops it within about 2^-28 of 1.
    """
    if n == 0:
        return [], [], 0
    if abs(z) <= 0.75:
        return _li_disk(n, z, prec)
    bits = max(prec, _dyadic(z)[2]) + (8 * n + 15).bit_length()
    *_, F, (r_re, r_im) = _step_chain(
        n, PathSpec(complex(math.copysign(0.75, z.real)), (LineTo(z),)),
        prec, float(min(0.75, abs(1 - z))), li_bits=bits)
    return r_re, r_im, F


def _dyadic(v):
    """[X, Y, s] with v = (X + i Y) 2^-s for integers X, Y and the least
    s >= 0, for an mpc or a Python number."""
    if isinstance(v, mp.mpc):
        parts = [(-man if sign else man, exp) for sign, man, exp, _ in v._mpc_]
    else:
        v = complex(v)
        parts = [(m, 1 - d.bit_length()) for m, d in
                 (v.real.as_integer_ratio(), v.imag.as_integer_ratio())]
    s = max(0, *(-e for _, e in parts))
    return [m << (e + s) for m, e in parts] + [s]


def _li_disk(n, z, prec):
    """(re, im, E) for 0 < |z| <= 3/4 as in ``_li_fixed``: the exact
    products z S_j, with S_j = sum_k z^(k-1) / k^j summed in fixed point.

    z^(k-1) is kept as the pair of integers t_k, scaled by 2^F: t_1 = 2^F and
    t_(k+1) = t_k Z, Z the parts of z floored to 2^-F, with each part shifted
    down by F.  The terms of S_j for all j come from t_k by n successive
    floor divisions by k.  With r = |z|, K terms leave a tail of at most
    r^K / (1 - r), so K is the least count that puts it below 2^-(prec + 10);
    K < 2.5 (prec + 12).

    Rounding bound.  Let u = 2^-F.  Each t_k is off from Z^(k-1) by less
    than sqrt(2) u / (1 - r), Z^(k-1) from z^(k-1) by less than
    sqrt(2) (k-1) r^(k-2) u, and the divisions add less than 2 sqrt(2) u per
    term.  Over K terms the error is below
    sqrt(2) u ((H_K + 1) / (1 - r) + 2 K) < 5 (K + 1) u / (1 - r), the
    factor 5 > 3 sqrt(2) covering |Z| > r to second order, so
    F = prec + 10 + ceil(log2(5 (K + 1) / (1 - r))) puts it below
    2^-(prec + 10).  F does not grow as z shrinks.  ``_li_disk_size`` finds
    K and F exactly from the parts of z.

    Lower bound.  |Li_j(z)| >= r / 4, so |S_j| >= 1/4: Koebe's theorem gives
    |Li_1(z)| >= r / (1 + r)^2 >= r / 4 (-log(1 - z) is univalent on the
    unit disk), and for j >= 2 |Li_j(z)| >= r - r^2 / (4 (1 - r)) >= r / 4.
    So every S_j is within a relative 2^-(prec + 7), and so is z S_j, formed
    exactly, of Li_j(z).
    """
    X, Y, s = _dyadic(z)
    terms, F = _li_disk_size(X * X + Y * Y, s, prec)
    Xf, Yf = (X << F) >> s, (Y << F) >> s
    if not Y:  # real z: every imaginary part below stays 0
        t, s_re = 1 << F, [0] * (n + 1)
        for k in range(1, terms + 1):
            a = t
            for j in range(1, n + 1):
                a //= k
                s_re[j] += a
            t = t * Xf >> F
        return [X * a for a in s_re[1:]], [0] * n, F + s
    t_re, t_im = 1 << F, 0
    s_re = [0] * (n + 1)
    s_im = [0] * (n + 1)
    for k in range(1, terms + 1):
        a, b = t_re, t_im
        for j in range(1, n + 1):
            a //= k
            b //= k
            s_re[j] += a
            s_im[j] += b
        t_re, t_im = (t_re * Xf - t_im * Yf) >> F, (t_re * Yf + t_im * Xf) >> F
    return ([X * a - Y * b for a, b in zip(s_re[1:], s_im[1:])],
            [X * b + Y * a for a, b in zip(s_re[1:], s_im[1:])], F + s)


def _li_disk_size(q, s, prec):
    """(K, F) of ``_li_disk`` for r = sqrt(q) 2^-s in (0, 3/4]: the least K
    with r^K <= 2^-t (1 - r), t = prec + 10, and F = t + f for the least f
    with 2^f (1 - r) >= 5 (K + 1), both decided exactly.

    Each test has the form sqrt(q) A <= B for integers A >= 0 and B, true
    exactly when B >= 0 and q A^2 <= B^2.  For f, A = 2^f and
    B = 2^s (2^f - 5 (K + 1)).  For the tail, multiplied by 2^(s K + t),
    A = 2^(s (K - 1)) + [K odd] q^h 2^t and B = 2^(s K) - [K even] q^h 2^t
    with h = floor(K / 2), integers of about s K bits.  So it is first
    bounded at P = t + 64 fraction bits: R = floor(r 2^P) <= r 2^P < R + 1,
    r^K 2^P lies between the powers of R and R + 1 formed with a floor and a
    ceiling at every product, and 2^-t (1 - r) 2^P between
    2^-t (2^P - R - 1) and 2^-t (2^P - R).  The exact test runs only when
    the two ranges meet.  A float estimate of K starts the search, which
    then steps to the least K that passes.
    """
    t = prec + 10
    P = t + 64
    one, R = 1 << P, math.isqrt((q << 2 * P) >> 2 * s)

    def sqrt_le(A, B):
        return B >= 0 and q * A * A <= B * B

    def tail_below(K):
        lo = hi = one
        for bit in bin(K)[2:]:
            lo, hi = lo * lo >> P, -(-hi * hi >> P)
            if bit == "1":
                lo, hi = lo * R >> P, -(-hi * (R + 1) >> P)
        if hi << t <= one - R - 1:
            return True
        if lo << t > one - R:
            return False
        h, odd = divmod(K, 2)
        power = q ** h << t
        return sqrt_le((1 << s * (K - 1)) + (power if odd else 0),
                       (1 << s * K) - (0 if odd else power))

    log_r = (math.log2(q) - 2 * s) / 2
    K = max(1, math.ceil((t - math.log2(1 - 2 ** log_r)) / -log_r))
    while not tail_below(K):
        K += 1
    while K > 1 and tail_below(K - 1):
        K -= 1
    f = (5 * K + 4).bit_length()
    while not sqrt_le(1 << f, ((1 << f) - 5 * (K + 1)) << s):
        f += 1
    return K, t + f


# Each disk step covers at most this fraction of the distance from its centre
# to the nearer puncture; the series tail bound in ``transport`` relies on it.
_STEP_RATIO = 0.4
# Steps are planned a relative 2^-20 inside _STEP_RATIO and must pass
# a float64 test against _CHECK_RATIO that implies the exact ratio.
_PLAN_RATIO = _STEP_RATIO * (1 - 2 ** -20)
_CHECK_RATIO = _STEP_RATIO * (1 - 2 ** -40)
_GUARD_BITS = 8


def _series_terms(prec):
    """Least K with _STEP_RATIO^K / (1 - _STEP_RATIO) <= 2^-(prec + guard):
    for the ratio 2/5, 5 2^(K + m) <= 3 5^K with m = prec + guard >= 0,
    decided in integers from a float estimate."""
    m = prec + _GUARD_BITS
    K = math.ceil((m - math.log2(1 - _STEP_RATIO)) / -math.log2(_STEP_RATIO))
    while 5 << (K + m) > 3 * 5 ** K:
        K += 1
    while 5 << (K - 1 + m) <= 3 * 5 ** (K - 1):
        K -= 1
    return K


def _fraction_bits(prec, terms):
    """F = prec + ceil(log2(5 K + 6)) + 8 for K = ``terms``: the fixed-point
    scale that keeps K series terms and one product step within 2^-(prec + 8)
    (see ``transport``)."""
    # (5 K + 5).bit_length() is ceil(log2(5 K + 6))
    return prec + (5 * terms + 5).bit_length() + _GUARD_BITS


def _disk_chain(path, margin, prec):
    """The steps (c, z1) of the disk chain that covers ``path``.

    Each step is planned in float64 from zf, the double nearest its centre
    c, the end of the step before.  Its length is
    ``_PLAN_RATIO`` * dist(zf, {0, 1}) (``_plan_step``): along an arc it
    turns zf about the centre while the sweep left is longer than that,
    then it runs straight for the segment's end, which it takes once it is
    that close.  z1 becomes the next centre.  So every point is a Python
    complex, a pair of dyadic rationals, except the end of an arc of radius
    r about p from z0: p + (mpc(z0) - p) exp(i sweep), taken once by mpmath
    at prec + 8 bits, within 2^-(prec + 6) (|p| + r) of its value, and
    reached as an mpc.  A line ends exactly on its end point, a Python
    complex or an mpc (``_li_row`` ends its line on z itself).  The last
    segment of a closed path ends on the base point itself, which
    ``PathSpec.validate`` puts within 1e-9 of that segment's end: a line
    runs to it, and an arc turns its sweep and then runs straight to it, so
    the chain of a closed path is closed.  As a step is planned from its own
    start, its rounding scales with |z1|, not with the length of the
    segment.

    Every step must pass, in float64,
    |z1 - zf| + 2^-51 (|z1| + |zf|) <= ``_CHECK_RATIO`` dist(zf, {0, 1}).
    Each abs, difference and product there is within a relative 2^-51 of
    its value, and z1 and c within a relative 2^-53 of their doubles, which
    the 2^-51 terms cover; so every step has |z1 - c| <= 0.4 dist(c, {0, 1}),
    which ``_step_row`` checks again, exactly.  The planned step, within a
    relative 2^-20 of the bound, fails the test only when dist(zf, {0, 1})
    is below about 2^-28 |zf|, within a few 1e-9 of 1 (a margin below 1e-8
    allows that).  Such a step, a centre closer than margin / 2 to a
    puncture, or a chain of more than ``_DISK_CAP`` disks raises PathError
    before any step is taken.
    """
    steps = []
    z = zf = path.base_point
    last = len(path.segments) - 1
    for k, seg in enumerate(path.segments):
        if isinstance(seg, LineTo):
            p, left, end = None, 0.0, seg.end
        else:
            p, left = seg.center, seg.sweep
            with mp.workprec(prec + _GUARD_BITS):
                end = p + (mp.mpc(z) - p) * mp.expj(left)
        if path.closed and k == last:
            end = path.base_point
        while left or z != end:
            dist = min(abs(zf), abs(1 - zf))
            if dist < margin / 2:
                raise PathError(f"transport came within {dist:.3e} of a "
                                f"puncture (margin {margin})")
            if len(steps) == _DISK_CAP:
                raise PathError(f"the path needs more than {_DISK_CAP} disks")
            z1, left = _plan_step(zf, p, left, end, _PLAN_RATIO * dist)
            z1f = complex(z1)
            if abs(z1f - zf) + 2 ** -51 * (abs(z1f) + abs(zf)) \
                    > _CHECK_RATIO * dist:
                raise PathError(f"transport came within {dist:.3e} of a "
                                f"puncture, too close to step in float64")
            steps.append((z, z1))
            z, zf = z1, z1f
    return steps


def _plan_step(zf, p, left, end, step):
    """(z1, sweep left after it) for one step of length at most ``step``
    from zf: zf turned about p along an arc of length ``step``, if that is
    shorter than the sweep ``left``, else toward ``end``, and onto it once
    it is within ``step``."""
    if left and step < abs(left * (zf - p)):
        angle = math.copysign(step / abs(zf - p), left)
        # exp(i angle) - 1 = 2i sin(angle / 2) exp(i angle / 2), uncancelled
        return zf + (zf - p) * 2j * math.sin(angle / 2) \
            * cmath.rect(1, angle / 2), left - angle
    gap = complex(end) - zf
    if abs(gap) <= step:
        return end, 0.0
    return zf + gap * (step / abs(gap)), 0.0


def _product_guard(n, disks):
    """Least G with 2^G >= D * sum_{l < n} (0.52 D)^l / l!, for D = ``disks``
    and n >= 1; the growth bound of a product of D transitions (see
    ``transport``).  The sum is formed in integers, scaled by
    25^(n-1) (n-1)!, where each of its terms is an integer."""
    scale = 25 ** (n - 1) * math.factorial(n - 1)
    term, total = scale, 0
    for l in range(n):
        total += term
        term = term * 13 * disks // (25 * (l + 1))
    return (-(-disks * total // scale) - 1).bit_length() if disks else 0


def _step_row(r_re, r_im, c, z1, terms, F):
    """R T(c -> z1) for the row R = (1, r) and the transition T with
    L(z1) = L(c) T, in fixed point: r is entries 1..n as lists r_re, r_im,
    and c, z1 are pairs, all Python integers scaled by 2^F.  Returns the new
    entries 1..n as two lists.

    The row y with y(c) = R solves dy = y A dz: y_0 = 1, (1 - z) y_1' = 1
    and z y_j' = y_(j-1) for j >= 2.  With w = z1 - c, p = w/(1-c) and
    q = w/c, its Taylor terms t_j[k] = Y_j[k] w^k at c are t_j[0] = R_j,
    t_1[k] = p^k / k for k >= 1, and
    t_j[k+1] = q (t_(j-1)[k] - k t_j[k]) / (k+1) for j >= 2; the new R_j is
    the sum of t_j[k] over k < K, K = ``terms``.  w is exact, and p and q
    are floored quotients of integers.  Each j runs over k on its own, from
    the terms of j - 1: an exact integer difference, one complex product
    with a single floor shift by F per part, and a floor division by k + 1;
    t_1 divides the powers of p by k.  The bounds below rest on
    |w| <= 0.4 dist(c, {0, 1}), which is checked first, exactly, as
    25 |w|^2 <= 4 min(|c|^2, |1 - c|^2); IntegrationError if it fails.

    Majorants.  Let x = |w| / dist(c, {0, 1}), so |p|, |q| <= x <= 0.4.
    With t_1[k+1] = p (delta_k0 + k t_1[k]) / (k+1), the t_j[k], as
    polynomials in p, q and R, have coefficients no larger in modulus than
    those of the recurrences with every difference made a sum; with
    p = q = x these give the Taylor terms at scale x of
    (1 - s) y_j' = y_(j-1), j >= 1, whose transition has L(s)^m / m!,
    L = -log(1 - s), in column i + m of row i.  As the L^m / m! sum to
    1 / (1 - s), each has Taylor coefficients at most 1, so truncating at K
    terms moves an entry of T by at most x^K / (1 - x), and the entry is at
    most L(x)^m / m! <= 0.52^m / m!.

    Rounding bound.  Let u = 2^-F.  p and q are within sqrt(2) u, which
    moves an entry of the truncated T by at most
    sqrt(2) u d/dx (L(x)^m / m!) <= sqrt(2) u / (1 - x)^2 < 4u.  A shift or
    a division leaves each part less than u below its value, and the two
    together less than 1.5u for k >= 1, so less than 2.2u in modulus.  A
    power of p carries the old error times p, so its error stays below
    1.5u / 0.59 < 2.5u and that of t_1[k] below 1.3u + 1.5u.  An old error e
    enters a later t_j multiplied by q/(k+1) and q k/(k+1), so by at most
    0.41 |e| in all: each term's error stays below 2.2u / 0.59 < 3.8u.  So
    the result is R T~ + rho, with T~ unit upper triangular and within
    x^K / (1 - x) + 4u of T above the diagonal, and |rho_j| < 3.8 K u.
    """
    c_re, c_im = c
    w_re, w_im = z1[0] - c_re, z1[1] - c_im
    ww = w_re * w_re + w_im * w_im
    quotients = []
    for x, y in (((1 << F) - c_re, -c_im), c):
        xy = x * x + y * y
        if not xy or 25 * ww > 4 * xy:
            raise IntegrationError("a disk step is longer than 0.4 times the "
                                   "distance to the punctures")
        quotients += [((w_re * x + w_im * y) << F) // xy,
                      ((w_im * x - w_re * y) << F) // xy]
    p_re, p_im, q_re, q_im = quotients
    a, b = p_re, p_im
    t_re, t_im = [r_re[0], a], [r_im[0], b]
    for k in range(2, terms):
        a, b = (p_re * a - p_im * b) >> F, (p_re * b + p_im * a) >> F
        t_re.append(a // k)
        t_im.append(b // k)
    out_re, out_im = [sum(t_re)], [sum(t_im)]
    for a, b in zip(r_re[1:], r_im[1:]):
        prev_re, prev_im = t_re, t_im
        t_re, t_im = [a], [b]
        for k, k1, u, v in zip(range(terms - 1), range(1, terms),
                               prev_re, prev_im):
            d_re, d_im = u - k * a, v - k * b
            a = ((q_re * d_re - q_im * d_im) >> F) // k1
            b = ((q_re * d_im + q_im * d_re) >> F) // k1
            t_re.append(a)
            t_im.append(b)
        out_re.append(sum(t_re))
        out_im.append(sum(t_im))
    return out_re, out_im


def _to_fixed(v, F):
    """The parts of v, an mpc or a Python number, floored to 2^-F and
    scaled by 2^F; exact for a double whose nonzero parts are at least
    2^(53 - F) in modulus."""
    if isinstance(v, mp.mpc):
        return [to_fixed(x, F) for x in v._mpc_]
    v = complex(v)
    (a, c), (b, d) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
    return [(a << F) >> (c.bit_length() - 1), (b << F) >> (d.bit_length() - 1)]


def _from_fixed(re, im, F):
    """The mpc re 2^-F + i im 2^-F, rounded to the active precision."""
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -F, prec, "n"),
                        from_man_exp(im, -F, prec, "n")))


def _step_chain(n, path, prec, margin, li_bits=None):
    """(d_re, d_im, turn, ends, F, row) for ``path``, as ``transport``'s
    docstring sizes and bounds them.

    The solution row (1, R) is stepped by ``_step_row`` across the disk
    chain of ``path`` (``_disk_chain``, arc ends at ``prec`` + 8 bits), with
    K terms a disk and F fraction bits sized from ``prec`` and the number of
    disks, and R starting at 0.  With ``li_bits`` they are sized from
    ``li_bits`` instead, and R starts at (Li_1(b), ..., Li_n(b)) for the
    base point b, a real double: ``_li_fixed``'s exact row for F bits (for
    b > 3/4 itself a chain from 3/4, nested in this one), rounded once to F
    significant bits, as ``_li_row`` rounds a row, and floored to 2^-F, by
    libmp on integers.  F is then raised, if need be, until b converts
    exactly and 2^-F <= 2^-25 margin (see ``monodromy``).  d is the change
    of R across the chain, an exact difference of Python integers scaled by
    2^F: from 0 it is row 0 of the chain's product P.  row is the pair
    (r_re, r_im) of the stepped row itself, the start plus d.  turn is the
    float64 sum of the steps' phases Arg(z1 / c), and ends the chain's first
    and last points in fixed point: ``transport`` forms Lambda from both,
    and ``monodromy``, whose chain closes, reads its winding from turn.
    """
    if not margin > 0:
        raise DomainError("margin must be positive")
    path.validate(margin)
    steps = _disk_chain(path, margin, prec)
    bits = prec if li_bits is None else li_bits
    # the second-order term of the growth bound needs
    # bits + G >= bitlen(n - 1) - 4 + G_0 (``transport``)
    guard = _product_guard(n, len(steps)) \
        + max(0, (n - 1).bit_length() - 4 - bits)
    terms = _series_terms(bits + guard)
    F = _fraction_bits(bits + guard, terms)
    base = path.base_point
    if li_bits is not None:
        # 2^-F <= 2^-25 margin for margin = a / d, d a power of 2
        a, d = float(margin).as_integer_ratio()
        F = max(F, base.real.as_integer_ratio()[1].bit_length() - 1,
                d.bit_length() + 25 - a.bit_length())
    points = [_to_fixed(z, F) for z in [base] + [z1 for _, z1 in steps]]
    s_re = s_im = [0] * n
    if li_bits is not None:
        re, im, E = _li_fixed(n, base, F)
        s_re, s_im = ([to_fixed(from_man_exp(v, -E, F, "n"), F) for v in part]
                      for part in (re, im))
    r_re, r_im = s_re, s_im
    for c, z1 in zip(points, points[1:]):
        r_re, r_im = _step_row(r_re, r_im, c, z1, terms, F)
    turn = math.fsum(cmath.phase(complex(z1) / complex(z0))
                     for z0, z1 in steps)
    return ([a - b for a, b in zip(r_re, s_re)],
            [a - b for a, b in zip(r_im, s_im)], turn,
            (points[0], points[-1]), F, (r_re, r_im))


def transport(n, path, start, prec=DEFAULT_PREC, margin=DEFAULT_MARGIN):
    """Analytic continuation of ``start`` along ``path``.

    The path is covered by a chain of D disks (``_disk_chain``) with
    |z1 - c| <= 0.4 * dist(c, {0, 1}) for every step from c to z1.  The
    transition T(c -> z1), L(z1) = L(c) T, is upper unitriangular, and its
    rows i >= 1 are those of exp(l N), N the upper shift and
    l = log(1 + w/c), w = z1 - c, the principal logarithm since
    |w/c| <= 0.4.  So the product P = T_1 ... T_D is exp(Lambda N) below
    row 0, with Lambda = sum l_k, and transport returns start * P, formed
    once at the end, in mpmath at F bits, and rounded to ``prec``.  The
    chain, the sizing, the row step and the phase sum below are
    ``_step_chain``'s, which ``monodromy`` shares.

    Row 0 of P is the solution row R <- R T_k, from R = e_0, stepped by
    ``_step_row`` across each disk in Python-int fixed point at 2^-F, about
    n K complex products a disk.  The points of the chain are converted to
    fixed point once; a double converts exactly unless a nonzero part is
    below 2^(53 - F) in modulus.

    Lambda.  As 1 + w/c = z1/c, exp(Lambda) = z_end / z_base, so
    Lambda = Log(z_end / z_base) + 2 pi i m for an integer
    m = (sum theta_k - Arg(z_end / z_base)) / (2 pi), where
    theta_k = Im l_k = Arg(z1/c) and |theta_k| <= asin 0.4 < 0.42.  m is
    the nearest integer to that quotient taken in float64 from the phase of
    the quotient of the doubles nearest c and z1: z1/c lies at least 0.6
    from 0, with its argument at least 2.7 from the cut at +-pi, so each
    phase is within 2^-48 of theta_k, and for D <= ``_DISK_CAP`` the sum of
    phases, and with it the quotient, is within 2^-30 of its exact value.
    ``transport``, the one caller that reads Lambda, forms it from
    ``_step_chain``'s phase sum and end points: the logarithm is taken
    once, at F + 20 bits, from the fixed-point end points; as
    |Log(z_end / z_base)| < 2^11 for points of double range and
    2 pi |m| < 0.42 D + 7, Lambda is within u = 2^-F of the exact sum.
    (A closed chain ends on its base point, so there m is the nearest
    integer to sum theta_k / (2 pi), with no logarithm: ``monodromy``.)

    Growth of the product.  Write d = dist(c, {0, 1}) and a = -log 0.6,
    below 0.511.  Majorants below are polynomials in S, the (n+1) x (n+1)
    upper shift, with coefficients >= 0, compared coefficient by
    coefficient; they commute.  Since |l_k| and |-log(1 - w/d)| are at most
    a, every T_k is bounded entrywise by A = exp(a S) (the majorants of
    ``_step_row``), and every partial product of k of them by exp(a k S),
    with entries below (0.52 k)^m / m!.  Let each step return
    R T~_k + rho_k, with |T~_k - T_k| <= e U entrywise, U = S + ... + S^n,
    and every |rho_k| <= r.  The error of R after step k is the old error
    times T~_k, plus R_(k-1) (T~_k - T_k), plus rho_k, with R_(k-1) the
    exact row, bounded by e_0 A^(k-1), and |rho_k| <= r e_0 U.  Carried to
    the end by T~_(k+1) ... T~_D, each bounded by B = A + e U, the error is
    at most (e + r) sum_k e_0 U A^(k-1) B^(D-k).  As A >= I, B <= A (I + e U),
    and for N < D, (I + e U)^N <= exp(N e U) <= I + delta U with
    eps = D e and delta = eps (1 + eps)^(n-1): the coefficient of S^m in
    exp(eps U) - I is sum_i eps^i C(m-1, i-1) / i! <= eps (1 + eps)^(m-1).
    Entry j of e_0 U A^(D-1) (I + delta U) is at most
    (1 + (j - 1) delta) sum_{l < j} (a (D - 1))^l / l!, so entry (0, j) of P
    ends within (e + r) E (1 + (n - 1) delta) of the exact product, where
    E = D sum_{l < n} (0.52 D)^l / l!.

    Guard bits.  G_0 = ceil(log2 E) (``_product_guard``) grows like
    log2 D + n log2(0.52 D), and G = G_0 + max(0, bitlen(n - 1) - 4 - prec),
    so that p' = prec + G - G_0 >= bitlen(n - 1) - 4; the second term is 0
    for every --precision (at least 64 bits) at n <= 64 and for every
    monodromy certificate.  K is the least count that puts 0.4^K / 0.6
    below 2^-(prec + G + 8) (114 terms at 128 bits for a canonical loop at
    n = 4, where D = 21 and G = 13), and
    F = prec + G + ceil(log2(5 K + 6)) + 8 (``_fraction_bits``).  By
    ``_step_row``, e < 2^-(prec + G + 8) + 4u and r < 3.8 K u, and
    (5 K + 6) u <= 2^-(prec + G + 8), so
    e + r < 2^-(prec + G + 8) + (3.8 K + 4) u < 1.76 2^-(prec + G + 8).
    Also eps = D e <= 2^G_0 e < (15/11) 2^-(p' + 8), and
    2^(p' + 8) > 16 (n - 1), so (n - 1) eps < 0.086,
    (1 + eps)^(n-1) < 1.09 and (n - 1) delta < 0.094.  Every entry of row 0
    of P is then within 1.76 1.094 2^-(prec + 8) < 2^-(prec + 7) of the
    exact product for the chain, to every order in e.

    Whole-transport bound.  The chain runs from the base point to the end of
    the last segment, exactly for a line and within 2^-(prec + 6) (|p| + r)
    for an arc of radius r about p, or back to the base point itself for a
    closed path; the exact product for it is
    L(base)^-1 L(end) on the continued branch.  Moving Lambda by at most
    2^-(prec + 7) moves each Lambda^m / m! by at most
    2^-(prec + 7) e^|Lambda|, and the final product
    at F bits adds less than that again, so every entry v of row i of the
    result lies within
    2^-prec |v| + 2^-(prec + 6) e^|Lambda| sum_k |start[i][k]|
    of row i of start times L(base)^-1 L(end); the first term is the final
    rounding.  The accuracy follows ``prec``.

    Every step that does not end a segment advances by almost 0.4 times the
    distance to the punctures, so the step count is bounded by the
    arclength over 0.2 * margin, and by ``_DISK_CAP``.  Exact zeros of
    ``start`` stay exact.
    """
    if n < 1:
        raise DomainError("transport needs n >= 1")
    if start.n != n:
        raise DomainError("start matrix has the wrong weight")
    r_re, r_im, turn, (z0, z1), F, _ = _step_chain(n, path, prec, margin)
    with mp.workprec(F + 20):
        log_ratio = mp.log(_from_fixed(*z1, F) / _from_fixed(*z0, F))
        m = round((turn - float(log_ratio.imag)) / (2 * math.pi))
        log_sum = log_ratio + 2j * m * mp.pi
    with mp.workprec(F):
        # P: row 0 as stepped, exp(Lambda N) below; zeros of start stay exact
        power = [mp.mpf(1)]
        for k in range(1, n + 1):
            power.append(power[-1] * log_sum / k)
        P = [[mp.mpf(1)] + [_from_fixed(a, b, F)
                            for a, b in zip(r_re, r_im)]]
        P += [[0] * i + power[:n + 1 - i] for i in range(1, n + 1)]
        moved = [[sum((mp.mpc(row[k]) * P[k][j] for k in range(j + 1)
                       if row[k]), mp.mpc(0)) for j in range(n + 1)]
                 for row in start.entries]
    with mp.workprec(prec):
        tag = f"{start.branch_tag} . {path.describe()}"
        return PeriodMatrix(n, tuple(tuple(+v for v in row) for row in moved),
                            tag)


def _row0_radius(n, base, bits):
    """rho(bits) = (n + 1) V e^|log b| 2^-(bits + 6), the radius within which
    ``monodromy`` proves row 0 from a chain sized for ``bits``, as an exact
    Fraction for the double b = ``base`` in (0, 1).  V = max(1, b / (1 - b))
    bounds Li_1(b) = -log(1 - b) <= b / (1 - b), hence every
    |Li_j(b)| <= Li_1(b), and e^|log b| = 1 / b, so V e^|log b| is
    max(1/b, 1/(1 - b)) = 2^s / min(a, 2^s - a) for b = a / 2^s."""
    a, den = base.as_integer_ratio()
    e = den.bit_length() - 1 - bits - 6
    return Fraction((n + 1) << max(e, 0), min(a, den - a) << max(-e, 0))


def _certified_bits(n, base):
    """p*, the least integer p with ``_row0_radius``(n, base, p) < 1 / (2 n!),
    half the spacing of the lattice (1/n!) Z that holds every row-0 entry.
    For b = a / 2^s that is the least p with
    min(a, 2^s - a) 2^(p + 6) > 2 (n + 1)! 2^s, one integer comparison."""
    a, den = base.as_integer_ratio()
    near, bound = min(a, den - a), 2 * math.factorial(n + 1) * den
    k = bound.bit_length() - near.bit_length()
    return k - 6 + ((near << k) <= bound)


def monodromy(n, loop, tol=None, prec=DEFAULT_PREC, margin=DEFAULT_MARGIN):
    """Exact monodromy matrix M of the weight-n system along a closed loop
    based at real b in (0, 1): L(b) continued around the loop is M L(b).

    Structure.  Transport returns L(b) P, P the product of the chain's
    transitions, so M = L(b) P L(b)^-1.  Write L(b) = [[1, v], [0, D E(l)]]
    with v = (Li_1(b), ..., Li_n(b)), l = log b, D = diag((2 pi i)^i) and
    E(x) the n x n matrix with x^(j-i) / (j-i)! at (i, j), so
    E(x) E(y) = E(x + y); and P = [[1, r], [0, E(Lambda)]] (``transport``).
    Then M = [[1, (u - v) E(-l) D^-1], [0, D E(Lambda) D^-1]], where
    u = r + v E(Lambda) is row 0 of L(b) P: the row (1, v) stepped across
    the chain.  The loop closes, so Lambda = 2 pi i m for the winding m
    about 0, and entry (i, j) of rows 1..n is
    (2 pi i)^(i-j) (2 pi i m)^(j-i) / (j-i)! = m^(j-i) / (j-i)!, exactly.
    The chain closes on b itself, so Log(z_end / z_base) = 0 and m is the
    nearest integer to its phase sum over 2 pi (``transport``), with no
    logarithm.  So only row 0 is computed: v by ``_li_fixed`` at the chain's
    F bits (the series, or for b > 3/4 the series at 3/4 stepped to b),
    stepped across the disk chain that transport takes (``_step_chain``),
    and u - v, an exact difference of integers, times E(-l) D^-1 on
    integers at 2^-F (row 0 in integers, below).

    Denominators.  The loop is a word in the loops about 0 and 1 from b,
    whose matrices are M_0 (m = 1, row 0 = e_0) and M_1 = I - E_01, with
    inverses M_0^-1 (m = -1) and I + E_01.  Entry (i, j) of each lies in
    (1/(j-i)!) Z, and a product of upper triangular matrices keeps that, as
    1 / ((k-i)! (j-k)!) = C(j-i, k-i) / (j-i)! and binomial coefficients are
    integers.  So entry (0, j) of M lies in the lattice (1/j!) Z, whose
    points lie 1/j! apart.  A computed entry v within rho < 1/(2 j!) of it
    has it as the one lattice point within rho of Re v: k/j! with
    k = round(j! Re v) (``rational_reconstruct``).  That Re v lies within rho
    of k/j! and Im v within rho of 0 are consistency checks; an entry that
    fails either raises ReconstructionError, the sign of a fault or of an
    inadmissible path.

    Accuracy.  Let V = max(1, Li_1(b)), which bounds every |Li_j(b)|.  The
    chain is sized for p bits (below): K, G and F are ``transport``'s with p
    in place of ``prec``.  The floored start row is within 3 V 2^-F of v,
    and it cancels from u - v up to its image under P - I.  In
    ``transport``'s growth bound, a start row bounded by V in every entry,
    in place of e_0, multiplies the carried error by at most n V (entry j
    of e_0 (I + U) U is j) and its second-order factor by no more, and the
    image of the start row's error under P - I, at most
    3 V 2^-F 1.7 2^G < V 2^-(p + 7), adds the rest: u - v is within
    (n + 1) V 2^-(p + 7) of its value for the chain.  Its image under
    E(-l) D^-1 moves entry j by at most that times
    sum_k (2 pi)^-k e^|l| < 0.19 e^|l|, and the twist's rounding (below)
    by less than rho(p) / 32, so row 0 of M, certified at 2^-F, is within
    rho(p) / 7 of row 0 of L(b) P_c L(b)^-1 for the exact product P_c of
    the chain, where
    rho(p) = (n + 1) V e^|l| 2^-(p + 6).

    Row 0 in integers.  With d = u - v, c = 1/(2 pi) and x = -l c >= 0,
    entry j of row 0 is (-i)^j sum_{k <= j} e_k x^(j-k) / (j-k)!,
    e_k = d_k c^k.  It is formed on integers that stand for multiples of
    h = 2^-F, with no guard bits (H = F); each d_k 2^F is one:
    - C = floor(2^(2F + 3) / pi_fixed(F + 4)), so C h is within 1.1 h of c;
    - L, libmp's log b at F + 10 bits (within an ulp, as libmp adds 20
      guard bits) floored to h, so L h is within 2 h of l, as |l| < 2^10;
    - X = -floor(L C / 2^F) >= 0, so X h is within (1.4 + 1.1 |l|) h of x;
    - C_1 = C, C_k = floor(C_(k-1) C / 2^F): C_k h is within 1.5 h of c^k,
      as its error obeys err_k <= 0.16 err_(k-1) + 1.2 h;
    - P_0 = 2^F, P_m = floor(P_(m-1) X / (m 2^F)), one floor as
      floor(floor(y) / m) = floor(y / m): P_m h is at most (X h)^m / m! and
      within (h + |X h - x|) e^x' of x^m / m!, x' = max(x, X h);
    - E_k = floor(d_k C_k) per part, so E_k h is within
      (1.5 |d_k| + 1.5) h of e_k;
    - each entry's sum formed exactly and floored once per part, 1.5 h
      more; (-i)^j swaps and negates parts exactly.
    With B >= every |d_k| and sum_k |e_k| <= 0.19 B, entry j is within
    e^x' h (1.5 B + 1.5 + 0.19 B (2.4 + 1.1 |l|)) + 1.5 h, and as
    e^(|l| / (2 pi)) (1.96 + 0.21 |l|) <= 1.96 e^|l|, within
    h e^|l| (2 B + 3.1).  By the growth bound, |u_k| <= 1.52 V E, so
    B <= V (1 + 1.52 2^G + (n + 1) 2^-(p + 7)); with p >= -2 (below), K >= 6
    and F >= p + G + 14, so the rounding stays below
    (n + 1) V e^|l| 2^-(p + 11) = rho(p) / 32.  The imaginary part is
    tested against rho by one integer comparison, and the real part is
    handed to ``rational_reconstruct`` as the exact dyadic Fraction it is.

    The chain.  Its points are floored to 2^-F, which moves each by less
    than sqrt(2) 2^-F; for F below 53 that is no longer exact for most
    doubles.  F is at least the bit count of b's binary fraction, so b stays
    exact, and the chain, which closes on b (``_disk_chain``), stays closed;
    and 2^-F <= 2^-25 margin.  A planned step from c to z1 keeps a relative
    2^-20 of the ratio 0.4 in reserve (``_PLAN_RATIO``), at least
    0.4 2^-21 margin as d = dist(c, {0, 1}) >= margin / 2, and flooring
    lengthens it by less than 2 sqrt(2) 2^-F and shortens d by less than
    sqrt(2) 2^-F, together less than 3.4 2^-F < 0.4 2^-21 margin: every
    floored step from c' to z1' passes the exact test
    |z1' - c'| <= 0.4 dist(c', {0, 1}) of ``_step_row``, which checks it
    again, so the row's series converges across it.  The planned chain
    follows the loop inside its disks, and the quadrilateral of a planned
    step and its floored image lies within 0.4 d + 2 sqrt(2) 2^-F < d of c,
    so the floored closed chain is homotopic to the loop in C \\ {0, 1}.
    Then P_c = L(b)^-1 M L(b), and its winding m is the loop's.

    Precision.  ``_row0_radius`` forms rho(p) as one Fraction from the
    integers of the double b = a / 2^s, with V <= max(1, b / (1 - b)) and
    e^|l| = 1 / b, so V e^|l| <= 2^s / min(a, 2^s - a), and
    ``_certified_bits`` finds p*, the least p with rho(p) < 1/(2 n!), which
    is at most 1/(2 j!) for every column j, by one integer comparison.
    As V e^|l| >= 2, p* >= -2.  ``prec`` is the most bits the
    certificate may use: the chain is sized for p = min(prec, p*), and when
    rho(p) >= 1/(2 n!), that is when prec < p*, DomainError, naming p*, is
    raised before any transport.  At b = 1/2, p* is about
    log2((n + 1)!) - 4: 3 bits at n = 4, 124 at n = 33, 299 at n = 64.  The
    matrix is exact, so any cap that certifies gives the same one; the cap
    still sets the precision of the chain's arc ends.  No tolerance enters:
    ``tol`` is accepted, for callers that still pass it, and read nowhere;
    it goes once the benchmark's workloads stop passing it (ROADMAP.md,
    item 1).
    """
    if n < 1:
        raise DomainError("monodromy needs n >= 1")
    if not loop.closed:
        raise DomainError("monodromy needs a closed loop")
    base = loop.base_point
    if abs(base.imag) > 0 or not 0 < base.real < 1:
        raise DomainError("monodromy loops must be based at real z in (0, 1)")
    need = _certified_bits(n, base.real)
    bits = min(prec, need)
    radius = _row0_radius(n, base.real, bits)
    if 2 * math.factorial(n) * radius.numerator >= radius.denominator:
        raise DomainError(
            f"{prec} bits prove row 0 only within {float(radius):.3g}, not "
            f"below 1/(2 * {n}!), half the spacing of its lattice; this "
            f"certificate needs {need} bits")
    d_re, d_im, turn, _, F, _ = _step_chain(n, loop, prec, margin,
                                            li_bits=bits)
    m = round(turn / (2 * math.pi))
    # row 0 = (u - v) E(-log b) D^-1 at 2^-F: e_k = d_k / (2 pi)^k, then
    # entry j = (-i)^j sum_k e_k x^(j-k) / (j-k)!, x = -log(b) / (2 pi)
    a, den = base.real.as_integer_ratio()
    c = (1 << 2 * F + 3) // pi_fixed(F + 4)
    x = -(to_fixed(mpf_log(from_man_exp(a, 1 - den.bit_length()), F + 10),
                   F) * c >> F)
    powers, c_k, e_re, e_im = [1 << F], c, [], []
    for k, (dr, di) in enumerate(zip(d_re, d_im), 1):
        powers.append((powers[-1] * x >> F) // k)
        e_re.append(dr * c_k >> F)
        e_im.append(di * c_k >> F)
        c_k = c_k * c >> F
    out = [[Fraction(1)]]
    for j in range(1, n + 1):
        re = sum(e * w for e, w in zip(e_re[:j], powers[j - 1::-1])) >> F
        im = sum(e * w for e, w in zip(e_im[:j], powers[j - 1::-1])) >> F
        re, im = ((re, im), (im, -re), (-re, -im), (-im, re))[j % 4]
        if abs(im) * radius.denominator > radius.numerator << F:
            raise ReconstructionError(
                f"entry (0,{j}) has imaginary part {im / (1 << F):.5g}, "
                f"beyond its proved radius {float(radius):.3g}")
        x_j = Fraction(re, 1 << F)
        r = rational_reconstruct(x_j, math.factorial(j), radius)
        if r is None:
            raise ReconstructionError(
                f"entry (0,{j}) = {float(x_j):.17g} is not within "
                f"{float(radius):.3g} of a multiple of 1/{j}!")
        out[0].append(r)
    winding = [Fraction(m ** k, math.factorial(k)) for k in range(n)]
    out += [[0] * i + winding[:n + 1 - i] for i in range(1, n + 1)]
    return RationalMatrix(out)
