"""High-precision polylogarithms, fundamental solution matrices, and their
parallel transport along paths in C \\ {0, 1}.

The fundamental solution at weight n is the (n+1) x (n+1) upper-triangular
matrix with first row (1, Li_1(z), ..., Li_n(z)) and rows i >= 1 given by
(2*pi*i)^i log(z)^(j-i)/(j-i)!.  It solves the linear system
dL = L * A(z) dz, where A(z) has 1/(1-z) in slot (0,1) and 1/z on the rest
of the superdiagonal: a nilpotent Fuchsian system with poles only at 0, 1
and infinity.  Transport continues the principal solution at a real base b
in (0, 1) along a path by a chain of disks, each at most 0.4 times as wide
as the distance to the punctures (van der Hoeven 1999; Mezzarobba 2016).
The product of the disks' transition matrices is unitriangular with
exp(Lambda N) below row 0, N the upper shift and Lambda the continued
log(end / b), so below row 0 the continued solution is the closed form
above with log b + Lambda in place of log z, taken once from the chain's
end point and winding.  Only row 0, (1, Li_1(b), ..., Li_n(b)), is stepped
across each disk by its truncated Taylor series.  The row
step, the series and the principal first row of Li values run on Python
integers in fixed point, with guard bits sized from the term count and the
number of disks so that their rounding stays below the truncation error.
One exact rule, ``_least_terms``, gives both term counts: the least K whose
geometric tail falls below the target, for the chain's ratio 2/5 and for a
dyadic bound on |z| about 24 bits wide in the Li series.  A Li row has one
source, ``_li_row``: the series on the disk |z| <= 3/4, and for real z in
[-1, -3/4) or (3/4, 1) the series' row at +-3/4 stepped to z by the same
disk chain, so no special value and no term cap enters.

Monodromy matrices share transport's disk chain and row step
(``_step_chain``).  Below row 0 the system is the Tate-twisted symmetric
power of the Kummer (log) system, so rows 1..n of a monodromy matrix are
fixed by the loop's winding number about 0, counted exactly from the
closed chain's crossings of (-oo, 0); only the n entries of row 0, from
the row (1, Li_1, ..., Li_n) stepped around the loop, are reconstructed as
exact rationals.  The normalization by powers of 2*pi*i is what makes those
entries rational; entry (0, j) lies in the lattice (1/j!) Z, so it is
certified by rounding once its proved radius is below half the spacing
1/j!, with no tolerance.
Monodromy runs at the least precision that certifies: its row step is sized
for the fewest bits whose proved row-0 radius is below 1/(2 n!), and the
caller's precision only caps that count.  From that count to the lattice
points it runs on Python integers: the sizing, the start row, the twist of
the stepped row by log b and 2*pi*i, and the radius tests.  A chain is
planned in float64; only an open path's final arc end, one more step, is
taken by mpmath.  So a closed loop's certificate meets mpmath only in
libmp's fixed-point log b and pi.
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
from .paths import DEFAULT_MARGIN, Arc, LineTo, PathSpec

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
        if not all(mp.isfinite(v) for row in entries for v in row):
            raise ValueError("period matrix entries must be finite")
        return super().__new__(cls, n, entries, branch_tag)


def li_series(n, z, prec=DEFAULT_PREC):
    """Li_n(z) for |z| <= 0.75 or real z in [-1, -0.75], to ``prec`` bits.

    It is the last entry of ``_li_row``: the series on the disk |z| <= 0.75,
    and on [-1, -0.75) that series at -3/4 stepped along the line to z.
    Either way the value is within a relative 2^-(prec + 6) of Li_n(z)
    before the final rounding to ``prec`` bits (2^-(prec + 7) unless
    ``_li_disk`` cuts a part of z), so within 2^-(prec - 1) after it.
    The disk is decided exactly (``_in_li_disk``) on z as read at ``prec``
    bits, or, when one part lies more than 2^32 below the other, on the z'
    the series sums at, within 2^-(prec + 30) |z| of it.  z = 0 gives an
    exact 0.  Anywhere else, callers must use transport.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    with mp.workprec(prec):
        zc = mp.mpc(mp.mpmathify(z))
        if not zc:
            return mp.mpc(0)
        # a NaN or infinite part has mantissa 0 in libmp, so it is tested
        # first; NaN fails the comparisons of the real case too
        if not (mp.isfinite(zc) and _in_li_disk(zc, prec)) \
                and not (zc.imag == 0 and -1 <= zc.real < 0):
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
        grid = [[mp.mpc(1)] + _li_row(n, zm, prec)] + kummer_rows(n, zm, prec)
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
    no Li series: ``_log_rows`` for z read at ``prec`` bits, real in
    (0, 1), on the real principal branch of log z."""
    with mp.workprec(prec):
        return _log_rows(n, _principal_z(z).real, 0, prec)


def _log_rows(n, z, w, prec):
    """Rows 1..n of the solution matrix at z on the branch
    l = Log z + 2 pi i w of the logarithm, for an exact mpf or mpc z != 0
    and an integer w: row i is zero before column i and holds
    (2 pi i)^i l^(j-i) / (j-i)! in column j >= i, each rounded once to
    ``prec`` bits.

    Bound.  The value (2 pi)^i lg^m / m!, m = j - i, is formed at F bits,
    u = 2^-F, as P_i T_m with P_i = P_(i-1) (2 pi) and T_m = T_(m-1) lg / m,
    then multiplied exactly by the unit i^i; each product or quotient rounds
    each part once, so it is within u of its value in modulus.  libmp takes
    2 pi and each part of Log z within a relative 2u.  For w = 0 that is lg:
    P_i carries at most 3 i factors (1 + u), T_m at most 4 m and the
    product one more, 4 n + 1 in all as i + m <= n, so the value is within
    a relative 1.01 (4 n + 1) u < (5 n + 6) u.  For w != 0, lg adds
    2 pi i w, formed within a relative 2u and summed within u more; as
    |Arg z| <= pi <= |2 pi w| / 2, the imaginary part of l is at least
    |2 pi w| / 2 and at least |Arg z| in modulus, so lg is within a relative
    7u, T_m carries 9 m factors and the value is within a relative
    1.01 (3 i + 9 m + 1) u <= 1.01 (9 n - 5) u < 2 (5 n + 6) u.
    F = prec + 10 + bitlength(5 n + 5) puts (5 n + 6) u below
    2^-(prec + 10): the value is within a relative 2^-(prec + 10) for w = 0
    and 2^-(prec + 9) for w != 0, and the rounding to ``prec`` bits adds at
    most 2^-prec of the rounded value, part by part.
    """
    with mp.workprec(prec + 10 + (5 * n + 5).bit_length()):
        two_pi, lg = 2 * mp.pi, mp.log(z)
        if w:
            lg += 2j * w * mp.pi
        terms = [mp.mpf(1)]
        for m in range(1, n):
            terms.append(terms[-1] * lg / m)
        power, rows = mp.mpf(1), []
        for i in range(1, n + 1):
            power *= two_pi
            rows.append([power * t for t in terms[:n + 1 - i]])
    with mp.workprec(prec):
        for i, row in enumerate(rows, 1):
            unit = mp.mpc((1, 1j, -1, -1j)[i % 4])
            rows[i - 1] = [mp.mpc(0)] * i + [unit * v for v in row]
    return rows


def _li_row(n, z, prec):
    """[Li_1(z), ..., Li_n(z)] for an mpc z with 0 < |z| <= 3/4, or real z
    in [-1, -3/4) or (3/4, 1), each within a relative 2^-(prec + 7) of its
    value (2^-(prec + 6) where ``_li_disk`` cuts a part of a complex z)
    before it is rounded once to the active precision: the row of
    ``_li_fixed`` so rounded.  This is the one source of a Li row."""
    re, im, E = _li_fixed(n, z, prec)
    return [_from_fixed(a, b, E) for a, b in zip(re, im)]


def _li_fixed(n, z, prec):
    """(re, im, E) with Li_j(z) = (re_j + i im_j) 2^-E, j = 1..n, each within
    a relative 2^-(prec + 7) (2^-(prec + 6) where ``_li_disk`` cuts a part
    of a complex z), for an mpc or a Python number z as in ``_li_row``:
    exact integers, before any rounding.  On the disk it is
    ``_li_disk``.  Elsewhere the disk's row at b = +-3/4, the sign of z, is
    stepped by ``_step_chain`` along the line from b to z, sized for
    bits = p + ceil(log2(8 (n + 2))), p = max(prec, the fraction bits of
    z), with margin min(3/4, |1 - z|), the line's distance to the punctures.

    Proof.  The disks of the chain are centred on the real line between b
    and z, so they avoid 0 and the cut [1, oo), where (1, Li_1, ..., Li_n)
    is analytic and solves the system that ``_step_row`` steps, and the
    chain ends on z, exact at 2^-F as F >= bits + 14 exceeds its fraction
    bits: row 0 of L(b) P_c is (1, Li_1(z), ..., Li_n(z)).  ``_step_chain``
    with V = 3 (``_chain_radius`` at b = +-3/4) puts each entry within
    3 (n + 1.03) 2^-(bits + 7) of it.  On the two intervals
    |Li_j(z)| >= 3/8: Li_j(z) >= z > 3/4 on (3/4, 1), and on [-1, -3/4)
    the series alternates with terms falling in modulus, so
    |Li_j(z)| >= |z| - |z|^2 / 2 >= 15/32.  The error is then a relative
    8 (n + 2) 2^-(bits + 7) <= 2^-(prec + 7).  Near 1 the chain takes
    about log(1 / (1 - z)) / log(5/3) disks, and ``_disk_chain``'s
    PathError stops it within about 2^-28 of 1.
    """
    if n == 0:
        return [], [], 0
    if _in_li_disk(z, prec):
        return _li_disk(n, z, prec)
    bits = max(prec, _dyadic(z)[2]) + (8 * n + 15).bit_length()
    chain = _step_chain(
        n, PathSpec(complex(math.copysign(0.75, z.real)), (LineTo(z),)),
        bits, float(min(0.75, abs(1 - z))))
    return *chain.row, chain.F


def _dyadic(v, keep=None):
    """[X, Y, s] with v = (X + i Y) 2^-s for integers X, Y and the least
    s >= 0, for an mpc or a Python number.  Given ``keep``, when both parts
    are nonzero each is first truncated toward 0 to a multiple of
    2^(e - keep), where 2^(e - 1) <= |larger part| < 2^e, and s need not
    then be the least.  Only bits below 2^(e - keep) go, so a larger part
    of at most ``keep`` significant bits is kept whole."""
    parts = _parts(v)
    if keep is not None and all(m for m, _ in parts):
        cut = max(e + abs(m).bit_length() for m, e in parts) - keep
        parts = [((abs(m) >> max(0, cut - e)) * (1 if m > 0 else -1),
                  max(e, cut)) for m, e in parts]
    (x, ex), (y, ey) = parts
    s = max(0, -ex, -ey)
    return [x << (ex + s), y << (ey + s), s]


def _parts(v):
    """The real and imaginary parts of v, an mpc or a Python number, as
    pairs (m, e) of integers, each part m 2^e."""
    if isinstance(v, mp.mpc):
        return [(-man if sign else man, exp) for sign, man, exp, _ in v._mpc_]
    v = complex(v)
    return [(m, 1 - d.bit_length()) for m, d in
            (v.real.as_integer_ratio(), v.imag.as_integer_ratio())]


def _in_li_disk(v, prec):
    """Whether z' = ``_dyadic``(v, prec + 32) = (X + i Y) 2^-s, the point
    that ``_li_disk`` sums at, has |z'| <= 3/4: 16 (X^2 + Y^2) <= 9 4^s,
    decided exactly.  9 4^s has 2 s + 4 bits, so unless the left side has
    as many the bit lengths decide, and 4^s, whose s grows as a tiny z
    shrinks, is formed only when it is about as wide as X^2 + Y^2.  A part
    m 2^e with e + bitlen(m) > 0 is at least 1, so such a v is outside at
    once, before X or Y, as wide as a huge v, is formed.  z' = v unless
    both parts are nonzero and one has bits below
    2^(e - prec - 32), 2^(e - 1) <= |larger part| < 2^e (``_li_disk``)."""
    if any(e + abs(m).bit_length() > 0 for m, e in _parts(v)):
        return False
    X, Y, s = _dyadic(v, prec + 32)
    q = 16 * (X * X + Y * Y)
    if q.bit_length() != 2 * s + 4:
        return q.bit_length() < 2 * s + 4
    return q <= 9 << 2 * s


def _li_disk(n, z, prec):
    """(re, im, E) for z != 0 with |z'| <= 3/4, z' = z unless a part is cut
    (below), as in ``_li_fixed``: the exact products z S_j, with
    S_j = sum_k z^(k-1) / k^j summed in fixed point.

    z^(k-1) is kept as the pair of integers t_k, scaled by 2^F: t_1 = 2^F and
    t_(k+1) = t_k Z, Z the parts of z floored to 2^-F, with each part shifted
    down by F.  The terms of S_j for all j come from t_k by n successive
    floor divisions by k.  ``_li_disk_size`` bounds r = |z| above by a
    dyadic rho < 1.  K terms leave a tail of at most
    r^K / (1 - r) <= rho^K / (1 - rho), so K is the least count that puts
    the latter below 2^-(prec + 10); K < 2.5 (prec + 12).

    Rounding bound.  Let u = 2^-F.  Each t_k is off from Z^(k-1) by less
    than sqrt(2) u / (1 - r), Z^(k-1) from z^(k-1) by less than
    sqrt(2) (k-1) r^(k-2) u, and the divisions add less than 2 sqrt(2) u per
    term.  Over K terms the error is below
    sqrt(2) u ((H_K + 1) / (1 - r) + 2 K) < 5 (K + 1) u / (1 - r), the
    factor 5 > 3 sqrt(2) covering |Z| > r to second order, and
    1 / (1 - r) <= 1 / (1 - rho), so
    F = prec + 10 + ceil(log2(5 (K + 1) / (1 - rho))) puts it below
    2^-(prec + 10).  F does not grow as z shrinks.

    Lower bound.  |Li_j(z)| >= r / 4, so |S_j| >= 1/4: Koebe's theorem gives
    |Li_1(z)| >= r / (1 + r)^2 >= r / 4 (-log(1 - z) is univalent on the
    unit disk), and for j >= 2 |Li_j(z)| >= r - r^2 / (4 (1 - r)) >= r / 4.
    So every S_j is within a relative 2^-(prec + 7), and so is z S_j, formed
    exactly, of Li_j(z).

    Parts of very different size.  So that no integer above outgrows the
    larger part of z, z is first replaced by z' = ``_dyadic(z, prec + 32)``:
    both parts truncated toward 0 to multiples of 2^(e - prec - 32), where
    2^(e - 1) <= |larger part| < 2^e.  Truncating toward 0 keeps
    |z'| <= |z|, and |z - z'| < 2^(e - prec - 31) <= 2^(-prec - 30) r.
    The disk test (``_in_li_disk``) reads z', so |z'| <= 3/4 and
    r < R = 3/4 (1 + 2^-(prec + 30)).  On the segment from z to z', inside
    |w| <= R, |Li_j'(w)| < 4.01: Li_1'(w) = 1 / (1 - w), and for j >= 2
    Li_j'(w) = Li_(j-1)(w) / w, of modulus at most -log(1 - |w|) / |w| < 2;
    and the lower bound above, at r < R, is 0.2499 r.  So the truncation
    moves Li_j by a relative at most 4.01 2^-(prec + 30) / 0.2499, below
    2^-(prec + 25).  A real z
    is untouched, and so is a z whose parts each have at most prec
    significant bits and lie within 2^32 of each other in modulus.  Only
    ``li_series`` passes a complex z, and its 2^-(prec - 1) holds with
    room: 2^-(prec + 7) + 2^-(prec + 25) < 2^-(prec + 6) before its
    rounding, and 2^-(prec + 6) + 2^-prec after it.
    """
    X, Y, s = _dyadic(z, prec + 32)
    terms, F = _li_disk_size(X * X + Y * Y, s, prec)
    Xf, Yf = (X << F) >> s, (Y << F) >> s
    t_re, t_im = 1 << F, 0
    s_re, s_im = [0] * (n + 1), [0] * (n + 1)
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
    """(K, F) of ``_li_disk`` for r = sqrt(q) 2^-s in (0, 3/4]: with
    t = prec + 10 and the bound rho = m 2^-P >= r, the least K with
    rho^K <= 2^-t (1 - rho), and F = t + f for the least f with
    2^f (1 - rho) >= 5 (K + 1), both decided exactly in integers.

    m is the least integer with m^2 >= q 2^(2P - 2s), one ``isqrt`` of that
    product's ceiling, so r <= rho < r + 2^-P.  P is 24 plus L, the leading
    zero bits of r: the largest L >= 0 with r < 2^-L, that is with
    q < 4^(s - L).  As r >= 2^-(L + 1), rho is within a relative 2^-23 of r.
    L is capped at t + 1: past the cap r < 2^-(t + 2), so rho < 2^-(t + 1)
    and K = 1, and the cap keeps every integer at O(t) bits however small z
    is.  rho <= 3/4 + 2^-P < 1.
    """
    t = prec + 10
    P = 24 + min(t + 1, s - (q.bit_length() + 1) // 2)
    e = 2 * (P - s)
    m = math.isqrt((q << e if e >= 0 else -(-q >> -e)) - 1) + 1
    K = _least_terms(m, 1 << P, t)
    f = (5 * K + 4).bit_length()
    while ((1 << P) - m) << f < 5 * (K + 1) << P:
        f += 1
    return K, t + f


# Each disk step covers at most this fraction of the distance from its centre
# to the nearer puncture; ``_step_chain``'s series tail bound relies on it.
_STEP_RATIO = 0.4
# Steps are planned a relative 2^-20 inside _STEP_RATIO and must pass
# a float64 test against _CHECK_RATIO that implies the exact ratio.
_PLAN_RATIO = _STEP_RATIO * (1 - 2 ** -20)
_CHECK_RATIO = _STEP_RATIO * (1 - 2 ** -40)
_GUARD_BITS = 8


def _least_terms(a, b, t):
    """Least K >= 1 with a^K 2^t b <= b^K (b - a), for integers 0 < a < b
    and t >= 0: the count at which the geometric tail x^K / (1 - x) of the
    ratio x = a / b falls to 2^-t.  A float estimate starts the search,
    which exact integer tests then step to the least K."""
    def below(K):
        return a ** K * b << t <= b ** K * (b - a)

    log_b = math.log2(b)
    K = max(1, math.ceil((t + log_b - math.log2(b - a))
                         / (log_b - math.log2(a))))
    while not below(K):
        K += 1
    while K > 1 and below(K - 1):
        K -= 1
    return K


def _series_terms(prec):
    """Least K with _STEP_RATIO^K / (1 - _STEP_RATIO) <= 2^-(prec + guard),
    ``_least_terms`` for the ratio 2/5: 5 2^(K + m) <= 3 5^K with
    m = prec + guard."""
    return _least_terms(2, 5, prec + _GUARD_BITS)


def _fraction_bits(prec, terms):
    """F = prec + ceil(log2(5 K + 6)) + 8 for K = ``terms``: the fixed-point
    scale that keeps K series terms and one product step within 2^-(prec + 8)
    (``_step_chain``)."""
    # (5 K + 5).bit_length() is ceil(log2(5 K + 6))
    return prec + (5 * terms + 5).bit_length() + _GUARD_BITS


def _disk_chain(path, margin):
    """The steps (c, z1) of the float64 disk chain that covers ``path``.

    Each step is planned in float64 from zf, the double nearest its centre
    c, the end of the step before.  Its length is
    ``_PLAN_RATIO`` * dist(zf, {0, 1}) (``_plan_step``): along an arc it
    turns zf about the centre while the sweep left is longer than that,
    then it runs straight for the segment's end, which it takes once it is
    that close.  z1 becomes the next centre.  A segment ends on the start
    of the next, the Python complex that ``PathSpec.segment_starts`` gives
    and ``PathSpec.validate`` checks.  An open path's final line ends
    exactly on its end point, a Python complex or an mpc (``_li_row`` ends
    its line on z itself), and its final arc on e', the double nearest
    ``_arc_end`` at 64 bits: |e' - e| < 2^-52 (|p| + r) for the arc's exact
    end e; ``_step_chain`` adds the step from e' to e.  The last
    segment of a closed path ends on the base point itself, which
    ``PathSpec.validate`` puts within 1e-9 of that segment's end: a line
    runs to it, and an arc turns its sweep and then runs straight to it, so
    the chain of a closed path is closed.  As a
    step is planned from its own start, its rounding scales with |z1|, not
    with the length of the segment.

    Proof that the chain is homotopic, relative to its end points, to the
    path.  The chain follows the polyline and arcs that ``validate``
    measured: each segment from its float64 start s, a line to its end
    point, an arc of radius r = |s - p| about p to its exact end
    e = p + (s - p) exp(i sweep).  The next segment starts at e', the
    double that ``segment_starts`` forms from s, cos(sweep) and
    sin(sweep); the difference s - p, the two libm values, the complex
    product and the sum with p each add at most a few units in the last
    place of |p| + r, so |e' - e| < 2^-50 (|p| + r), and every arc with
    |p| + r >= 2^48 margin is a PathError: the gap [e, e'] is shorter than
    margin / 4.  The chain stops turning at a point t of the arc, at least
    margin / 2 from both punctures (below), where the rest of the arc is
    shorter than a planned step, 0.4 d with d = dist(t, {0, 1}), and it
    runs straight from t to e'.  The rest of the arc, the gap and that run
    all lie within 0.4 d + margin / 4 < d of t, in the disk about t of
    radius d, which is convex and misses the punctures, so the run is
    homotopic in it, relative to its ends, to the rest of the arc followed
    by [e, e'].  So the chain is homotopic, relative to its end points, to
    the exact path with each arc joined to the next segment by its gap,
    and its end points are the path's own: the base point, and the last
    segment's end (the base point again for a closed path, e' for a final
    arc).  ``_step_chain``'s bounds read only the chain's end points and
    the class of the path, so they stand as proved.

    Every step must pass, in float64,
    |z1 - zf| + 2^-51 (|z1| + |zf|) <= ``_CHECK_RATIO`` dist(zf, {0, 1}).
    Each abs, difference and product there is within a relative 2^-51 of
    its value, and z1 and c within a relative 2^-53 of their doubles, which
    the 2^-51 terms cover; so every step has |z1 - c| <= 0.4 dist(c, {0, 1}),
    which ``_step_row`` checks again, exactly.  The planned step, within a
    relative 2^-20 of the bound, fails the test only when dist(zf, {0, 1})
    is below about 2^-28 |zf|, within a few 1e-9 of 1 (a margin below 1e-8
    allows that).  Such a step, a centre closer than margin / 2 to a
    puncture, an arc too wide for the margin (above), or a chain of more
    than ``_DISK_CAP`` disks raises PathError before any step is taken.
    """
    steps = []
    z = zf = path.base_point
    starts, last = path.segment_starts()
    if path.closed:
        last = path.base_point
    elif isinstance(path.segments[-1], Arc):
        last = complex(_arc_end(path, 64))
    for seg, end in zip(path.segments, starts[1:] + [last]):
        p, left = (None, 0.0) if isinstance(seg, LineTo) else seg
        if p is not None and abs(p) + abs(z - p) >= 2 ** 48 * margin:
            raise PathError(f"an arc of radius {abs(z - p):.3e} about {p} "
                            f"is too wide for margin {margin} in float64")
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


def _arc_end(path, prec):
    """The exact end p + (s - p) exp(i sweep) of ``path``'s final arc, of
    centre p, sweep and start s, formed by mpmath at ``prec`` bits: within
    2^-(prec - 2) (|p| + r) of its value, r = |s - p|."""
    p, sweep = path.segments[-1]
    with mp.workprec(prec):
        return p + (mp.mpc(path.segment_starts()[0][-1]) - p) * mp.expj(sweep)


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
    and n >= 1; the growth bound of a product of D transitions
    (``_step_chain``).  The sum is formed in integers, scaled by
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
    2^(53 - F) in modulus.  Each part m 2^e takes one shift of m by F + e,
    a right shift flooring."""
    return [m << F + e if F + e >= 0 else m >> -F - e for m, e in _parts(v)]


def _from_fixed(re, im, F):
    """The mpc re 2^-F + i im 2^-F, rounded to the active precision."""
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -F, prec, "n"),
                        from_man_exp(im, -F, prec, "n")))


_Chain = namedtuple("_Chain", "F start row winding end radius")


def _chain_radius(n, b, bits):
    """(n + 1) V 2^-(bits + 6), V = max(1, |b| / (1 - |b|)), as an exact
    Fraction for a real double b with |b| < 1: the radius of the row that
    ``_step_chain`` steps from b, sized for ``bits``.  V bounds every
    |Li_j(b)| <= Li_1(|b|) = -log(1 - |b|) <= |b| / (1 - |b|), and for
    |b| = a / 2^s it is max(a, 2^s - a) / (2^s - a), one integer quotient."""
    a, den = abs(b).as_integer_ratio()
    return Fraction((n + 1) * max(a, den - a) << max(-bits - 6, 0),
                    den - a << max(bits + 6, 0))


def _step_chain(n, path, bits, margin):
    """The ``_Chain`` of ``path``: the row (1, Li_1(b), ..., Li_n(b)) at its
    real base point b stepped across its disk chain, sized for p = ``bits``,
    and its radius, whose one proof ``transport``, ``monodromy``,
    ``_li_fixed`` and ``hodge.flatness_residual`` cite.

    Sizing.  The row (1, R) is stepped by ``_step_row`` across the D disks
    of ``_disk_chain`` (and the arc end's, below) with G guard bits, K terms
    a disk and F fraction bits: G = G_0 + max(0, bitlen(n - 1) - 4 - p),
    G_0 = ``_product_guard``(n, D); K = ``_series_terms``(p + G), the least
    count with 0.4^K / 0.6 <= 2^-(p + G + 8); and
    F = ``_fraction_bits``(p + G, K) = p + G + ceil(log2(5 K + 6)) + 8, or
    more (below).  For p >= -2 (``monodromy``'s floor; the other callers
    size for their working precision or more) K >= 6, so F >= p + G + 14.
    R starts at v = (Li_1(b), ..., Li_n(b)), b a real double: ``_li_fixed``'s
    row for F bits, within a relative 2^-(F + 7) (for b > 3/4 a chain from
    3/4, nested in this one), rounded once to F significant bits and floored
    to 2^-F by libmp, so within 3 V 2^-F of v for any V >= 1 that bounds
    every |Li_j(b)|.

    The floored chain.  F is raised, if need be, until b converts exactly
    and 3.4 2^-F < 0.4 2^-20 d for the nearest approach d, the least
    float64 dist(c, {0, 1}) over the planned step centres c (margin / 2 for
    none).  That is 17 2^19 < d 2^F: for d = m 2^e with 1/2 <= m < 1
    (``math.frexp``), d 2^(24 - e) = m 2^24, which exceeds 17 2^19 just
    when m > 17/32, and d 2^(23 - e) < 2^23, so the least such F is 24 - e
    when m > 17/32, else 25 - e.  A planned step from c keeps 0.4 2^-20 d_c
    in reserve (``_PLAN_RATIO``), d_c = dist(c, {0, 1}) >= d (1 - 2^-51).
    Flooring moves a point by less than sqrt(2) 2^-F, so it lengthens the
    step and shortens 0.4 d_c by less than 2.4 sqrt(2) 2^-F
    < 3.4 (1 - 2^-51) 2^-F in all: every floored step passes the exact test
    |z1' - c'| <= 0.4 dist(c', {0, 1}) that ``_step_row`` makes (a failure
    is an IntegrationError, never a wrong row), and it lies with its
    planned step within 0.4 d_c + 2 sqrt(2) 2^-F < d_c of c, so the floored
    chain is homotopic to the planned one, relative to its ends where they
    convert exactly: b, and a final line's end unless a nonzero part is
    below 2^(53 - F).  As d >= margin / 2, the margin alone would allow
    2^-F <= 2^-25 margin, which meets the test, so F never exceeds that.

    The arc end.  An open path whose last segment is an arc of centre q and
    radius r plans its chain to e', within 2^-52 (|q| + r) < margin / 16 of
    the arc's exact end e (``_disk_chain``), as |q| + r < 2^48 margin.  One
    more step runs to ``_arc_end`` at F + 57 + x bits, margin = m' 2^x,
    within 2^-(F + 7) of e, so the floored last point z_D is within
    1.44 2^-F of e.  As the last planned step has ratio at most 0.4,
    d' = dist(e', {0, 1}) >= 0.6 d >= 0.3 margin, and the floored end step
    has ratio below (margin / 16 + 4 2^-F) / (d' - 2 2^-F) < 0.22; it and
    [z_D, e] lie within 0.4 d_t + margin / 8 < d_t of the point t of
    ``_disk_chain``'s proof, in its disk, so the chain stays homotopic to
    the path.  D counts the end step, and F >= p + G + 12 - e, so
    1.44 2^-F <= 1.44 2^-(p + G + 11) d < 1.44 2^-(p + G + 10) d'.

    The winding.  m, the floored chain's winding about 0, is the signed
    number of its steps that cross (-oo, 0), counted on the integers of
    its points with no float.  A point with Im = 0 counts as upper, as
    Arg in (-pi, pi] reads it.  A step from (x0, y0) to (x1, y1) that
    changes side meets the real axis at x = (x1 y0 - x0 y1) / (y0 - y1), so
    left of 0 just when (x1 y0 - x0 y1) (y0 - y1) < 0; upper to lower
    counts 1, lower to upper -1.  Every floored step has
    |z1 - c| <= 0.4 |c| (``_step_row``'s exact test), so arg(z / c) moves
    continuously within (-0.42, 0.42) along it, and the steps' principal
    Im log(z1 / c) sum to a continuous argument of the polygon from
    Arg b = 0.  That argument minus Arg z jumps by 2 pi exactly where the
    polygon crosses (-oo, 0) from upper to lower, and by -2 pi the other
    way, so the sum of the steps' log(z1 / c) is Log(z_D / b) + 2 pi i m.

    Growth of the product.  Write d = dist(c, {0, 1}) and a = -log 0.6,
    below 0.511.  Majorants below are polynomials in S, the (n+1) x (n+1)
    upper shift, with coefficients >= 0, compared coefficient by
    coefficient; they commute.  As |log(1 + w/c)| and |-log(1 - w/d)| are
    at most a, every transition T_k is bounded entrywise by A = exp(a S)
    (``_step_row``'s majorants), and a product of k of them by exp(a k S),
    with entries below (0.52 k)^m / m!.  Let each step return
    R T~_k + rho_k, with |T~_k - T_k| <= e U entrywise, U = S + ... + S^n,
    and every |rho_k| <= r.  The error of R after step k is the old error
    times T~_k, plus R_(k-1) (T~_k - T_k), plus rho_k, with R_(k-1) the
    exact row, bounded by e_0 A^(k-1), and |rho_k| <= r e_0 U.  Carried to
    the end by T~_(k+1) ... T~_D, each bounded by B = A + e U, the error is
    at most (e + r) sum_k e_0 U A^(k-1) B^(D-k).  As A >= I, B <= A (I + e U),
    and for N < D, (I + e U)^N <= exp(N e U) <= I + delta U with eps = D e
    and delta = eps (1 + eps)^(n-1): the coefficient of S^m in
    exp(eps U) - I is sum_i eps^i C(m-1, i-1) / i! <= eps (1 + eps)^(m-1).
    Entry j of e_0 U A^(D-1) (I + delta U) is at most
    (1 + (j - 1) delta) sum_{l < j} (a (D - 1))^l / l!, so entry (0, j)
    ends within (e + r) E (1 + (n - 1) delta) of e_0 P_c, P_c the exact
    product, with E = D sum_{l < n} (0.52 D)^l / l! <= 2^G_0.

    Guard bits.  G_0 grows like log2 D + n log2(0.52 D), and
    p' = p + G - G_0 >= bitlen(n - 1) - 4.  By ``_step_row``,
    e < 2^-(p + G + 8) + 4u and r < 3.8 K u for u = 2^-F, and
    (5 K + 6) u <= 2^-(p + G + 8), so e + r < 1.76 2^-(p + G + 8).  Also
    eps = D e <= 2^G_0 e < (15/11) 2^-(p' + 8), and 2^(p' + 8) > 16 (n - 1),
    so (n - 1) eps < 0.086, (1 + eps)^(n-1) < 1.09, (n - 1) delta < 0.094,
    and e_0 stepped is within 1.76 1.094 2^-(p + 8) < 2^-(p + 7) of e_0 P_c
    in every entry, to every order in e.

    Row accuracy.  A start row bounded by V in every entry, in place of
    e_0, multiplies that error by at most n V (entry j of e_0 (I + U) U is
    j), and its second-order factor by no more; the start's own error
    carried by P_c - I adds at most 3 V 2^-F 1.7 2^G < 0.04 V 2^-(p + 7).
    So the stepped row u has u - start within (n + 1) V 2^-(p + 7) of
    v (P_c - I), and u within (n + 1.03) V 2^-(p + 7) of (1, v) P_c, row 0
    of L(z_D) for L(b) continued along the chain.  At an arc end, each
    entry of (1, v) P_c is at most V (1 + 0.52 E) <= 1.52 V 2^G, and so,
    within a factor 1.01, on [z_D, e], which stays 0.78 d' from {0, 1};
    entry j of row 0 has derivative L_(0, j-1) / z (1 / (1 - z) for j = 1),
    so it moves by at most 1.44 2^-F 1.97 V 2^G / d' < V 2^-(p + 8) from
    z_D to e, and u is within (n + 1.53) V 2^-(p + 7) of row 0 of L(e).
    Each bound lies below (2 n + 2) V 2^-(p + 7), the chain's radius with
    V = max(1, |b| / (1 - |b|)) (``_chain_radius``).

    Slack.  The growth bound is loose (ROADMAP item 5): row 0 of
    ``monodromy``'s matrix along loop0 from b = 1/2 at p*, its twist formed
    at F + 400 bits, lies this far inside rho(p*) / 7 of the exact matrix
    of ``tests/oracles`` (loop1 within 0.6 bit):

        n      4      9     20     30     64      p*  1, 15, 59, 106, 296
        slack  17.5   24.9  28.0   28.8   29.5 bits

    Each count on the certificate's path, cut on its module global, keeps
    the exact matrices of loop0 / loop1 at cap 4096 until the cut below,
    from which a certificate rejects it (ReconstructionError), never
    returning a wrong matrix; ``_certified_bits`` less one bit is rejected
    at every n:

        n                               4        9        20
        ``_series_terms`` less c        16 / 14  24 / 21  28 / 25 terms
        ``_chain_radius`` over 2^c      19 / 19  27 / 27  28 / 28 bits
        ``_product_guard`` less c       21 / 18  30 / 27  28 / 28 bits
        ``_fraction_bits`` less c       -        -        29 / 28 bits

    At n = 4 and 9 no cut of F is rejected: F, 29 and 50 bits there, falls
    to the floored chain's floor, 26 bits on these loops, which certifies.
    A cut of G to p + G + 8 < 0 (23 at n = 4) leaves ``_series_terms`` no
    target: a ValueError before any step.

    The chain holds F; start, the floored start row, and row, the stepped
    row, each a pair (re, im) of lists of Python integers scaled by 2^F;
    winding, the integer m; end, z_D in fixed point; and radius,
    ``_chain_radius``(n, b, p).
    """
    if not margin > 0:
        raise DomainError("margin must be positive")
    path.validate(margin)
    steps = _disk_chain(path, margin)
    arc_end = not path.closed and isinstance(path.segments[-1], Arc)
    # the second-order term of the growth bound needs
    # bits + G >= bitlen(n - 1) - 4 + G_0
    guard = _product_guard(n, len(steps) + arc_end) \
        + max(0, (n - 1).bit_length() - 4 - bits)
    terms = _series_terms(bits + guard)
    base = path.base_point
    ends = [base] + [z1 for _, z1 in steps]
    m, e = math.frexp(min((min(abs(c), abs(1 - c)) for c in ends[:-1]),
                          default=margin / 2))
    F = max(_fraction_bits(bits + guard, terms), _dyadic(base)[2],
            24 - e + (m <= 17 / 32), bits + guard + 12 - e if arc_end else 0)
    if arc_end:
        ends.append(_arc_end(path, F + 57 + math.frexp(margin)[1]))
    points = [_to_fixed(z, F) for z in ends]
    *parts, E = _li_fixed(n, base, F)
    row = start = [[to_fixed(from_man_exp(v, -E, F, "n"), F) for v in part]
                   for part in parts]
    for c, z1 in zip(points, points[1:]):
        row = _step_row(*row, c, z1, terms, F)
    winding = sum((y1 < 0) - (y0 < 0)
                  for (x0, y0), (x1, y1) in zip(points, points[1:])
                  if (x1 * y0 - x0 * y1) * (y0 - y1) < 0)
    return _Chain(F, start, row, winding, points[-1],
                  _chain_radius(n, base.real, bits))


def _real_base(path):
    """The base point b of ``path`` as a float, where ``transport`` and
    ``monodromy`` start from the principal L(b); DomainError unless it is
    real and in (0, 1)."""
    base = path.base_point
    if base.imag or not 0 < base.real < 1:
        raise DomainError("the path must be based at real z in (0, 1)")
    return base.real


def transport(n, path, prec=DEFAULT_PREC):
    """The principal solution L(b) at the base point b of ``path``, real in
    (0, 1) (``_real_base``), continued along the path.

    The path is covered by a chain of D disks (``_disk_chain``) with
    |z1 - c| <= 0.4 * dist(c, {0, 1}) for every step from c to z1, from b to
    its last point z_D.  The transition T(c -> z1), L(z1) = L(c) T, is upper
    unitriangular, and its rows i >= 1 are those of exp(l N), N the upper
    shift and l = log(1 + w/c), w = z1 - c, the principal logarithm since
    |w/c| <= 0.4.  So the product P = T_1 ... T_D is exp(Lambda N) below
    row 0, with Lambda = sum l_k, and below row 0 the continuation L(b) P
    is L(b)'s closed form with log b + Lambda in place of log b: row i
    holds (2 pi i)^i (log b + Lambda)^(j-i) / (j-i)! in column j >= i
    (``_log_rows``), as E(x) E(y) = E(x + y) for ``monodromy``'s E.  Row 0
    is (1, Li_1(b), ..., Li_n(b)) P, the solution row stepped across the
    chain by ``_step_chain`` from ``_li_fixed``'s exact row at b, sized for
    p = prec + bitlen(n + 2) bits, about n K complex products of Python
    integers a disk.  No matrix product is formed.

    Lambda.  As 1 + w/c = z1/c, exp(Lambda) = z_D / b, so, as b > 0,
    log b + Lambda = Log z_D + 2 pi i m for the integer m that
    ``_step_chain`` counts exactly from the floored chain's crossings of
    (-oo, 0) (``_Chain.winding``), with Arg in (-pi, pi] as in the Log z_D
    that ``_log_rows`` takes; on the cut, Im z_D = 0 and Arg z_D = pi.  (A
    closed chain ends on b, so there Lambda = 2 pi i m: ``monodromy``.)

    Whole-transport bound.  Let e be the path's exact end, Lambda the
    continued log(e / b), and W_i = sum_k |L(b)[i][k]| the weight of row i
    of L(b).  The chain is homotopic to the path relative to its ends
    (``_step_chain``).  Its last point z_D is e for a closed path and for a
    final line whose end converts exactly at 2^-F, as a double does unless
    a nonzero part is below 2^(53 - F) (else read z_D for e below), and
    within 1.44 2^-F of e after a final arc, where Lambda moves by less
    than 2^-(p + 9) from z_D to e.
    - Row 0.  Every |Li_j(b)| <= Li_1(b), so V = max(1, Li_1(b)) <= W_0
      bounds the start row, and ``_step_chain`` puts the stepped row
      within (n + 1.53) V 2^-(p + 7) < V 2^-(prec + 7) of row 0 of L(e),
      as 2^bitlen(n + 2) >= n + 3.
    - Rows 1..n.  ``_log_rows`` forms entry (i, j), k = j - i, within a
      relative 2^-(prec + 9) of (2 pi i)^i (log b + Lambda)^k / k!, whose
      modulus is at most e^|Lambda| W_i: by the binomial theorem
      (log b + Lambda)^k / k! is the sum over a + c = k of
      (log b)^a / a! Lambda^c / c!, at most
      e^|Lambda| sum_(a <= n - i) |log b|^a / a!, and W_i is that sum
      times (2 pi)^i.  Its derivative is the entry to its left over z, so
      from z_D to e it moves by less than 2^-(p + 8) e^|Lambda| W_i, as
      row 0 does in ``_step_chain``.
    - Each entry is rounded once to ``prec`` bits, which moves each part by
      at most 2^-prec of its rounded value, so the entry v by at most
      2^-prec |v|.
    So, as e^|Lambda| >= 1, every entry v of row i lies within
    2^-prec |v| + 2^-(prec + 6) e^|Lambda| W_i
    of entry (i, j) of L(e).  The accuracy follows ``prec``.  Entries
    below the diagonal are exact zeros.  That holds for the computed
    values; the CLI prints each part with D = floor((prec - 2) log10 2)
    significant digits (``report._digits_for``), which moves it by up to
    5 10^-D |v| more (2^-120.6 |v| at 128 bits), so each printed part lies
    within (2^-prec + 5 10^-D) |v| + 2^-(prec + 6) e^|Lambda| W_i of that
    part of entry (i, j) of L(e).

    Every step that does not end a segment advances by almost 0.4 times the
    distance to the punctures, so the step count is bounded by the
    arclength over 0.2 times the fixed ``DEFAULT_MARGIN`` of 1e-3, and by
    ``_DISK_CAP``.
    """
    if n < 1:
        raise DomainError("transport needs n >= 1")
    _real_base(path)
    chain = _step_chain(n, path, prec + (n + 2).bit_length(), DEFAULT_MARGIN)
    end = mp.make_mpc(tuple(from_man_exp(v, -chain.F) for v in chain.end))
    with mp.workprec(prec):
        rows = [[mp.mpc(1)] + [_from_fixed(a, b, chain.F)
                               for a, b in zip(*chain.row)]]
        rows += _log_rows(n, end, chain.winding, prec)
    return PeriodMatrix(n, tuple(tuple(row) for row in rows),
                        f"principal . {path.describe()}")


def _certified_bits(n, base):
    """p*, the least integer p >= -2 with rho(p) / 7 < 1 / (2 n!), half the
    spacing of the lattice (1/n!) Z that holds every row-0 entry, where
    rho(p) = ``_chain_radius``(n, b, p) / b = rho(0) 2^-p for the double
    b = ``base`` in (0, 1).  With rho(0) / 7 = c / (8 n! d) on integers,
    that is the least q = p + 2 >= 0 with d 2^q > c: no lesser q passes
    when d 2^q has fewer bits than c, and every q passes once it has more,
    so one comparison at the bit lengths' difference decides it."""
    radius, (a, den) = _chain_radius(n, base, 0), base.as_integer_ratio()
    c = 8 * math.factorial(n) * radius.numerator * den
    d = 7 * a * radius.denominator
    q = max(0, c.bit_length() - d.bit_length())
    return q - 2 + ((d << q) <= c)


def monodromy(n, loop, tol=None, prec=DEFAULT_PREC):
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
    The chain closes on b itself, so Log(z_end / z_base) = 0 and m is
    ``_step_chain``'s exact count of the chain's crossings of (-oo, 0)
    (``_Chain.winding``), with no logarithm.  So only row 0 is computed:
    (1, v) stepped across the chain by ``_step_chain``, and u - v, an exact
    difference of integers, times E(-l) D^-1 on integers at 2^-F (row 0 in
    integers, below).

    Denominators.  The loop is a word in the loops about 0 and 1 from b,
    whose matrices are M_0 (m = 1, row 0 = e_0) and M_1 = I - E_01, with
    inverses M_0^-1 (m = -1) and I + E_01.  Entry (i, j) of each lies in
    (1/(j-i)!) Z, and a product of upper triangular matrices keeps that, as
    1 / ((k-i)! (j-k)!) = C(j-i, k-i) / (j-i)! and binomial coefficients are
    integers.  So entry (0, j) of M lies in the lattice (1/j!) Z, whose
    points lie 1/j! apart.  A computed entry v within r < 1/(2 j!) of it
    has it as the one lattice point within r of Re v: k/j! with
    k = round(j! Re v) (``rational_reconstruct``).  That Re v lies within r
    of k/j! and Im v within r of 0 are consistency checks; an entry that
    fails either raises ReconstructionError, the sign of a fault or of an
    inadmissible path.

    Accuracy.  The chain is sized for p bits (below).  By ``_step_chain``,
    u - v is within (n + 1) V 2^-(p + 7) of v (P_c - I) for the exact
    product P_c of the chain, with V = max(1, b / (1 - b)), which bounds
    every |Li_j(b)|.  Its image under E(-l) D^-1 moves entry j by at most
    that times sum_k (2 pi)^-k e^|l| < 0.19 e^|l|, that is by less than
    0.095 rho(p), and the twist's rounding (below) by less than
    rho(p) / 32, where rho(p) = (n + 1) V e^|l| 2^-(p + 6), the chain's
    radius over b, as e^|l| = 1 / b.  As 0.095 + 1/32 < 1/7, row 0 of M,
    certified at 2^-F, is within rho(p) / 7 of row 0 of
    L(b) P_c L(b)^-1, and rho(p) / 7 is the radius that both tests below
    read.

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
    h e^|l| (2 B + 3.1).  By ``_step_chain``'s growth bound,
    |u_k| <= 1.52 V 2^G, so B <= V (1 + 1.52 2^G + (n + 1) 2^-(p + 7)), and
    F >= p + G + 14, so the rounding stays below
    (n + 1) V e^|l| 2^-(p + 11) = rho(p) / 32.  The imaginary part is
    tested against rho(p) / 7 by one integer comparison, and the real part is
    handed to ``rational_reconstruct`` as the exact dyadic Fraction it is.

    The chain.  F is at least the bit count of b's binary fraction, so b
    stays exact, and the floored chain, which closes on b
    (``_disk_chain``), is closed and homotopic to the loop in C \\ {0, 1}
    (``_step_chain``).  Then P_c = L(b)^-1 M L(b), and its winding m is the
    loop's.

    Precision.  ``_certified_bits`` finds p*, the least p >= -2 with
    rho(p) / 7 < 1/(2 n!), which is at most 1/(2 j!) for every column j,
    from ``_chain_radius``, the one place the radius is formed;
    ``_step_chain``'s F >= p + G + 14 needs p >= -2.  ``prec`` is the most
    bits the certificate may use: when prec < p*, DomainError, naming p*
    and rho(prec) / 7, is raised before any transport; else the chain is
    sized for p*, and its radius over 7 b is the one both tests read.  At
    b = 1/2, p* is about log2((n + 1)!) - 6.8: 1 bit at n = 4, 121 at
    n = 33, 296 at n = 64.  The closed chain calls no mpmath and reads no
    ``prec``, so every cap prec >= p* runs the same computation and gives
    the same matrix.  No tolerance enters: ``tol`` is accepted, for callers
    that still pass it, and read nowhere; it goes once the benchmark's
    workloads stop passing it (ROADMAP.md, item 1).
    """
    if n < 1:
        raise DomainError("monodromy needs n >= 1")
    if not loop.closed:
        raise DomainError("monodromy needs a closed loop")
    base = _real_base(loop)
    a, den = base.as_integer_ratio()
    need, over_7b = _certified_bits(n, base), Fraction(den, 7 * a)
    if prec < need:
        radius = _chain_radius(n, base, prec) * over_7b
        raise DomainError(
            f"{prec} bits prove row 0 only within {float(radius):.3g}, not "
            f"below 1/(2 * {n}!), half the spacing of its lattice; this "
            f"certificate needs {need} bits")
    chain = _step_chain(n, loop, need, DEFAULT_MARGIN)
    radius = chain.radius * over_7b
    F, m = chain.F, chain.winding
    d_re, d_im = ([u - v for u, v in zip(*parts)]
                  for parts in zip(chain.row, chain.start))
    # row 0 = (u - v) E(-log b) D^-1 at 2^-F: e_k = d_k / (2 pi)^k, then
    # entry j = (-i)^j sum_k e_k x^(j-k) / (j-k)!, x = -log(b) / (2 pi)
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
