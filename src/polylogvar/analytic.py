"""High-precision polylogarithms, fundamental solution matrices, and their
parallel transport along paths in C \\ {0, 1}.

The fundamental solution at weight n is the (n+1) x (n+1) upper-triangular
matrix with first row (1, Li_1(z), ..., Li_n(z)) and rows i >= 1 given by
(2*pi*i)^i log(z)^(j-i)/(j-i)!.  It solves the linear system
dL = L * A(z) dz, where A(z) has 1/(1-z) in slot (0,1) and 1/z on the rest
of the superdiagonal: a nilpotent Fuchsian system with poles only at 0, 1
and infinity.  Transport continues it along a path by a chain of disks, each
at most 0.4 times as wide as the distance to the punctures, with one
unitriangular transition matrix per disk whose entries are closed-form
logarithms or Taylor series with a majorant tail bound set by the working
precision (van der Hoeven 1999; Mezzarobba 2016).  It multiplies the start
matrix once by the product of the transitions, of which only the first row
and the sum of the logarithms change from disk to disk.  The series, that
row and the principal first row of Li values run on Python integers in
fixed point, with guard bits sized from the term count and the number of
disks so that their rounding stays below the truncation error.

Monodromy matrices come out of transport around a closed loop followed by
exact rational reconstruction of every entry; the normalization by powers of
2*pi*i is what makes those entries rational.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .errors import (DomainError, IntegrationError, PathError,
                     ReconstructionError)
from .exact import RationalMatrix, rational_reconstruct
from .paths import DEFAULT_MARGIN, LineTo

DEFAULT_PREC = 128
DEFAULT_TOL = 1e-12

_SERIES_CAP = 2_000_000

@dataclass(frozen=True)
class PeriodMatrix:
    """Fundamental solution matrix on some branch.

    ``entries`` is an (n+1) x (n+1) grid of mpmath complex numbers;
    ``branch_tag`` records the path from the canonical base point that was
    used to reach this branch.
    """

    n: int
    entries: tuple
    branch_tag: str = "principal"

    def __post_init__(self):
        if len(self.entries) != self.n + 1 or any(
                len(row) != self.n + 1 for row in self.entries):
            raise ValueError("entries must form an (n+1) x (n+1) grid")
        for row in self.entries:
            for v in row:
                if not mp.isfinite(v):
                    raise ValueError("period matrix entries must be finite")

    def entry(self, i, j):
        return self.entries[i][j]

    def rows(self):
        return [list(row) for row in self.entries]

    def validate_invariants(self):
        """Column 0 is e_0, row n is (0,...,0,(2 pi i)^n), upper triangular."""
        n = self.n
        two_pi_i_n = (2 * mp.pi * mp.mpc(0, 1)) ** n
        ok = self.entries[0][0] == 1
        ok = ok and all(self.entries[i][0] == 0 for i in range(1, n + 1))
        ok = ok and all(self.entries[n][j] == 0 for j in range(n))
        ok = ok and mp.almosteq(self.entries[n][n], two_pi_i_n)
        ok = ok and all(self.entries[i][j] == 0
                        for i in range(n + 1) for j in range(i))
        return ok


def li_series(n, z, prec=DEFAULT_PREC):
    """Li_n(z) for |z| <= 0.75 or real z in [-1, -0.75], to ``prec`` bits.

    On the disk |z| <= 0.75 it is the last entry of ``_li_row``, the
    defining power series summed in fixed point.  On [-1, -0.75) it is entry
    n of row 0 of L(-1) T(-1 -> z), one ``_transition`` disk around -1: the
    step w = z + 1 lies in [0, 0.25], within 0.4 dist(-1, {0, 1}), and every
    logarithm in it is real.  The start row is Li_j(-1) = -eta(j) from
    mpmath at the disk's F bits.  Either way the value is within a relative
    2^-(prec + 7) of Li_n(z) before the final rounding to ``prec`` bits (see
    ``_li_row`` and ``_li_from_minus_one``), so within 2^-(prec - 1) after
    it.  z = 0 gives an exact 0.  Anywhere else, callers must use transport.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    with mp.workprec(prec):
        zc = mp.mpc(mp.mpmathify(z))
        if not zc:
            return mp.mpc(0)
        if abs(zc) <= 0.75:
            return _li_row(n, zc, prec)[-1]
        if zc.imag == 0 and -1 <= zc.real < 0:
            return _li_from_minus_one(n, zc, prec)
        raise DomainError("li_series requires |z| <= 0.75 or real z in "
                          "[-1, -0.75]; use transport elsewhere")


def _li_from_minus_one(n, z, prec):
    """Li_n(z) for real z in [-1, -0.75), as entry n of row 0 of
    L(-1) T(-1 -> z): top[n] + sum_{i=1..n} Li_i(-1) tau[n - i], with
    ``_transition``'s row 0 ``top`` and logarithm powers ``tau``.

    Bound.  With |w| <= 0.25 and d = 1 the majorant tail of ``transport`` is
    at most 0.25^K / 0.75 <= 0.4^K / 0.6, so K = ``_series_terms(prec + 2)``
    puts it below 2^-(prec + 10).  Let u = 2^-F.  top[n] is off by less than
    5 K u + 2u more, tau[m] by less than 6u (see ``transport``), each
    Li_i(-1), of modulus below 1, by less than 2u after flooring, and the
    sum is floored once; as sum_m |log(1 - w)|^m / m! < 1.4, the rounding is
    below (5 K + 6 n + 6) u <= 2^-(prec + 10) for
    F = ``_fraction_bits(prec + 2, K + 2 n)``.  The series being alternating
    with terms falling in modulus, |Li_n(z)| >= |z| - |z|^2 / 2^n >= 3/8, so
    the error of 2^-(prec + 9) is a relative 2^-(prec + 7).
    """
    terms = _series_terms(prec + 2)
    F = _fraction_bits(prec + 2, terms + 2 * n)
    with mp.workprec(F):
        (top, _), (tau, _) = _transition(n, mp.mpc(-1), z, terms, F)
        acc = sum(to_fixed((-mp.altzeta(i))._mpf_, F) * tau[n - i]
                  for i in range(1, n + 1))
    return _from_fixed(top[n] + (acc >> F), 0, F)


def principal_lambda(n, z, prec=DEFAULT_PREC):
    """Fundamental solution on the principal branch, at real z in (0, 1).

    Row 0 holds (1, Li_1(z), ..., Li_n(z)); row i >= 1 holds
    (2 pi i)^i log(z)^(j-i) / (j-i)! with the real principal logarithm.
    Row 0 is summed by ``_li_row`` to a relative 2^-(prec + 7) before the
    final rounding.  Every entry is rounded once, to ``prec`` bits, so each
    is within a relative 2^-(prec - 1).

    Bound for rows i >= 1.  The real magnitude (2 pi)^i lg^m / m!, m = j - i,
    is formed at F bits, u = 2^-F, as P_i T_m with P_i = P_(i-1) (2 pi) and
    T_m = T_(m-1) lg / m, then multiplied exactly by the unit i^i.  Take
    2 pi and lg = log(z) each within a relative 2u and every product or
    quotient within u: P_i carries at most 3 i such factors (1 + u), T_m at
    most 4 m and the product one more, 4 n + 1 in all as i + m <= n, so the
    magnitude is within a relative 1.01 (4 n + 1) u < (5 n + 6) u.
    F = prec + 10 + bitlength(5 n + 5) puts that below 2^-(prec + 10), and
    the rounding to ``prec`` bits adds at most 2^-prec.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    with mp.workprec(prec):
        zm = mp.mpc(mp.mpmathify(z))
        if zm.imag != 0:
            raise DomainError("principal_lambda needs real z in (0, 1)")
        zr = zm.real
        if not 0 < zr < 1:
            raise DomainError("principal_lambda needs real z in (0, 1)")
        grid = [[mp.mpc(0)] * (n + 1) for _ in range(n + 1)]
        grid[0] = [mp.mpc(1)] + _li_row(n, zm, prec)
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
            grid[i][i:] = [unit * v for v in row]
        return PeriodMatrix(n, tuple(tuple(row) for row in grid), "principal")


def _li_row(n, z, prec):
    """[Li_1(z), ..., Li_n(z)] for an mpc z with 0 < |z| < 1 that lies in
    (0, 1) or has |z| <= 0.75, as z S_j with S_j = sum_k z^(k-1) / k^j
    summed in fixed point.

    z^(k-1) is kept as the pair of integers t_k, scaled by 2^F: t_1 = 2^F and
    t_(k+1) = t_k Z, Z the parts of z floored to 2^-F, with each part shifted
    down by F.  The terms of S_j for all j come from t_k by n successive
    floor divisions by k.  With r = |z|, K terms leave a tail of at most
    r^K / (1 - r), so K is the least count that puts it below 2^-(prec + 10).

    Rounding bound.  Let u = 2^-F.  Each t_k is off from Z^(k-1) by less
    than sqrt(2) u / (1 - r), Z^(k-1) from z^(k-1) by less than
    sqrt(2) (k-1) r^(k-2) u, and the divisions add less than 2 sqrt(2) u per
    term.  Over K terms the error is below
    sqrt(2) u ((H_K + 1) / (1 - r) + 2 K) < 5 (K + 1) u / (1 - r), the
    factor 5 > 3 sqrt(2) covering |Z| > r to second order, so
    F = prec + 10 + ceil(log2(5 (K + 1) / (1 - r))) puts it below
    2^-(prec + 10).  F does not grow as z shrinks.

    Lower bound.  |Li_j(z)| >= r / 4, so |S_j| >= 1/4, on the domain:
    Li_j(x) >= x on (0, 1); for |z| <= 0.75, Koebe's theorem gives
    |Li_1(z)| >= r / (1 + r)^2 >= r / 4 (-log(1 - z) is univalent on the
    unit disk), and for j >= 2 |Li_j(z)| >= r - r^2 / (4 (1 - r)) >= r / 4.
    So every S_j is within a relative 2^-(prec + 7), and z S_j, formed
    exactly and rounded once to the active precision, is within a relative
    2^-(prec + 7) of Li_j(z) before that rounding.
    """
    if n == 0:
        return []
    r = abs(z)
    terms = int(mp.ceil((prec + 10 - mp.log(1 - r, 2)) / -mp.log(r, 2)))
    if terms > _SERIES_CAP:
        raise IntegrationError(f"series would need {terms} terms, more than "
                               f"{_SERIES_CAP}")
    F = prec + 10 + int(mp.ceil(mp.log(5 * (terms + 1) / (1 - r), 2)))
    X, Y = _to_fixed(z, F)
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
        t_re, t_im = (t_re * X - t_im * Y) >> F, (t_re * Y + t_im * X) >> F
    return [z * mp.make_mpc((from_man_exp(s_re[j], -F),
                             from_man_exp(s_im[j], -F)))
            for j in range(1, n + 1)]


# Each disk step covers at most this fraction of the distance from its centre
# to the nearer puncture; the series tail bound in ``transport`` relies on it.
_STEP_RATIO = 0.4
_GUARD_BITS = 8


def _series_terms(prec):
    """Least K with _STEP_RATIO^K / (1 - _STEP_RATIO) <= 2^-(prec + guard)."""
    return math.ceil((prec + _GUARD_BITS - math.log2(1 - _STEP_RATIO))
                     / -math.log2(_STEP_RATIO))


def _fraction_bits(prec, terms):
    """F = prec + ceil(log2(5 K + 6)) + 8 for K = ``terms``: the fixed-point
    scale that keeps K series terms and one product step within 2^-(prec + 8)
    (see ``transport``)."""
    # (5 K + 5).bit_length() is ceil(log2(5 K + 6))
    return prec + (5 * terms + 5).bit_length() + _GUARD_BITS


def _segment_curve(z0, seg):
    """(z(s) for s in [0, 1], arclength) of ``seg`` anchored at z0, in the
    active mpmath precision; a line ends exactly on its endpoint."""
    if isinstance(seg, LineTo):
        e = mp.mpc(seg.end)
        return (lambda s: (1 - s) * z0 + s * e), abs(e - z0)
    c = mp.mpc(seg.center)
    w0 = z0 - c
    i_sweep = mp.mpc(0, seg.sweep)
    return (lambda s: c + w0 * mp.exp(i_sweep * s)), abs(w0 * i_sweep)


def _disk_chain(path, margin):
    """The steps (c, z1) that cover ``path``, in the active precision.

    From a centre c the step runs to the point z1 a further arclength of at
    most 0.4 * dist(c, {0, 1}) along the path, which becomes the next centre;
    a centre closer than margin / 2 to a puncture raises PathError.
    """
    steps = []
    z = mp.mpc(path.base_point)
    for seg in path.segments:
        curve, length = _segment_curve(z, seg)
        s = mp.mpf(0)
        while length and s < 1:
            dist = min(abs(z), abs(1 - z))
            if dist < margin / 2:
                raise PathError(f"transport came within {float(dist):.3e} "
                                f"of a puncture (margin {margin})")
            s = min(s + _STEP_RATIO * dist / length, 1)
            z1 = curve(s)
            steps.append((z, z1))
            z = z1
    return steps


def _product_guard(n, disks):
    """Least G with 2^G >= D * sum_{l < n} (0.52 D)^l / l!, for D = ``disks``;
    the growth bound of a product of D transitions (see ``transport``)."""
    b = Fraction(13 * disks, 25)
    total, term = 0, Fraction(1)
    for l in range(n):
        total += term
        term *= b / (l + 1)
    return (math.ceil(disks * total) - 1).bit_length() if disks else 0


def _transition(n, c, z1, terms, F):
    """Row 0 and the superdiagonal of T(c -> z1), where L(z1) = L(c) T, in
    fixed point: lists of (real, imaginary) Python integers scaled by 2^F.

    Row i >= 1 of T holds tau[m] = log(1 + w/c)^m / m! in column i + m, with
    w = z1 - c.  Row 0 holds 1, -log(1 - w/(1-c)) and, for j >= 2, the first
    ``terms`` terms of sum_k u_j[k] w^k, where
    (1-c)(k+1) u_1[k+1] = u_0[k] + k u_1[k] and
    c (k+1) u_j[k+1] = u_{j-1}[k] - k u_j[k].  Returns (top, tau), each
    indexed 0..n.

    w, p = w/(1-c), q = w/c and the two logarithms are taken in mpmath at the
    active precision and floored to 2^-F.  tau[m] is tau[m-1] times the
    logarithm, shifted and floor-divided by m.  The sums start from k = 1
    (t[1] = p, t[j] = 0 for j >= 2) and step by
    t[j] <- q (t[j-1] - k t[j]) / (k+1) and t[1] <- p k t[1] / (k+1), as
    exact integer differences and multiples of k, one complex product with a
    single floor shift by F per part, and a floor division by k + 1.  For
    n = 1 no sum is needed.

    Rounding bound.  Let u = 2^-F.  The shift and the division leave each
    part of a new term less than 1.5u below its value, so less than 2.2u in
    modulus, and flooring p and q adds less than 0.6u per term (every exact
    term has modulus below 0.4).  An old error e enters the new term
    multiplied by q k/(k+1) and q/(k+1), or by p k/(k+1), so by at most
    0.4 |e| in all, since |p|, |q| <= 0.4: each term's error stays below
    2.8u / 0.6 < 5u, and the sum's below 5 K u for K = ``terms``.  Likewise
    tau[m] stays within 4u of l^m / m!, l the logarithm from mpmath.
    """
    w = z1 - c
    p = w / (1 - c)
    q = w / c
    ell_re, ell_im = _to_fixed(mp.log(1 + q), F)
    tau_re = [1 << F, ell_re]
    tau_im = [0, ell_im]
    for m in range(2, n + 1):
        a, b = tau_re[-1], tau_im[-1]
        tau_re.append(((a * ell_re - b * ell_im) >> F) // m)
        tau_im.append(((a * ell_im + b * ell_re) >> F) // m)
    l1_re, l1_im = _to_fixed(-mp.log(1 - p), F)
    s_re = [1 << F, l1_re] + [0] * (n - 1)
    s_im = [0, l1_im] + [0] * (n - 1)
    if n == 1:
        return (s_re, s_im), (tau_re, tau_im)
    p_re, p_im = _to_fixed(p, F)
    q_re, q_im = _to_fixed(q, F)
    t_re = [0, p_re] + [0] * (n - 1)
    t_im = [0, p_im] + [0] * (n - 1)
    for k in range(1, terms - 1):
        k1 = k + 1
        for j in range(n, 1, -1):
            d_re = t_re[j - 1] - k * t_re[j]
            d_im = t_im[j - 1] - k * t_im[j]
            t_re[j] = ((q_re * d_re - q_im * d_im) >> F) // k1
            t_im[j] = ((q_re * d_im + q_im * d_re) >> F) // k1
            s_re[j] += t_re[j]
            s_im[j] += t_im[j]
        a, b = t_re[1], t_im[1]
        t_re[1] = ((p_re * a - p_im * b) * k >> F) // k1
        t_im[1] = ((p_re * b + p_im * a) * k >> F) // k1
    return (s_re, s_im), (tau_re, tau_im)


def _to_fixed(v, F):
    """The real and imaginary parts of the mpc v, floored to 2^-F and scaled
    by 2^F."""
    return [to_fixed(x, F) for x in v._mpc_]


def _from_fixed(re, im, F):
    """The mpc re 2^-F + i im 2^-F, rounded to the active precision."""
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, -F, prec, "n"),
                        from_man_exp(im, -F, prec, "n")))


def _times_transition(lam, top, tau):
    """lam * T for the unitriangular T with row 0 ``top`` and tau[m] on the
    m-th superdiagonal of the other rows; exact zeros of lam are skipped, so
    they stay exact."""
    out = []
    for row in lam:
        new = [row[0]]
        for j in range(1, len(tau)):
            acc = row[0] * top[j] if row[0] else mp.mpc(0)
            for k in range(1, j + 1):
                if row[k]:
                    acc += row[k] * tau[j - k]
            new.append(acc)
        out.append(new)
    return out


def transport(n, path, start, prec=DEFAULT_PREC, margin=DEFAULT_MARGIN):
    """Analytic continuation of ``start`` along ``path``.

    The path is covered by a chain of D disks (``_disk_chain``): from a
    centre c the step runs to the point z1 a further arclength of at most
    0.4 * dist(c, {0, 1}) along it, so |z1 - c| <= 0.4 * dist(c, {0, 1}) as
    well.  Each step has the upper unitriangular transition matrix
    T(c -> z1) of ``_transition``; its rows i >= 1 and entry (0, 1) are
    closed forms, and since |w/c| and |w/(1-c)| are at most 0.4
    (w = z1 - c), the principal logarithms in them are the continuations
    along the step.  Transport forms the product P = T_1 ... T_D and returns
    start * P.  The lower-right block of every T_k is exp(l_k N), N the upper
    shift and l_k = log(1 + w/c), so that block of P is exp(Lambda N) with
    Lambda = sum l_k; only row 0 of P needs work per disk, R <- R T_k, about
    n^2 / 2 complex products.  R and Lambda are kept in Python-int fixed
    point at 2^-F, like the series; start * P is formed once at the end, in
    mpmath at F bits, and rounded to ``prec``.

    Tail bound for the entries (0, j), j >= 2.  Write d = dist(c, {0, 1}).
    The Taylor coefficients of 1/(1-z) and 1/z at c are bounded by
    d^-(k+1), those of 1/(d - w), so row 0 of T is majorized coefficientwise
    by (-log(1 - w/d))^j / j!.  These majorants sum over j to 1/(1 - w/d),
    so their coefficient of w^k is at most d^-k, and summing K terms leaves
    an error of at most x^K / (1 - x) with x = |w|/d <= 0.4.

    Growth of the product.  Since |l_k| and |-log(1 - w/d)| are at most
    -log 0.6 < 0.52, every T_k is bounded entrywise by exp(0.52 S), S the
    (n+1) x (n+1) upper shift, and its row 0 by the majorants above; these
    matrices are polynomials in S, so they commute, and every partial
    product is bounded by exp(0.52 D S), with entries (0.52 D)^m / m!.  Let
    each computed T_k differ from the exact one by at most e per entry above
    the diagonal, and let forming R T_k round each entry of row 0 by at most
    r.  The error of R after step k is the old error times T_k, plus R times
    the change of T_k, plus the rounding; R is bounded by row 0 of
    exp(0.52 (k - 1) S), and the errors are carried to the end by
    T_(k+1) ... T_D, bounded by exp(0.52 (D - k) S).  So entry (0, j) of P
    ends within (e + r) E of the exact product, where
    E = D sum_{l < n} (0.52 D)^l / l!, up to a second-order term in e.

    Guard bits.  G = ceil(log2 E) (``_product_guard``) grows like
    log2 D + n log2(0.52 D).  K is the least count that puts 0.4^K / 0.6
    below 2^-(prec + G + 8) (114 terms at 128 bits for a canonical loop at
    n = 4, where D = 21 and G = 13), and
    F = prec + G + ceil(log2(5 K + 6)) + 8 (``_fraction_bits``).  With
    u = 2^-F, the series err by at most 2^-(prec + G + 8) + 5 K u (see
    ``_transition``) plus 2u, since forming w, p and q at F bits moves an
    entry by at most 2/3 of their relative error, about 3u; the logarithms,
    with that input error, and tau[m] err by less than 6u; and each entry of
    R T_k is shifted once per part, so r < 1.5u.  Hence
    e + r < 2^-(prec + G + 8) + (5 K + 6) u <= 2^-(prec + G + 7): every
    entry of row 0 of P is within 2^-(prec + 7) of the exact product for the
    chain, and Lambda, a sum of D floored logarithms, is within 3 D u.

    Whole-transport bound.  The chain runs from the base point to the end of
    the last segment, exactly for a line; the exact product for it is
    L(base)^-1 L(end) on the continued branch.  Moving Lambda by at most
    2^-(prec + 7) moves each Lambda^m / m! by at most 2^-(prec + 7) e^|Lambda|,
    and the final product at F bits adds less than that again, so every entry
    v of row i of the result lies within
    2^-prec |v| + 2^-(prec + 6) e^|Lambda| sum_k |start[i][k]|
    of row i of start times L(base)^-1 L(end); the first term is the final
    rounding.  The accuracy follows ``prec``.

    Every step that does not end a segment advances by at least 0.4 times
    the distance to the punctures, so the step count is bounded by the
    arclength over 0.2 * margin.  Exact zeros of ``start`` stay exact.
    """
    if n < 1:
        raise DomainError("transport needs n >= 1")
    if start.n != n:
        raise DomainError("start matrix has the wrong weight")
    if not margin > 0:
        raise DomainError("margin must be positive")
    path.validate(margin)
    with mp.workprec(prec):
        steps = _disk_chain(path, margin)
    guard = _product_guard(n, len(steps))
    terms = _series_terms(prec + guard)
    F = _fraction_bits(prec + guard, terms)
    r_re = [0] * (n + 1)
    r_im = [0] * (n + 1)
    log_re = log_im = 0
    with mp.workprec(F):
        for c, z1 in steps:
            (top_re, top_im), (tau_re, tau_im) = _transition(
                n, c, z1, terms, F)
            # row 0 of R T, from the right so that r[i], i < j, are still old
            for j in range(n, 0, -1):
                a = b = 0
                for i in range(1, j):
                    x, y = r_re[i], r_im[i]
                    a += x * tau_re[j - i] - y * tau_im[j - i]
                    b += x * tau_im[j - i] + y * tau_re[j - i]
                r_re[j] += top_re[j] + (a >> F)
                r_im[j] += top_im[j] + (b >> F)
            log_re += tau_re[1]
            log_im += tau_im[1]
        log_sum = _from_fixed(log_re, log_im, F)
        row0 = [mp.mpf(1)] + [_from_fixed(r_re[j], r_im[j], F)
                              for j in range(1, n + 1)]
        powers = [mp.mpf(1)]
        for m in range(1, n + 1):
            powers.append(powers[-1] * log_sum / m)
        moved = _times_transition([[mp.mpc(v) for v in row]
                                   for row in start.entries], row0, powers)
    with mp.workprec(prec):
        tag = f"{start.branch_tag} . {path.describe()}"
        return PeriodMatrix(n, tuple(tuple(+v for v in row) for row in moved),
                            tag)


def _solve_upper(lam, target, n):
    """M with M * lam = target, lam upper triangular; by forward substitution
    along each row."""
    M = [[mp.mpc(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            acc = target[i][j]
            for k in range(j):
                if M[i][k]:
                    acc -= M[i][k] * lam[k][j]
            M[i][j] = acc / lam[j][j]
    return M


def monodromy(n, loop, tol=DEFAULT_TOL, prec=DEFAULT_PREC,
              margin=DEFAULT_MARGIN, max_den=None):
    """Exact monodromy matrix of the weight-n system along a closed loop.

    Transports the principal fundamental solution around the loop, divides by
    the start matrix, and certifies each entry as a rational number with
    denominator at most max_den (default n!) within rtol = 100 * tol.  Two
    such rationals differ by at least 1/max_den^2, so the certified value is
    unique only when 2 * rtol * max_den^2 < 1; otherwise DomainError is raised
    before any transport.  Raises ReconstructionError when an entry fails to
    certify - a sign of insufficient precision or an inadmissible path.
    """
    if n < 1:
        raise DomainError("monodromy needs n >= 1")
    if not loop.closed:
        raise DomainError("monodromy needs a closed loop")
    base = loop.base_point
    if abs(base.imag) > 0 or not 0 < base.real < 1:
        raise DomainError("monodromy loops must be based at real z in (0, 1)")
    if max_den is None:
        max_den = math.factorial(n)
    with mp.workprec(prec):
        rtol = mp.mpf(tol) * 100
        if 2 * rtol * max_den ** 2 >= 1:
            raise DomainError(
                f"tolerance 100 * {tol} cannot single out a rational with "
                f"denominator <= {max_den}: need 2 * rtol * max_den^2 < 1")
    start = principal_lambda(n, base.real, prec=prec)
    moved = transport(n, loop, start, prec=prec, margin=margin)
    with mp.workprec(prec):
        M = _solve_upper(start.rows(), moved.rows(), n)
        out = []
        for i in range(n + 1):
            row = []
            for j in range(n + 1):
                v = M[i][j]
                if abs(v.imag) > rtol:
                    raise ReconstructionError(
                        f"entry ({i},{j}) has imaginary part {mp.nstr(v.imag, 5)}")
                r = rational_reconstruct(v.real, max_den, rtol)
                if r is None:
                    raise ReconstructionError(
                        f"entry ({i},{j}) = {mp.nstr(v.real, 20)} is not a "
                        f"rational with denominator <= {max_den}")
                row.append(r)
            out.append(row)
        return RationalMatrix(out)
