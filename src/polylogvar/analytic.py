"""High-precision polylogarithms, fundamental solution matrices, and their
parallel transport along paths in C \\ {0, 1}.

The fundamental solution at weight n is the (n+1) x (n+1) upper-triangular
matrix with first row (1, Li_1(z), ..., Li_n(z)) and rows i >= 1 given by
(2*pi*i)^i log(z)^(j-i)/(j-i)!.  It solves the linear system
dL = L * A(z) dz, where A(z) has 1/(1-z) in slot (0,1) and 1/z on the rest
of the superdiagonal: a nilpotent Fuchsian system with poles only at 0, 1
and infinity.  Transport continues it along a path by a chain of disks, each
at most 0.4 times as wide as the distance to the punctures, multiplying by
one unitriangular transition matrix per disk whose entries are closed-form
logarithms or Taylor series with a majorant tail bound set by the working
precision (van der Hoeven 1999; Mezzarobba 2016).  The series run on Python
integers in fixed point, with guard bits sized from the term count so that
their rounding stays below the truncation error.

Monodromy matrices come out of transport around a closed loop followed by
exact rational reconstruction of every entry; the normalization by powers of
2*pi*i is what makes those entries rational.
"""

import math
from dataclasses import dataclass

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


def li_series(n, z, tol=DEFAULT_TOL, prec=DEFAULT_PREC):
    """Li_n(z) by its defining power series, for |z| <= 0.75.

    The partial sum stops once the geometric tail bound
    |z|^(K+1) / ((K+1)^n (1-|z|)) drops below tol.  On the real interval
    [-1, -0.75] the series is summed with alternating-series acceleration
    instead (the plain tail bound is useless there).  Anywhere else outside
    the disk, callers must use transport.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    with mp.workprec(prec):
        zc = mp.mpc(mp.mpmathify(z))
        if abs(zc) <= 0.75:
            return _li_unit_disk(n, zc, mp.mpf(tol))
        if zc.imag == 0 and -1 <= zc.real < 0:
            return _li_alternating(n, zc.real, tol, prec)
        raise DomainError("li_series requires |z| <= 0.75 or real z in "
                          "[-1, -0.75]; use transport elsewhere")


def _li_alternating(n, x, tol, prec):
    guard = max(16, int(-mp.log(mp.mpf(tol), 2)) + 16)
    with mp.workprec(max(prec, guard) + 16):
        val = mp.nsum(lambda k: mp.mpf(x) ** k / k ** n, [1, mp.inf],
                      method="a")
    return mp.mpc(val)


def _li_unit_disk(n, zc, tol):
    # same tail bound as li_series, valid on the whole open unit disk
    az = abs(zc)
    if az == 0:
        return mp.mpc(0)
    if az >= 1:
        raise DomainError("series evaluation requires |z| < 1")
    s = mp.mpc(0)
    zk = mp.mpc(zc)
    k = 1
    while True:
        s += zk / mp.mpf(k) ** n
        if az ** (k + 1) / ((k + 1) ** n * (1 - az)) <= tol:
            return s
        k += 1
        zk *= zc
        if k > _SERIES_CAP:
            raise IntegrationError("series did not reach tolerance "
                                   f"within {_SERIES_CAP} terms")


def principal_lambda(n, z, tol=DEFAULT_TOL, prec=DEFAULT_PREC):
    """Fundamental solution on the principal branch, at real z in (0, 1).

    Row 0 holds (1, Li_1(z), ..., Li_n(z)); row i >= 1 holds
    (2 pi i)^i log(z)^(j-i) / (j-i)! with the real principal logarithm.
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
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        lg = mp.log(zr)
        li_tol = mp.mpf(tol) * mp.mpf("1e-4")
        grid = [[mp.mpc(0)] * (n + 1) for _ in range(n + 1)]
        grid[0][0] = mp.mpc(1)
        for j in range(1, n + 1):
            grid[0][j] = _li_unit_disk(j, mp.mpc(zr), li_tol)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                grid[i][j] = two_pi_i ** i * lg ** (j - i) / mp.factorial(j - i)
        return PeriodMatrix(n, tuple(tuple(row) for row in grid), "principal")


# Each disk step covers at most this fraction of the distance from its centre
# to the nearer puncture; the series tail bound in ``transport`` relies on it.
_STEP_RATIO = 0.4
_GUARD_BITS = 8


def _series_terms(prec):
    """Least K with _STEP_RATIO^K / (1 - _STEP_RATIO) <= 2^-(prec + guard)."""
    return math.ceil((prec + _GUARD_BITS - math.log2(1 - _STEP_RATIO))
                     / -math.log2(_STEP_RATIO))


def _segment_curve(z0, seg):
    """(z(s) for s in [0, 1], arclength) of ``seg`` anchored at z0, in the
    active mpmath precision."""
    if isinstance(seg, LineTo):
        d = mp.mpc(seg.end) - z0
        return (lambda s: z0 + s * d), abs(d)
    c = mp.mpc(seg.center)
    w0 = z0 - c
    i_sweep = mp.mpc(0, seg.sweep)
    return (lambda s: c + w0 * mp.exp(i_sweep * s)), abs(w0 * i_sweep)


def _transition(n, c, z1, terms):
    """Row 0 and the superdiagonal of T(c -> z1), where L(z1) = L(c) T.

    Row i >= 1 of T holds tau[m] = log(1 + w/c)^m / m! in column i + m, with
    w = z1 - c.  Row 0 holds 1, -log(1 - w/(1-c)) and, for j >= 2, the first
    ``terms`` terms of sum_k u_j[k] w^k, where
    (1-c)(k+1) u_1[k+1] = u_0[k] + k u_1[k] and
    c (k+1) u_j[k+1] = u_{j-1}[k] - k u_j[k].

    The logarithms are taken in mpmath.  The sums run in fixed point: with
    p = w/(1-c) and q = w/c floored to Python integers scaled by 2^F, t[j]
    holds u_j[k] w^k from k = 1 (t[1] = p, t[j] = 0 for j >= 2) and steps by
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
    2.8u / 0.6 < 5u, and the sum's below 5 K u for K = ``terms``.  Hence
    F = prec + G with G = ceil(log2(5 K)) + 8 guard bits, which makes the
    fixed-point error at most 2^-(prec + 8), the same as the truncation error
    bounded in ``transport``.
    """
    w = z1 - c
    p = w / (1 - c)
    q = w / c
    ell = mp.log(1 + q)
    tau = [mp.mpf(1)]
    for m in range(1, n + 1):
        tau.append(tau[-1] * ell / m)
    top = [mp.mpf(1), -mp.log(1 - p)]
    if n == 1:
        return top, tau
    prec = mp.mp.prec
    # (5 K - 1).bit_length() is ceil(log2(5 K))
    F = prec + (5 * terms - 1).bit_length() + _GUARD_BITS
    p_re, p_im = (to_fixed(v, F) for v in p._mpc_)
    q_re, q_im = (to_fixed(v, F) for v in q._mpc_)
    t_re = [0, p_re] + [0] * (n - 1)
    t_im = [0, p_im] + [0] * (n - 1)
    s_re = [0] * (n + 1)
    s_im = [0] * (n + 1)
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
    for j in range(2, n + 1):
        top.append(mp.make_mpc((from_man_exp(s_re[j], -F, prec, "n"),
                                from_man_exp(s_im[j], -F, prec, "n"))))
    return top, tau


def _times_transition(lam, top, tau):
    """lam * T; exact zeros of lam are skipped, so they stay exact."""
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


def transport(n, path, start, tol=DEFAULT_TOL, prec=DEFAULT_PREC,
              margin=DEFAULT_MARGIN):
    """Analytic continuation of ``start`` along ``path``.

    The path is covered by a chain of disks.  From a centre c on the path the
    step runs to the point z1 a further arclength of at most
    0.4 * dist(c, {0, 1}) along it (so |z1 - c| <= 0.4 * dist(c, {0, 1}) as
    well), and L <- L * T(c -> z1) with the upper unitriangular transition
    matrix of ``_transition``.  Its rows i >= 1 and entry (0, 1) are closed
    forms; since |w/c| and |w/(1-c)| are at most 0.4 (w = z1 - c), the
    principal logarithms in them are the continuations along the step.

    Tail bound for the entries (0, j), j >= 2.  Write d = dist(c, {0, 1}).
    The Taylor coefficients of 1/(1-z) and 1/z at c are bounded by
    d^-(k+1), those of 1/(d - w), so row 0 of T is majorized coefficientwise
    by (-log(1 - w/d))^j / j!.  These majorants sum over j to 1/(1 - w/d),
    so their coefficient of w^k is at most d^-k, and summing K terms leaves
    an error of at most x^K / (1 - x) with x = |w|/d <= 0.4.  K is the least
    count that puts 0.4^K / 0.6 below 2^-(prec + 8), fixed once per call
    (104 terms at 128 bits, 201 at 256), so the accuracy follows ``prec``;
    ``tol`` does not enter.

    Rounding.  The sums run in fixed point with guard bits sized from K, so
    they add at most another 2^-(prec + 8) (see ``_transition``).  Forming
    w, p = w/(1-c) and q = w/c at ``prec`` bits costs a relative error of
    about 3 * 2^-prec, which moves an entry by at most x/(1 - x) <= 2/3 of
    that; with the logarithm and the final rounding, every entry of row 0 of
    T is within 2^-(prec - 2) of the exact transition.

    Every step that does not end a segment advances by at least 0.4 times
    the distance to the punctures, so the step count is bounded by the
    arclength over 0.2 * margin; a centre closer than margin / 2 to a
    puncture raises PathError.  Exact zeros of ``start`` stay exact.
    """
    if n < 1:
        raise DomainError("transport needs n >= 1")
    if start.n != n:
        raise DomainError("start matrix has the wrong weight")
    if not margin > 0:
        raise DomainError("margin must be positive")
    path.validate(margin)
    terms = _series_terms(prec)
    with mp.workprec(prec):
        lam = [[mp.mpc(v) for v in row] for row in start.entries]
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
                lam = _times_transition(lam, *_transition(n, z, z1, terms))
                z = z1
        tag = f"{start.branch_tag} . {path.describe()}"
        return PeriodMatrix(n, tuple(tuple(row) for row in lam), tag)


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
    start = principal_lambda(n, base.real, tol=tol, prec=prec)
    moved = transport(n, loop, start, tol=tol, prec=prec, margin=margin)
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
