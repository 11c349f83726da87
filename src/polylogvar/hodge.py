"""The connection matrix, weight and Hodge filtrations on a fiber, and the
checks tying the fundamental solution to the connection and to the rank-2
logarithmic (Kummer) system.

The filtrations are decided from the fiber's exact triangular shape, which
entries are zero, with no rank decision and no tolerance.  The Kummer block
is an exact identity in Q[log z, 2 pi i], tied to the computed matrix by
principal_lambda's proved radius, and the trivial subobject is read from the
connection's tags.  Flatness reads those tags too, takes rows 1..n from the
Kummer block check and ties row 0, transported along a line, to its series
within the sum of two proved radii.  None of these checks takes a
tolerance.
"""

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

# monodromy is unused here; perfbench's tracer test pins hodge's import of
# it (ROADMAP item 1)
from .analytic import (DEFAULT_PREC, _from_fixed, _li_row, _plan_chain,
                       _principal_z, _step_plan, kummer_rows,
                       monodromy)  # noqa: F401
from .errors import DomainError
from .mpoly import MPoly
from .paths import LineTo, PathSpec


class OneForm(enum.Enum):
    ZERO = "0"
    DLOG_Z = "dz/z"
    DLOG_1MZ = "dz/(1-z)"


# Strictly upper triangular matrix of one-form tags, nonzero only on the
# superdiagonal: slot (0,1) carries dz/(1-z), slots (k,k+1) carry dz/z.
ConnectionMatrix = namedtuple("ConnectionMatrix", "n entries")


def connection(n):
    if n < 0:
        raise DomainError("n must be nonnegative")
    grid = [[OneForm.ZERO] * (n + 1) for _ in range(n + 1)]
    if n >= 1:
        grid[0][1] = OneForm.DLOG_1MZ
        for k in range(1, n):
            grid[k][k + 1] = OneForm.DLOG_Z
    return ConnectionMatrix(n, tuple(tuple(row) for row in grid))


class FilteredFiber(namedtuple("FilteredFiber", "n matrix")):
    """A fiber with its two flags: W_{2k} spanned by e_0..e_k, and F^k by
    columns k..n of the solution matrix.

    The filtration checks read only the diagonal and the entries below it
    (hodge_transversality_check's docstring proves that this decides
    transversality for an upper-triangular fiber).  So the CLI's
    ``filtration`` builds its fiber without row 0's Li series and leaves
    None in row 0 above the diagonal.  ``matrix`` is (n+1) x (n+1) nested
    tuples, mpmath or python complex."""

    __slots__ = ()

    @classmethod
    def from_period_matrix(cls, pm):
        return cls(pm.n, pm.entries)


def graded_dimensions(fiber):
    """Dimensions of the weight graded pieces W_{2k}/W_{2k-2}, k = 0..n.

    W_{2k} is spanned by e_0..e_k by definition, whatever the fiber, so each
    graded piece is the line spanned by the image of e_k.
    """
    return [(2 * k, 1) for k in range(fiber.n + 1)]


# failures: (k, reason) pairs
TransversalityReport = namedtuple("TransversalityReport", "passed failures")


def hodge_transversality_check(fiber):
    """Each weight graded piece must be purely of type (k, k): F^k meets
    W_{2k} in a line projecting isomorphically onto the graded piece, while
    F^{k+1} meets W_{2k} only above the smaller weight step.

    F^k cap W_{2k} is taken as the space of coefficient vectors c on columns
    k..n of the fiber A whose combination vanishes in rows k+1..n.  The check
    decides this exactly for an upper-triangular A, the shape of every fiber
    the package makes: principal_lambda builds one with diagonal (2 pi i)^k,
    and transport multiplies it by a unitriangular matrix, which keeps its
    exact zeros.

    Rows k+1..n of columns k..n of such an A are [0 | T]: column k is zero
    there, and columns k+1..n form the upper-triangular block T with
    diagonal A[k+1][k+1], ..., A[n][n].
    - If that diagonal has no zero, T is invertible, so T c' = 0 forces
      c' = 0.  F^k cap W_{2k} is then the line of multiples t of column k,
      which projects to t A[k][k] in the graded piece (row k): isomorphically
      exactly when A[k][k] != 0.  F^{k+1} cap W_{2k} = {c' : T c' = 0} is 0,
      so it does not reach the graded piece.
    - If A[m][m] = 0 for some m > k, T is singular and F^k cap W_{2k} has
      dimension 1 + nullity(T) >= 2: it is not a line.
    So if j is the largest index with A[j][j] = 0, the check fails at exactly
    k = 0..j, and it passes when no diagonal entry is zero.  The argument
    needs the triangular shape, so a nonzero entry below the diagonal is
    reported as a failure naming that entry.
    """
    n, A = fiber.n, fiber.matrix
    for j in range(n + 1):
        for i in range(j + 1, n + 1):
            if A[i][j] != 0:
                return TransversalityReport(False, ((j, (
                    f"entry ({i}, {j}) below the diagonal is nonzero: "
                    "the fiber is not upper triangular")),))
    zeros = [k for k in range(n + 1) if A[k][k] == 0]
    if not zeros:
        return TransversalityReport(True, ())
    j = zeros[-1]
    failures = [(k, f"F^{k} cap W_{2 * k} is not a line: A[{j}][{j}] = 0")
                for k in range(j)]
    failures.append((j, f"F^{j} cap W_{2 * j} projects to zero: "
                        f"A[{j}][{j}] = 0"))
    return TransversalityReport(False, tuple(failures))


BlockReport = namedtuple("BlockReport", "passed max_error failing_entry")


@lru_cache(maxsize=None)
def _kummer_identity(n):
    """Whether tau Sym^(n-1)[[1, l], [0, tau]], in the divided-power basis,
    equals the closed form of principal_lambda's rows and columns 1..n,
    decided exactly in Q[l, tau], l = log z and tau = 2 pi i: entry (a, b)
    is tau^(a+1) l^(b-a) / (b-a)! on and above the diagonal, 0 below it.

    On the basis y^b x^(n-1-b), b = 0..n-1, the matrix sends x to x and y to
    l x + tau y, so column b of Sym^(n-1) holds the coefficients of
    y^a x^(b-a) in (l x + tau y)^b.  The powers are multiplied out one
    linear form at a time with x set to 1, as the exponent of x is b - a.
    The divided-power basis y^b / b! scales entry (a, b) by a! / b!.
    Column b is compared as a map from (a, exponent of l, exponent of tau)
    to the entry's one nonzero coefficient.
    """
    y, lg, tau = (MPoly.var(3, i) for i in range(3))
    form, power = lg + tau * y, MPoly.const(3, 1)
    for b in range(n):
        column = {(a, l, t + 1): c * Fraction(math.factorial(a),
                                              math.factorial(b))
                  for (a, l, t), c in power.terms.items()}
        if column != {(a, b - a, a + 1): Fraction(1, math.factorial(b - a))
                      for a in range(b + 1)}:
            return False
        power = power * form
    return True


def kummer_block_check(n, z, prec=DEFAULT_PREC):
    """Rows and columns 1..n of the weight-n solution matrix against the
    2 pi i-twisted divided-power symmetric power of the rank-2 logarithmic
    matrix [[1, log z], [0, 2 pi i]], with no tolerance.

    The block is an identity in Q[l, tau], l = log z and tau = 2 pi i:
    _kummer_identity expands tau Sym^(n-1) and compares it with ``==``
    against the closed form tau^i l^(j-i) / (j-i)! that principal_lambda
    computes.  The verdict is memoised per n.

    The numbers are then tied to that closed form by principal_lambda's
    proved radius.  They come from ``kummer_rows``, which computes rows 1..n
    of principal_lambda entry for entry and skips row 0's Li series, so the
    check costs no series terms, even for z near 1 where that series needs
    millions.  z is read once at ``prec`` bits, as principal_lambda reads
    it.  Each entry l^m tau^t / m!, t = a + 1 and m + t <= n, is
    evaluated at F bits, u = 2^-F: l within a relative 2u, l^m within
    2 m u + 2u, 2 pi within u, (2 pi)^t within t u + 2u, their product
    within u and the division by m! within 2u; at most (2 n + 8) u in all,
    and 1.01 (2 n + 8) u < (3 n + 9) u, so
    F = prec + 10 + bitlength(3 n + 9) puts the value w within a relative
    e < 2^-(prec + 10) of the exact W.  principal_lambda's entry g is within
    a relative 2^-(prec - 1) of W, so
    |g - w| <= (2^-(prec - 1) + e) |W| <= (2^-(prec - 1) + 2^-(prec + 9)) |w|,
    and the test |g - w| / |w| <= 2^-(prec - 1) + 2^-(prec + 8) at F bits,
    its subtraction, moduli and quotient each within a relative 2u, accepts
    every correct entry.  Entries below the diagonal are 0 and must be 0
    exactly.  An entry more than 2^-(prec - 2) |W| from W fails.

    max_error is the largest of those relative distances |g - w| / |w|, over
    the entries on and above the diagonal, as the test computes them: about
    2^-prec on a correct matrix, whose entries are rounded to ``prec`` bits,
    and never above the radius when the check passes.  failing_entry is the
    first (i, j) outside its radius.
    """
    if n < 1:
        raise DomainError("kummer_block_check needs n >= 1")
    with mp.workprec(prec):
        z = mp.mpc(mp.mpmathify(z))
    rows = kummer_rows(n, z, prec=prec)
    rel = {}
    with mp.workprec(prec + 10 + (3 * n + 9).bit_length()):
        two_pi, lg = 2 * mp.pi, mp.log(z.real)
        for a in range(n):
            for b in range(a, n):
                # tau^(a+1) l^(b-a) / (b-a)!, tau^(a+1) = i^(a+1) (2 pi)^(a+1)
                w = mp.mpc((1, 1j, -1, -1j)[(a + 1) % 4]) * (
                    lg ** (b - a) * two_pi ** (a + 1) / math.factorial(b - a))
                rel[1 + a, 1 + b] = abs(rows[a][1 + b] - w) / abs(w)
        radius = mp.ldexp(1, 1 - prec) + mp.ldexp(1, -(prec + 8))
    outside = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
               if (rel[i, j] > radius if j >= i else rows[i - 1][j])]
    return BlockReport(passed=_kummer_identity(n) and not outside,
                       max_error=float(max(rel.values())),
                       failing_entry=outside[0] if outside else None)


# residual: row 0's largest distance over its proved radius
FlatnessReport = namedtuple("FlatnessReport", "passed residual")


def flatness_residual(n, z=0.5, prec=DEFAULT_PREC):
    """A FlatnessReport on whether the solution matrix L of
    ``principal_lambda`` solves dL = L A for A = connection(n), at real z in
    (0, 1) read at ``prec`` bits, with no tolerance.

    Tags.  connection(n) must be exactly dz/(1-z) at (0, 1), dz/z at
    (k, k+1) for k >= 1 and ZERO elsewhere, the system that ``_step_row``
    steps.  Then (L A)_(i, j) is 0 in column 0, L_(i, 0) / (1 - z) in
    column 1 and L_(i, j-1) / z in column j >= 2.

    Rows 1..n.  Row i holds tau^i l^(j-i) / (j-i)! in column j >= i and 0
    before it, l = log z and tau = 2 pi i.  Its derivative is 0 for j <= i
    and tau^i l^(j-i-1) / (j-i-1)! / z, the entry to its left over z, for
    j > i; that is (L A)_(i, j), as L_(i, 0) = 0 for i >= 1.  So these rows
    solve the system exactly when they are that closed form, and
    ``kummer_block_check`` ties them to it by principal_lambda's proved
    radius.

    Row 0, (1, Li_1, ..., Li_n), summed by ``_li_row``, is tied to the
    system itself.  Let z' be the double nearest z, b = z' / 2, and
    e = max(0, ceil(log2(1/z')) - 1) extra bits, which make the transport
    term relative to the row: as z' = m 2^-s with m in [1/2, 1)
    (``math.frexp``), ceil(log2(1/z')) = s + 1, so e = max(0, s), and
    2^-e <= 2 z'.  ``_step_plan`` steps the row (1, Li_1(b), ..., Li_n(b))
    from ``_li_fixed`` across the ``_plan_chain`` of the line from b to z',
    sized for prec + e bits and with margin min(b, 1 - z'), the line's
    distance to the punctures, and the stepped row u must meet
    w = ``_li_row``(n, z', prec) within
    rho_j = (n + 1) 2^-(prec + e + 6) + 2^-(prec + 6) |w_j| in every
    entry j, the first term the chain's radius (``_chain_radius`` with
    V = 1 as b < 1/2).  As Li_j(z') >= z' >= 2^-(e + 1), it is at most
    2 (n + 1) 2^-(prec + 6) Li_j(z'): rho_j is relative to the row, so a
    relative fault in Li_j shows at every z'.  For z' >= 1/2, e = 0.
    - Transport.  The chain runs from b to z' = 2 b, both exact at its
      F >= prec + e + 14 fraction bits (the plan's "Sizing"), inside disks
      that avoid both cuts, so row 0 of L(b) P_c is that of L(z') on the
      principal branch, and ``_step_plan``'s "Row accuracy" puts u within
      (n + 1.03) 2^-(prec + e + 7) of it, at most 0.52 of its radius.
    - Series.  ``_li_row`` sums w on z' <= 3/4 and steps it from 3/4 to z'
      above that; either way, at F bits, w_j is within a relative
      2^-(prec + 7) + 2^-F (1 + 2^-(prec + 7)) < 1.07 2^-(prec + 7) of
      Li_j(z'), so within 0.54 2^-(prec + 6) |w_j| (1 + 2^-prec).
    So |u_j - w_j| < 0.6 rho_j.  The conversion, subtraction, modulus and
    quotient at F bits, each within a relative 2^-F, with
    2^-F |u_j| <= 2^-(prec + 12) (|w_j| + rho_j), keep the computed ratio
    |u_j - w_j| / rho_j below 0.7 on a correct row, so the test
    ratio <= 1 accepts it.  A fault in the series or in the row step fails
    unless it is itself a solution of the system.  ``residual`` is the
    largest ratio; n = 0 has no row 0 to tie, residual 0.

    DomainError unless z is real in (0, 1) (a complex z with imaginary part
    0 counts as real) and z' >= 2^-1021, so that b is a normal double, as
    the chain's float64 plan needs.  A z' within about 2^-28 of 1, closer
    than the chains can step in float64, raises PathError.
    """
    with mp.workprec(prec):
        zp = float(_principal_z(z).real)
    if not zp >= 2 ** -1021:
        raise DomainError("flatness needs z >= 2^-1021: its row-0 tie "
                          "starts from z / 2 as a normal double")
    want = tuple(tuple(OneForm.DLOG_1MZ if (i, j) == (0, 1) else
                       OneForm.DLOG_Z if j == i + 1 else OneForm.ZERO
                       for j in range(n + 1)) for i in range(n + 1))
    passed = connection(n).entries == want
    if n == 0:
        return FlatnessReport(passed, 0.0)
    passed = passed and kummer_block_check(n, z, prec).passed
    b, extra = zp / 2, max(0, -math.frexp(zp)[1])
    plan = _plan_chain(n, PathSpec(complex(b), (LineTo(complex(zp)),)),
                       prec + extra, min(b, 1 - zp))
    row = _step_plan(plan)[1]
    with mp.workprec(plan.F):
        ratio = max(abs(_from_fixed(x, y, plan.F) - w)
                    / (mp.mpmathify(plan.radius) + mp.ldexp(abs(w), -prec - 6))
                    for x, y, w in zip(*row, _li_row(n, mp.mpc(zp), prec)))
    return FlatnessReport(passed and ratio <= 1, float(ratio))


TrivialSubReport = namedtuple("TrivialSubReport", "passed details")


def trivial_subobject_check(n):
    """The line spanned by e_0 carries trivial monodromy and every monodromy
    is unipotent, read from the exact tags of connection(n): column 0 is
    all ZERO and no tag on or below the diagonal is nonzero.

    Proof.  The solution matrix satisfies dL = L A, A the evaluated
    connection, and a step's transition T solves dT = T A from T = I; a
    monodromy is M = L(b) P L(b)^-1, P the product of the loop's transitions
    (``monodromy``).
    - A e_0 = 0, so d(T e_0) = T A e_0 = 0 and T e_0 = e_0; so P e_0 = e_0.
      L e_0 is constant for the same reason, and is e_0, the first column of
      the fundamental solution, so every monodromy fixes e_0.
    - A is strictly upper triangular, so every product of its values is
      too, and T, I plus a convergent sum of iterated integrals of such
      products, is unipotent.  So is P, and so is every monodromy M,
      conjugate to P: (M - I)^(n+1) = 0.
    A failure names each slot that breaks the shape.
    """
    details = []
    for i, row in enumerate(connection(n).entries):
        for j, tag in enumerate(row[:i + 1]):
            if tag != OneForm.ZERO:
                details.append(f"connection entry ({i}, {j}) is {tag.value}: "
                               + ("e_0 is not flat" if j == 0 else
                                  "not strictly upper triangular"))
    return TrivialSubReport(passed=not details, details=tuple(details))
