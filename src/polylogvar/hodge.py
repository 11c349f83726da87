"""The connection matrix, weight and Hodge filtrations on a fiber, and the
block-structure checks tying the fundamental solution to the rank-2
logarithmic (Kummer) system.

The filtrations are decided from the fiber's exact triangular shape, which
entries are zero, with no rank decision and no tolerance.  The Kummer block
is an exact identity in Q[log z, 2 pi i], tied to the computed matrix by
principal_lambda's proved radius, and the trivial subobject is read from the
connection's tags; neither check takes a tolerance.  The flatness check's
step follows the working precision.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

# monodromy is unused here; perfbench asserts hodge imports it (ROADMAP item 1)
from .analytic import kummer_rows, principal_lambda, monodromy  # noqa: F401
from .errors import DomainError
from .mpoly import MPoly


class OneForm(enum.Enum):
    ZERO = "0"
    DLOG_Z = "dz/z"
    DLOG_1MZ = "dz/(1-z)"


@dataclass(frozen=True)
class ConnectionMatrix:
    """Strictly upper triangular matrix of one-form tags, nonzero only on the
    superdiagonal: slot (0,1) carries dz/(1-z), slots (k,k+1) carry dz/z."""

    n: int
    entries: tuple

    def entry(self, i, j):
        return self.entries[i][j]


def connection(n):
    if n < 0:
        raise DomainError("n must be nonnegative")
    grid = [[OneForm.ZERO] * (n + 1) for _ in range(n + 1)]
    if n >= 1:
        grid[0][1] = OneForm.DLOG_1MZ
        for k in range(1, n):
            grid[k][k + 1] = OneForm.DLOG_Z
    return ConnectionMatrix(n, tuple(tuple(row) for row in grid))


def evaluate_connection(c, z, prec=128):
    """The coefficient matrix A(z): dz/z -> 1/z, dz/(1-z) -> 1/(1-z)."""
    with mp.workprec(prec):
        zc = mp.mpc(z)
        if zc == 0 or zc == 1:
            raise DomainError("connection has poles at z = 0 and z = 1")
        vals = {OneForm.ZERO: mp.mpc(0),
                OneForm.DLOG_Z: 1 / zc,
                OneForm.DLOG_1MZ: 1 / (1 - zc)}
        return [[vals[tag] for tag in row] for row in c.entries]


@dataclass(frozen=True)
class FilteredFiber:
    """A fiber with its two flags: W_{2k} spanned by e_0..e_k, and F^k by
    columns k..n of the solution matrix.

    The filtration checks read only the diagonal and the entries below it
    (hodge_transversality_check's docstring proves that this decides
    transversality for an upper-triangular fiber).  So the CLI's
    ``filtration`` builds its fiber without row 0's Li series and leaves
    None in row 0 above the diagonal."""

    n: int
    matrix: tuple  # (n+1) x (n+1) nested tuples, mpmath or python complex

    @classmethod
    def from_period_matrix(cls, pm):
        return cls(pm.n, pm.entries)


def graded_dimensions(fiber):
    """Dimensions of the weight graded pieces W_{2k}/W_{2k-2}, k = 0..n.

    W_{2k} is spanned by e_0..e_k by definition, whatever the fiber, so each
    graded piece is the line spanned by the image of e_k.
    """
    return [(2 * k, 1) for k in range(fiber.n + 1)]


@dataclass(frozen=True)
class TransversalityReport:
    passed: bool
    failures: tuple  # (k, reason) pairs


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


@dataclass(frozen=True)
class BlockReport:
    passed: bool
    max_error: float
    failing_entry: tuple | None


def _closed_block(n):
    """Rows and columns 1..n of the weight-n solution matrix in Q[l, tau],
    l = log z and tau = 2 pi i: entry (a, b) is tau^(a+1) l^(b-a) / (b-a)!
    on and above the diagonal, the closed form of principal_lambda."""
    return [[MPoly(2, {(b - a, a + 1): Fraction(1, math.factorial(b - a))})
             if b >= a else MPoly(2) for b in range(n)] for a in range(n)]


@lru_cache(maxsize=None)
def _kummer_identity(n):
    """Whether tau Sym^(n-1)[[1, l], [0, tau]], in the divided-power basis,
    equals _closed_block(n), decided exactly in Q[l, tau].

    On the basis y^b x^(n-1-b), b = 0..n-1, the matrix sends x to x and y to
    l x + tau y, so column b of Sym^(n-1) holds the coefficients of
    y^a x^(b-a) in (l x + tau y)^b.  The powers are multiplied out one
    linear form at a time with x set to 1, as the exponent of x is b - a.
    The divided-power basis y^b / b! scales entry (a, b) by a! / b!.
    """
    y, lg, tau = (MPoly.var(3, i) for i in range(3))
    form, power = lg + tau * y, MPoly.const(3, 1)
    closed = _closed_block(n)
    for b in range(n):
        column = [{} for _ in range(n)]
        for (a, l, t), c in power.terms.items():
            column[a][l, t + 1] = c * Fraction(math.factorial(a),
                                               math.factorial(b))
        if [MPoly(2, col) for col in column] != [row[b] for row in closed]:
            return False
        power = power * form
    return True


def kummer_block_check(n, z, prec=128):
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
    and the test |g - w| <= (2^-(prec - 1) + 2^-(prec + 8)) |w| at F bits,
    its subtraction, modulus and product each within a relative 2u, accepts
    every correct entry.  Entries below the diagonal are 0 and must be 0
    exactly.  An entry more than 2^-(prec - 2) |W| from W fails.

    max_error is the largest |g - w| with w rounded to ``prec`` bits, as the
    matrix is; failing_entry is the first (i, j) outside its radius.
    """
    if n < 1:
        raise DomainError("kummer_block_check needs n >= 1")
    with mp.workprec(prec):
        z = mp.mpc(mp.mpmathify(z))
    rows = kummer_rows(n, z, prec=prec)
    closed = _closed_block(n)
    with mp.workprec(prec + 10 + (3 * n + 9).bit_length()):
        two_pi, lg = 2 * mp.pi, mp.log(z.real)
        want = {(1 + a, 1 + b): sum(
            (mp.mpc((1, 1j, -1, -1j)[t % 4])
             * (c.numerator * lg ** m * two_pi ** t / c.denominator)
             for (m, t), c in closed[a][b].terms.items()), mp.mpc(0))
            for a in range(n) for b in range(n)}
        radius = mp.ldexp(1, 1 - prec) + mp.ldexp(1, -(prec + 8))
        outside = [(i, j) for (i, j), w in want.items()
                   if abs(rows[i - 1][j] - w) > radius * abs(w)]
    with mp.workprec(prec):
        max_err = max(abs(rows[i - 1][j] - +w)
                      for (i, j), w in want.items())
    return BlockReport(passed=_kummer_identity(n) and not outside,
                       max_error=float(max_err),
                       failing_entry=outside[0] if outside else None)


def flatness_step(prec):
    """The step of flatness_residual at ``prec`` bits: 2^-floor(prec/3),
    exactly.  As a float it is 0.0 past 3224 bits, below the least double."""
    return mp.ldexp(1, -(prec // 3))


def flatness_residual(n, z=0.5, prec=192):
    """Max-entry residual of the centered finite difference
    (L(z+h) - L(z-h)) / (2h) against L(z) * A(z), with h = 2^-floor(prec/3).

    The step balances the difference's two errors.  Its truncation error is
    at most h^2/6 times the largest third derivative |L^(3)| on
    [z - h, z + h].  principal_lambda gives each entry of L to a relative
    2^-(prec - 1), so rounding adds about 2^-(prec - 1) |L| / h.  With h^3 of
    order 2^-prec both are of order 2^-(2 prec / 3) times the size of L and
    its derivatives, so the residual falls as the precision rises, where a
    fixed step stops at its own O(h^2).  Those sizes grow like (2 pi)^n:
    the residual stays below 1e-4, the bound of criterion 2 and of the
    flatness command, up to n = 20 at 128 bits, and n = 64 needs about 300.

    z is taken as given, so principal_lambda raises DomainError unless it is
    real (a complex z with imaginary part 0 counts as real).
    """
    with mp.workprec(prec):
        zr = mp.mpmathify(z)
        hh = flatness_step(prec)
        lp = principal_lambda(n, zr + hh, prec=prec)
        lm = principal_lambda(n, zr - hh, prec=prec)
        l0 = principal_lambda(n, zr, prec=prec)
        A = evaluate_connection(connection(n), zr, prec=prec)
        resid = mp.mpf(0)
        for i in range(n + 1):
            for j in range(n + 1):
                fd = (lp.entries[i][j] - lm.entries[i][j]) / (2 * hh)
                prod = sum((l0.entries[i][k] * A[k][j] for k in range(n + 1)),
                           mp.mpc(0))
                resid = max(resid, abs(fd - prod))
        return float(resid)


@dataclass(frozen=True)
class TrivialSubReport:
    passed: bool
    details: tuple


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
