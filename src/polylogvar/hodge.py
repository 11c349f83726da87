"""The connection matrix, weight and Hodge filtrations on a fiber, and the
block-structure checks tying the fundamental solution to the rank-2
logarithmic (Kummer) system.

The filtrations are decided from the fiber's exact triangular shape, which
entries are zero, with no rank decision and no tolerance.  The flatness
check's step follows the working precision.
"""

import enum
from dataclasses import dataclass

import mpmath as mp

from .analytic import principal_lambda, monodromy
from .errors import DomainError
from .paths import canonical_loop


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
    columns k..n of the solution matrix."""

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


def kummer_block_check(n, z, tol=1e-10, prec=128):
    """Lower-right n x n block of the weight-n solution matrix against the
    2*pi*i-twisted divided-power symmetric power of the rank-2 logarithmic
    matrix [[1, log z], [0, 2*pi*i]].

    The symmetric power is expanded in the monomial basis (binomial
    coefficients) and rescaled by the divided-power diagonal
    diag(0!, ..., (n-1)!); the block entries of the solution matrix must then
    match entrywise within tol.

    The expected entries are formed at F = prec + 10 + bitlength(2 n + 16)
    bits, u = 2^-F, and rounded once to ``prec`` bits, as the matrix entries
    are.  2 pi i, log z, C(b, a), a! and b! are each within a relative 2u;
    mpmath forms an integer power x^m with one rounding of 2u on top of m
    times the error of x; each of the five products and quotients adds u.
    With m = b - a and a + m <= n - 1 an entry collects at most
    (2 a + 2 m + 17) u <= (2 n + 15) u < 2^-(prec + 10).  Both sides then
    round values that close to the same number, so max_error is zero, or one
    unit in the last place where that number lies within 2^-(prec + 9) of a
    rounding boundary, unless the matrix is off by more.
    """
    if n < 1:
        raise DomainError("kummer_block_check needs n >= 1")
    lam = principal_lambda(n, z, prec=prec)
    with mp.workprec(prec + 10 + (2 * n + 16).bit_length()):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        lg = mp.log(mp.mpc(mp.mpmathify(z)).real)
        # Sym^{n-1} in the monomial basis: S[a][b] = C(b, a) log^(b-a) (2 pi i)^a
        S = [[mp.mpc(0)] * n for _ in range(n)]
        for b in range(n):
            for a in range(b + 1):
                S[a][b] = mp.binomial(b, a) * lg ** (b - a) * two_pi_i ** a
        expected = [[two_pi_i * S[a][b] * mp.factorial(a) / mp.factorial(b)
                     for b in range(n)] for a in range(n)]
    with mp.workprec(prec):
        max_err = mp.mpf(0)
        worst = None
        for a in range(n):
            for b in range(n):
                got = lam.entries[1 + a][1 + b]
                err = abs(got - +expected[a][b])
                if err > max_err:
                    max_err = err
                    worst = (1 + a, 1 + b)
        passed = max_err <= tol
        return BlockReport(passed=passed, max_error=float(max_err),
                           failing_entry=None if passed else worst)


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


def trivial_subobject_check(n, tol=1e-12, prec=128, monodromies=None):
    """The line spanned by e_0 carries trivial monodromy: the reconstructed
    monodromy of both canonical loops fixes e_0 exactly (column 0 is e_0),
    and the solution matrix itself has column 0 equal to e_0.

    Precomputed monodromy matrices may be passed as {0: M, 1: M} to avoid
    repeating the transport.
    """
    details = []
    ok = True
    lam = principal_lambda(n, 0.5, prec=prec)
    col0 = [lam.entries[i][0] for i in range(n + 1)]
    if not (col0[0] == 1 and all(v == 0 for v in col0[1:])):
        ok = False
        details.append("solution matrix column 0 is not e_0")
    for which in (0, 1):
        if monodromies is not None and which in monodromies:
            M = monodromies[which]
        else:
            M = monodromy(n, canonical_loop(which), tol=tol, prec=prec)
        column = M.column(0)
        if not (column[0] == 1 and all(v == 0 for v in column[1:])):
            ok = False
            details.append(f"loop{which} monodromy moves e_0")
        if not M.is_upper_triangular():
            ok = False
            details.append(f"loop{which} monodromy is not upper triangular")
    return TrivialSubReport(passed=ok, details=tuple(details))
