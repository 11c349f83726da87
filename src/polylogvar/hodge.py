"""The connection matrix, weight and Hodge filtrations on a fiber, and the
block-structure checks tying the fundamental solution to the rank-2
logarithmic (Kummer) system.

Filtrations are handled as explicit spanning columns over double precision;
rank decisions use a pivot threshold relative to the largest column norm,
since entries grow like powers of 2*pi.
"""

import enum
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .analytic import principal_lambda, monodromy
from .errors import DomainError
from .paths import canonical_loop

RANK_REL_TOL = 1e-8


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

    def as_numpy(self):
        return np.array([[complex(v) for v in row] for row in self.matrix],
                        dtype=complex)

    def weight_basis(self, k):
        """Spanning columns of W_{2k} (standard basis vectors e_0..e_k)."""
        k = min(k, self.n)
        return np.eye(self.n + 1, dtype=complex)[:, :k + 1]

    def hodge_basis(self, k):
        """Spanning columns of F^k (columns k..n of the matrix)."""
        return self.as_numpy()[:, k:]


def _threshold(fiber):
    A = fiber.as_numpy()
    col_norms = np.linalg.norm(A, axis=0)
    return RANK_REL_TOL * max(col_norms.max(), 1.0)


def _rank(M, thresh):
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > thresh))


def _nullspace(M, thresh):
    if M.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    _, sv, vh = np.linalg.svd(M)
    rank = int(np.sum(sv > thresh))
    return vh[rank:].conj().T


def graded_dimensions(fiber):
    """Dimensions of the weight graded pieces W_{2k}/W_{2k-2}, k = 0..n."""
    thresh = _threshold(fiber)
    out = []
    prev = 0
    for k in range(fiber.n + 1):
        r = _rank(fiber.weight_basis(k), thresh)
        out.append((2 * k, r - prev))
        prev = r
    return out


@dataclass(frozen=True)
class TransversalityReport:
    passed: bool
    failures: tuple  # (k, reason) pairs


def hodge_transversality_check(fiber):
    """Each weight graded piece must be purely of type (k, k): F^k meets
    W_{2k} in a line projecting isomorphically onto the graded piece, while
    F^{k+1} meets W_{2k} only above the smaller weight step."""
    n = fiber.n
    thresh = _threshold(fiber)
    A = fiber.as_numpy()
    failures = []
    for k in range(n + 1):
        # F^k cap W_{2k}: combinations of columns k..n with entries k+1..n zero
        Fb = A[:, k:]
        null = _nullspace(Fb[k + 1:, :], thresh)
        inter = Fb @ null
        d = null.shape[1]
        proj = inter[k:k + 1, :]
        if d != 1 or _rank(proj, thresh) != 1:
            failures.append((k, f"F^{k} cap W_{2 * k} has dim {d}, "
                                f"graded projection rank {_rank(proj, thresh)}"))
            continue
        # F^{k+1} cap W_{2k} must project to zero in the graded piece
        Fb2 = A[:, k + 1:]
        null2 = _nullspace(Fb2[k + 1:, :], thresh)
        inter2 = Fb2 @ null2
        if inter2.size and _rank(inter2[k:k + 1, :], thresh) != 0:
            failures.append((k, f"F^{k + 1} cap W_{2 * k} hits the graded piece"))
    return TransversalityReport(passed=not failures, failures=tuple(failures))


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


def flatness_residual(n, z=0.5, h=1e-6, prec=192):
    """Max-entry residual of the centered finite difference
    (L(z+h) - L(z-h)) / (2h) against L(z) * A(z)."""
    with mp.workprec(prec):
        zr = mp.mpf(z)
        hh = mp.mpf(h)
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
