"""Independent reference values for the test suite.

Everything here goes through mpmath's own polylog/log/pi machinery at 256
bits (more where a check at 256 bits needs a finer reference), through
direct series with proven error bounds, for the paving through a direct
per-simplex count on the whole stream drawn at once, for the Arnol'd
algebra through exhaustive elimination of its relation multiples, for ranks
over F_2 and poset homology through dense mod-2 elimination and signed
boundary maps reduced over Q, for the EL-labelling of Pi_n through a check
of every interval from every partition, for Hodge transversality through nullspaces
over Q, and for cube integrals through a tensor Gauss-Legendre rule on the
cube itself - never through the package code paths being tested.
"""

import cmath
import collections
import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from polylogvar.linalg_exact import sparse_rref
from polylogvar.mpoly import MPoly

ORACLE_PREC = 256

# frozen at 256 bits
LOG2 = "0.6931471805599453094172321214581765680755"
PI2_OVER_12 = "0.8224670334241132182362075833230125946095"
LI2_HALF = "0.5822405264650125059026563201596801087442"
LI3_HALF = "0.5372131936080402009406232255949658266704"


def ref_polylog(n, z, prec=ORACLE_PREC):
    """mpmath's independent polylogarithm at ``prec`` bits (default 256),
    plus as many bits as |z| is below 1: mpmath forms Li_1(z) as
    -log(1 - z), which keeps none of a z below 2^-prec."""
    extra = max(0, -mp.mag(z)) if z else 0
    with mp.workprec(prec + extra):
        return mp.polylog(n, mp.mpc(z))


def ref_solution(n, z, prec=ORACLE_PREC):
    """L(z) on the principal branch, from mpmath's polylog and log."""
    with mp.workprec(prec):
        z = mp.mpc(z)
        lg = mp.log(z)
        two_pi_i = 2j * mp.pi
        L = mp.matrix(n + 1, n + 1)
        L[0, 0] = 1
        for j in range(1, n + 1):
            L[0, j] = ref_polylog(j, z, prec)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                L[i, j] = two_pi_i ** i * lg ** (j - i) / mp.factorial(j - i)
        return L


def period_matrix_invariants(lam):
    """Whether the PeriodMatrix ``lam`` has column 0 equal to e_0, row n
    equal to (0, ..., 0, (2 pi i)^n) and zeros below the diagonal, entry
    (n, n) compared with mpmath's ``almosteq``."""
    n, rows = lam.n, lam.entries
    return (rows[0][0] == 1
            and all(rows[i][j] == 0 for i in range(n + 1) for j in range(i))
            and mp.almosteq(rows[n][n], (2j * mp.pi) ** n))


def ref_minus_log1m(z):
    """-log(1-z) at 256-bit precision (equals Li_1)."""
    with mp.workprec(ORACLE_PREC):
        return -mp.log(1 - mp.mpc(z))


def alternating_li2_minus1():
    """Li_2(-1) summed as an accelerated alternating series."""
    with mp.workprec(ORACLE_PREC):
        return mp.nsum(lambda k: (-1) ** k / k ** 2, [1, mp.inf], method="a")


def ref_generator(n, which, sign):
    """The closed form of M_which^sign, sign = +-1, the monodromy about
    puncture 0 or 1 at weight n: M_0^sign has row 0 = e_0 and
    sign^(j-i) / (j-i)! at (i, j), j >= i, on rows 1..n; M_1^sign is
    I - sign E_01."""
    m = [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    if which == 1:
        m[0][1] = Fraction(-sign)
    else:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                m[i][j] = Fraction(sign ** (j - i), math.factorial(j - i))
    return m


def ref_li_disk_counts(prec, z):
    """(K, F) as ``analytic._li_disk_size``'s docstring defines them for a
    complex z of doubles with 0 < |z| <= 3/4, r = |z| and t = prec + 10:
    rho = m 2^-P with P = 24 + min(t + 1, L), L the largest L >= 0 with
    r < 2^-L, and m the least integer with m >= r 2^P; K the least count
    with rho^K <= 2^-t (1 - rho), and F = t + f for the least f with
    2^f (1 - rho) >= 5 (K + 1).  Everything is decided in Fractions, r
    entering only through r^2; a 600-bit mpmath estimate only picks where
    the search for K starts."""
    r2 = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    t = prec + 10
    L = 0
    while L <= t and r2 < Fraction(1, 4 ** (L + 1)):
        L += 1
    P = 24 + L
    c = r2 * 4 ** P  # m is the least integer with m^2 >= c
    m = math.isqrt(math.ceil(c))
    m += m * m < c
    rho = Fraction(m, 2 ** P)
    T = Fraction(1, 2 ** t)

    def tail_ok(K):
        return rho ** K <= T * (1 - rho)

    with mp.workprec(600):
        x = mp.mpf(m) / 2 ** P
        K = max(1, int(mp.ceil((t - mp.log(1 - x, 2)) / -mp.log(x, 2))))
    while not tail_ok(K):
        K += 1
    while K > 1 and tail_ok(K - 1):
        K -= 1
    f = 0
    while 2 ** f * (1 - rho) < 5 * (K + 1):
        f += 1
    return K, t + f


def ref_word_monodromy(n, word):
    """The product, in word order, of ``ref_generator(n, which, sign)`` over
    the letters (which, sign) of ``word``."""
    out = [[Fraction(int(i == j)) for j in range(n + 1)]
           for i in range(n + 1)]
    for which, sign in word:
        g = ref_generator(n, which, sign)
        out = [[sum(row[k] * g[k][j] for k in range(n + 1))
                for j in range(n + 1)] for row in out]
    return out


def ref_loop_word(path, step=1e-3):
    """The word, in letters (which, sign) as ``ref_word_monodromy`` takes
    them, of a closed path based at real b in (0, 1), read from its signed
    crossings of the rays (-oo, 0) and (1, oo).

    C minus the two rays is simply connected, so a loop is homotopic to the
    product, in the order met, of one generator loop per crossing: a
    crossing of (-oo, 0) from the upper half-plane to the lower is the
    counterclockwise loop about 0, (0, 1), and one of (1, oo) from the lower
    to the upper is that about 1, (1, 1); the other ways are their inverses.
    The path is followed in floats, lines exactly and arcs on their chords
    at most ``step`` long.  A stretch on the real axis counts as one point:
    the path crosses where it leaves the axis to the other side, at the
    first point it reached the axis; that stretch cannot pass a puncture."""
    points, z = [path.base_point], path.base_point
    for seg in path.segments:
        if hasattr(seg, "end"):
            points.append(seg.end)
        else:
            w = z - seg.center
            k = max(1, math.ceil(abs(seg.sweep * w) / step))
            points += [seg.center + w * cmath.exp(1j * seg.sweep * i / k)
                       for i in range(1, k + 1)]
        z = points[-1]
    word, side, touch = [], 0, None
    for a, b in zip(points, points[1:]):
        sign = (b.imag > 0) - (b.imag < 0)
        if not sign:
            touch = b.real if touch is None else touch
            continue
        if side and sign != side:
            x = touch if touch is not None else \
                a.real + (b.real - a.real) * a.imag / (a.imag - b.imag)
            if x < 0:
                word.append((0, side))
            elif x > 1:
                word.append((1, -side))
        side, touch = sign, None
    return word


def ref_winding(points):
    """The winding m about 0 of the polygon through ``points`` (Python
    complex numbers or mpc), from a first point on (0, oo) and with every
    step turning by less than pi about 0, read in floats: the float64 sum
    of the phases Arg(z1 / z0) of its steps, less the Arg of its last point
    (mpmath's atan2 at 64 bits, which reads the sign of the imaginary part
    exactly), over 2 pi, rounded.  Arg is in (-pi, pi], so a last point on
    (-oo, 0) has Arg pi."""
    turn = math.fsum(cmath.phase(complex(z1) / complex(z0))
                     for z0, z1 in zip(points, points[1:]))
    with mp.workprec(64):
        end = float(mp.arg(mp.mpc(points[-1])))
    return round((turn - end) / (2 * math.pi))


def ref_eulerian(r):
    """Coefficients of E_r, lowest degree first, from the explicit
    alternating sum A(r, m) = sum_j (-1)^j C(r+1, j) (m+1-j)^r."""
    return [sum((-1) ** j * math.comb(r + 1, j) * (m + 1 - j) ** r
                for j in range(m + 1)) for m in range(r)] or [1]


def ref_on_cube(poly, n):
    """The polynomial ``poly`` in (z, tau) as a polynomial in the cube
    coordinates (z, t_1..t_n): tau -> t_1...t_n (the empty product 1 at
    n = 0), summed term by term from MPoly products
    z^a (t_1 * ... * t_n)^d."""
    nv = n + 1
    z = MPoly.var(nv, 0)
    tau = MPoly.const(nv, 1)
    for i in range(1, nv):
        tau = tau * MPoly.var(nv, i)
    out = MPoly(nv, {})
    for (a, d), c in poly.terms.items():
        out = out + c * z ** a * tau ** d
    return out


def ref_omega(n, k, _exponent_shift=0):
    """(num, den) of omega(n, k) in the cube coordinates (z, t_1..t_n),
    built from MPoly products: x = z * (t_1...t_n), the numerator
    sum_d E_r[d] z x^d term by term with E_r from ``ref_eulerian``, and the
    denominator (1 - x)^(r + 1 + _exponent_shift) by ``**``."""
    nv = n + 1
    one = MPoly.const(nv, 1)
    if k == 0:
        return one, one
    r = n - k
    z = MPoly.var(nv, 0)
    x = z * MPoly(nv, {(0,) + (1,) * n: 1})
    num = MPoly(nv, {})
    for d, c in enumerate(ref_eulerian(r)):
        num = num + c * z * x ** d
    return num, (one - x) ** (r + 1 + _exponent_shift)


def ref_cube_text(n, num, den):
    """The printed form of (num/den) dt_1...dt_n for a (num, den) pair in
    the cube coordinates: each MPoly repr with x0 named z and x_i named
    t_i, the higher indices replaced first."""
    texts = []
    for poly in (num, den):
        text = repr(poly)
        for i in range(n, 0, -1):
            text = text.replace(f"x{i}", f"t{i}")
        texts.append(text.replace("x0", "z"))
    tag = "".join(f" dt{i}" for i in range(1, n + 1)) or " (0-form)"
    return f"({texts[0]}) / ({texts[1]})" + tag


def ref_cube_integral(n, k, z, order=24):
    """Integral of omega(n, k) over the unit n-cube, n <= 3, by the
    order^n-point tensor Gauss-Legendre rule of numpy's ``leggauss``.

    The integrand z E_r(x) / (1 - x)^(r+1), x = z t_1...t_n, r = n - k, takes
    E_r's coefficients from the explicit sum
    A(r, m) = sum_j (-1)^j C(r+1, j) (m+1-j)^r, not from the package's
    recurrence.  For |z| <= 0.6 the pole in each t_i lies at distance >= 2/3
    beyond [0, 1], so order 24 is exact to rounding.
    """
    if not 1 <= n <= 3:
        raise ValueError("the tensor oracle covers 1 <= n <= 3")
    nodes, weights = leggauss(order)
    nodes, weights = (nodes + 1) / 2, weights / 2
    u, w = np.ones(1), np.ones(1)
    for _ in range(n):
        u = np.multiply.outer(u, nodes).ravel()
        w = np.multiply.outer(w, weights).ravel()
    if k == 0:
        return complex(w.sum())
    r, z = n - k, complex(z)
    coeffs = ref_eulerian(r)
    x = z * u
    return complex(np.sum(w * z * np.polyval(coeffs[::-1], x)
                          / (1 - x) ** (r + 1)))


def ref_paving_cover(pts, lo, hi, family):
    """For each row x of ``pts``, the number of entries s of ``family`` whose
    order simplex lo < x_{s^{-1}(1)} < ... < x_{s^{-1}(n)} < hi contains x
    strictly: one gathered copy of the points per permutation, compared
    coordinate by coordinate."""
    n = pts.shape[1]
    cover = np.zeros(len(pts), dtype=np.int64)
    for sigma in family:
        inv = [0] * n
        for pos, v in enumerate(sigma):
            inv[v - 1] = pos
        ordered = pts[:, inv]
        inside = (ordered[:, 0] > lo) & (ordered[:, -1] < hi)
        if n > 1:
            inside &= (np.diff(ordered, axis=1) > 0).all(axis=1)
        cover += inside
    return cover


def ref_paving_report(n, samples, family=None):
    """The fields of ``paving_check(n, z, samples, seed, family)``, which
    do not depend on z or seed.  ``passed``, ``min_cover`` and
    ``max_cover`` come from the family's multiset: the multiplicities of the
    n! permutations, each counted by scanning the family.  ``samples`` is
    echoed and ``redraws`` is 0."""
    perms = list(itertools.permutations(range(1, n + 1)))
    if family is None:
        family = perms
    cover = [sum(tuple(s) == p for s in family) for p in perms]
    volume_ok = len(family) == math.factorial(n)
    return dict(n=n, passed=set(cover) == {1} and volume_ok,
                samples=samples, redraws=0, min_cover=min(cover),
                max_cover=max(cover), volume_identity_ok=volume_ok)


def ref_rank_permutation(row):
    """For a row of integers: None if two of them are equal, else the
    tuple whose i-th entry is 1 + the number of entries below row[i]."""
    if len(set(row)) < len(row):
        return None
    return tuple(1 + sum(v < x for v in row) for x in row)


def arnold_relation_rows(n, degree):
    """Every nonzero product of a three-term relation
    e_ij e_ik - e_ij e_jk + e_ik e_jk (i < j < k) with a monomial of degree
    ``degree`` - 2 on K_n, in the exterior algebra: sparse rows mapping a
    sorted tuple of edge pairs to a Fraction."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        terms = ((((i, j), (i, k)), 1), (((i, j), (j, k)), -1),
                 (((i, k), (j, k)), 1))
        for rest in itertools.combinations(edges, degree - 2):
            row = {}
            for pair, coef in terms:
                word = pair + rest
                if len(set(word)) == len(word):
                    inv = sum(a > b for a, b in itertools.combinations(word, 2))
                    row[tuple(sorted(word))] = Fraction(coef * (-1) ** inv)
            if row:
                yield row


def _is_nbc(mono):
    """No vertex has two edges from below."""
    return len({b for _, b in mono}) == len(mono)


@functools.lru_cache(maxsize=None)
def _ref_arnold_top(n):
    """The top-degree relation multiples of K_n reduced by ``sparse_rref``
    with the nbc monomials in the lowest columns, so that every other
    monomial is a pivot equal to minus its tail of nbc monomials.  Returns
    (monomials by column, column by monomial, nbc monomials, rref); raises
    AssertionError if the non-pivot columns are not exactly the nbc
    monomials."""
    monos = sorted(itertools.combinations(
        itertools.combinations(range(1, n + 1), 2), n - 1),
        key=lambda m: (not _is_nbc(m), m))
    col = {m: c for c, m in enumerate(monos)}
    nbc = [m for m in monos if _is_nbc(m)]
    rref = sparse_rref([{col[m]: v for m, v in row.items()}
                        for row in arnold_relation_rows(n, n - 1)])
    if set(rref) != set(range(len(nbc), len(monos))):
        raise AssertionError("the nbc monomials are not the non-pivot columns")
    return monos, col, nbc, rref


def ref_arnold_action(n, perm):
    """Matrix of a vertex permutation (dict v -> image) on the nbc basis of
    the top Arnol'd component, by elimination: {(row monomial, column
    monomial): Fraction}, zeros left out."""
    monos, col, nbc, rref = _ref_arnold_top(n)
    out = {}
    for b in nbc:
        word = tuple(tuple(sorted((perm[u], perm[v]))) for u, v in b)
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(word, 2))
        c = col[tuple(sorted(word))]
        image = ({monos[c2]: -sign * v for c2, v in rref[c].items() if c2 != c}
                 if c in rref else {monos[c]: Fraction(sign)})
        for m, v in image.items():
            out[(m, b)] = v
    return out


def gf2_rank(matrix):
    """Rank over F_2 of a dense integer matrix (a list of equal-length
    rows): Gauss-Jordan elimination on the entries mod 2, with row swaps."""
    rows = [[v % 2 for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _set_partitions(items):
    """Every set partition of the tuple ``items``, as a frozenset of
    frozenset blocks: the first item joins a block of a partition of the
    rest, or a block of its own."""
    if not items:
        yield frozenset()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield part | {frozenset([first])}
        for block in part:
            yield (part - {block}) | {block | {first}}


@functools.lru_cache(maxsize=None)
def ref_poset_homology(n):
    """Reduced rational homology of the proper part of the partition lattice
    of {1..n}, as a tuple of (degree, dimension) for degrees 0 .. n-3: the
    order complex from set partitions compared block by block, and the
    ranks of its signed boundary maps from ``sparse_rref`` over Q."""
    elems = [p for p in _set_partitions(tuple(range(1, n + 1)))
             if 1 < len(p) < n]
    coarser = {a: [b for b in elems if len(b) < len(a) and
                   all(any(x <= y for y in b) for x in a)] for a in elems}
    chains = [[(p,) for p in elems]]
    while chains[-1]:
        chains.append([c + (p,) for c in chains[-1] for p in coarser[c[-1]]])
    ranks = [1]  # the augmentation
    for q in range(1, len(chains) - 1):
        col = {c: k for k, c in enumerate(chains[q - 1])}
        ranks.append(len(sparse_rref(
            {col[c[:d] + c[d + 1:]]: Fraction((-1) ** d) for d in range(q + 1)}
            for c in chains[q])))
    ranks.append(0)
    return tuple((q, len(chains[q]) - ranks[q] - ranks[q + 1])
                 for q in range(len(chains) - 1))


def _canonical_partitions(n):
    """Every set partition of {1..n} as a tuple of sorted block tuples,
    ordered by their minima."""
    return [tuple(sorted(tuple(sorted(b)) for b in p))
            for p in _set_partitions(tuple(range(1, n + 1)))]


def _interval_pass(n, x, up):
    """Check every [x, y] by rank, carrying the increasing and decreasing
    chains from x by last label and the least word with its chain count;
    return the decreasing maximal chains of [x, 1]."""
    inc, dec = collections.defaultdict(collections.Counter), \
        collections.defaultdict(collections.Counter)
    inc[x][0], dec[x][n + 1] = 1, 1  # labels lie in 1..n
    least, level = {x: ((), 1)}, [x]
    while up[level[0]]:
        words = collections.defaultdict(collections.Counter)
        for z in level:
            for y, k in up[z]:  # chains to z, last label j, then label k
                inc[y][k] += sum(c for j, c in inc[z].items() if j < k)
                dec[y][k] += sum(c for j, c in dec[z].items() if j >= k)
                words[y][least[z][0] + (k,)] += least[z][1]
        level = sorted(words)
        for y in level:
            w, count = least[y] = min(words[y].items())
            if (count != 1 or sum(inc[y].values()) != 1
                    or any(a >= b for a, b in zip(w, w[1:]))):
                raise ArithmeticError(f"not an EL-labelling of Pi_{n}")
    return sum(dec[level[0]].values())


def ref_el_all_intervals(n, label):
    """The EL check of ``label`` on every interval [x, y] of Pi_n, one pass
    from each of the Bell(n) partitions x; ArithmeticError if an interval
    fails it, else the number of decreasing maximal chains of Pi_n.
    ``label(blocks, a, b)`` labels the merge of blocks a < b."""
    parts = _canonical_partitions(n)
    index = {bs: i for i, bs in enumerate(parts)}
    up = [[(index[tuple(sorted(bs[:a] + bs[a + 1:b] + bs[b + 1:]
                                + (tuple(sorted(bs[a] + bs[b])),)))],
            label(bs, a, b))
           for a, b in itertools.combinations(range(len(bs)), 2)]
          for bs in parts]
    chains = [_interval_pass(n, x, up) for x in range(len(up))]
    return chains[index[tuple((i,) for i in range(1, n + 1))]]


def _nullspace(rows, ncols):
    """A basis over Q of {c : row . c = 0 for every row}, each row a list of
    ``ncols`` Fractions, read off the reduced echelon form of ``sparse_rref``:
    one vector per free column."""
    pivots = sparse_rref({j: v for j, v in enumerate(row) if v} for row in rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for lead, row in pivots.items():
            vec[lead] = -row.get(free, 0)
        basis.append(vec)
    return basis


def ref_transversality_failures(matrix):
    """The k at which a square Fraction matrix A fails Hodge transversality,
    by nullspaces over Q: the combinations of columns k..n that vanish in
    rows k+1..n must form a line with a nonzero row k, and those of columns
    k+1..n must all vanish in row k as well."""
    n = len(matrix) - 1
    failing = set()
    for k in range(n + 1):
        below = matrix[k + 1:]
        null = _nullspace([row[k:] for row in below], n + 1 - k)
        if len(null) != 1 or not any(
                sum(a * c for a, c in zip(matrix[k][k:], v)) for v in null):
            failing.add(k)
            continue
        null = _nullspace([row[k + 1:] for row in below], n - k)
        if any(sum(a * c for a, c in zip(matrix[k][k + 1:], v)) for v in null):
            failing.add(k)
    return failing
