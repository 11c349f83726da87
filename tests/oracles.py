"""Independent reference values for the test suite.

Everything here goes through mpmath's own polylog/log/pi machinery at 256
bits (more where a check at 256 bits needs a finer reference), through
direct series with proven error bounds, or, for the paving, through a direct
per-simplex count - never through the package code paths being tested.
"""

import mpmath as mp
import numpy as np

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


def ref_minus_log1m(z):
    """-log(1-z) at 256-bit precision (equals Li_1)."""
    with mp.workprec(ORACLE_PREC):
        return -mp.log(1 - mp.mpc(z))


def alternating_li2_minus1():
    """Li_2(-1) summed as an accelerated alternating series."""
    with mp.workprec(ORACLE_PREC):
        return mp.nsum(lambda k: (-1) ** k / k ** 2, [1, mp.inf], method="a")


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
