"""Evaluating polylogarithms and assembling the fundamental solution matrix.

Li_n(z) = sum z^k / k^n converges on the unit disk; the series evaluator
stops at a proven tail bound.  The (n+1) x (n+1) solution matrix has the
Li values in row 0 and powers of 2*pi*i with logarithms below.
"""

import mpmath as mp

from polylogvar import li_series, principal_lambda

mp.mp.pretty = True

print("Li_1(1/2) = -log(1 - 1/2):")
print("  series :", mp.nstr(li_series(1, 0.5, prec=128), 25))
with mp.workprec(128):
    print("  log 2  :", mp.nstr(mp.log(2), 25))

print("\nLi_2(-1) = -pi^2/12 (alternating endpoint of the disk):")
print("  series :", mp.nstr(li_series(2, -1, prec=128), 25))
with mp.workprec(128):
    print("  exact  :", mp.nstr(-mp.pi ** 2 / 12, 25))

print("\nFundamental solution at z = 1/2, weight 3 (principal branch):")
lam = principal_lambda(3, 0.5)
for row in lam.entries:
    print("  [" + ", ".join(mp.nstr(v, 8) for v in row) + "]")
print("branch:", lam.branch_tag)
print("column 0 is e_0; row 3 is (0, 0, 0, (2 pi i)^3); all entries above "
      "the diagonal mix Li and log values.")
