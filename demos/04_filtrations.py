"""The connection, the two flags on a fiber, and the block comparison with
the rank-2 logarithmic system.

The weight flag is spanned by leading basis vectors, the Hodge flag by
trailing columns of the solution matrix; each graded piece must be a line of
pure type (k, k).  The solution matrix is upper triangular with diagonal
(2*pi*i)^k, so that is read from which of its entries are exactly zero, with
no tolerance.  The flatness check reads the connection's tags, ties rows
1..n to their closed form and row 0 to the row transported from z/2, each by
a proved radius.  The lower-right block of the solution matrix is the
2*pi*i-twist of a divided-power symmetric power of [[1, log z], [0, 2*pi*i]].
"""

import mpmath as mp

from polylogvar import (FilteredFiber, canonical_loop, connection,
                        flatness_residual, graded_dimensions,
                        hodge_transversality_check, kummer_block_check,
                        principal_lambda, transport)

n = 3
c = connection(n)
print("connection tags (weight 3):")
for row in c.entries:
    print("  [" + ", ".join(t.value.rjust(9) for t in row) + "]")

print("\nflatness at z = 1/2 (row 0's distance over its proved radius):")
for m in (1, 2, 4, 20):
    reps = [flatness_residual(m, 0.5, prec=p) for p in (128, 256)]
    print(f"  weight {m}: {reps[0].residual:.2e} at 128 bits, "
          f"{reps[1].residual:.2e} at 256 bits, "
          f"{'pass' if all(r.passed for r in reps) else 'fail'}")

lam = principal_lambda(n, 0.5)
fib = FilteredFiber.from_period_matrix(lam)
print("\nweight graded dimensions:", graded_dimensions(fib))
print("transversality (each graded piece pure of type (k,k), exactly):",
      hodge_transversality_check(fib).passed)

moved = transport(n, canonical_loop(0), lam)
print("still transversal after a loop around 0:",
      hodge_transversality_check(FilteredFiber.from_period_matrix(moved)).passed)

print("\ndivided-power symmetric-power block, weights 1..4 at z = 0.3/0.5/0.7:")
ok = all(kummer_block_check(m, mp.mpf(z)).passed
         for m in range(1, 5) for z in ("0.3", "0.5", "0.7"))
print("  all pass:", ok)
