"""The explicit basis of n-forms on the cube and its exact identities.

omega(n, k) packs the Eulerian polynomial E_{n-k} of the product
x = z t_1...t_n over (1 - x)^(n-k+1); the z-derivative walks down the basis
exactly for k >= 2, and only up to an exact term for k = 1 - the package
keeps that distinction symbolic, never numeric.  Integrating omega(n, k)
over the unit cube recovers Li_k(z).
"""

import mpmath as mp

from polylogvar import (eulerian, form_recurrence_check, gauge_exactness_check,
                        integrate_cube, li_series, omega)

print("Eulerian polynomials (palindromic, E_r(1) = r!):")
for r in range(5):
    print(f"  E_{r}(x) =", eulerian(r).show([("x",)]))

print("\nomega(3, 1) =", omega(3, 1))

print("\nexact z-derivative recurrence, all weights up to 6:")
all_ok = all(form_recurrence_check(n, k)
             for n in range(2, 7) for k in range(2, n + 1))
print("  d/dz omega(n,k) == omega(n,k-1)/z for 2 <= k <= n <= 6:", all_ok)

print("\nweight-one gauge identity (exact, with vanishing boundary):",
      gauge_exactness_check())

print("\ncube integrals against the series (double-exponential rule in 1-D):")
for (n, k, z) in [(2, 2, mp.mpf("0.5")), (3, 1, mp.mpf("-1")),
                  (3, 3, mp.mpc("0.25", "0.25"))]:
    quad = integrate_cube(n, k, z, 1e-10)
    ref = li_series(k, z)
    print(f"  n={n} k={k} z={mp.nstr(z, 5)}: quad={mp.nstr(quad, 12)} "
          f"|quad - Li_k(z)| = {mp.nstr(abs(quad - ref), 3)}")
