"""Partition-lattice combinatorics: the proper part's homology, top Arnol'd
components, characters, the graded Stirling identity, and the simplex paving.

Everything here is exact: homology dimensions come from the decreasing
maximal chains of an EL-labelling checked on every lower interval (each
interval of the lattice is one, label for label), characters from
the permutation action on the nbc basis of the Arnol'd algebra, and the
paving verdict from the family's multiplicities and a symbolic volume
identity; it draws no point.
"""

import math

from polylogvar import (arnold_character, arnold_dimension, bell_number,
                        induced_character_check, partitions_of, paving_check,
                        poset_homology, postnikov_graded_check,
                        sign_multiplicity)

print("set partitions of {1..5}:", len(partitions_of(5)), "= Bell(5) =",
      bell_number(5))

print("\nreduced homology of the proper partition lattice (over Q, from a "
      "checked EL-labelling):")
for n in (3, 4, 5, 6):
    hom = poset_homology(n)
    top = dict(hom)[n - 3]
    print(f"  n={n}: {list(hom)}   top dim = {top} = (n-1)! = {math.factorial(n-1)}")

print("\ntop Arnol'd component dimensions (nbc straightening):")
for n in (2, 3, 4, 5, 6):
    print(f"  n={n}: {arnold_dimension(n)}")

print("\ncharacter of the action on the top component, n = 3, classes "
      "(3),(2,1),(1^3):", [str(v) for v in arnold_character(3).values])
print("sign multiplicity vanishes for n = 2..6:",
      all(sign_multiplicity(n) == 0 for n in range(2, 7)))
print("induced-from-cyclic identity holds for n = 2..6:",
      all(induced_character_check(n) for n in range(2, 7)))

print("\ngraded dimensions against unsigned Stirling numbers:")
for n in (3, 4, 8):
    rep = postnikov_graded_check(n)
    print(f"  n={n}: pass={rep.passed}, rows (k, sum, stirling) = {rep.table}")

print("\npaving of the open cube (1, 1/z)^n by order simplices:")
rep = paving_check(3, 0.5, 1, seed=0)
print(f"  n=3, z=1/2, all 3! orders: pass={rep.passed} "
      f"(every tie-free point in exactly one simplex; volume identity "
      f"{rep.volume_identity_ok})")
