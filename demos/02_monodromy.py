"""Transporting the fundamental solution around the punctures and reading
off exact monodromy matrices.

Continuation around z = 1 subtracts row 1 from row 0 (the classical jump of
-log(1-z) by 2*pi*i); continuation around z = 0 shifts log z by 2*pi*i and
fills in reciprocal factorials.  The normalization by powers of 2*pi*i makes
every entry an exact rational, which transport certifies by a proved radius:
entry (0, j) lies in (1/j!)Z, and the radius is below half that spacing.
"""

from polylogvar import RationalMatrix, canonical_loop, monodromy, nilpotency_index
from polylogvar.paths import LineTo, PathSpec


def show(name, M):
    print(f"{name}:")
    for row in M.entries:
        print("  [" + ", ".join(str(v).rjust(5) for v in row) + "]")
    print("  nilpotency index of M - I:", nilpotency_index(M))


for n in (1, 2, 3):
    print(f"== weight {n} ==")
    show("loop around 1", monodromy(n, canonical_loop(1)))
    show("loop around 0", monodromy(n, canonical_loop(0)))
    print()

# homotopy invariance: a rectangle around 1 gives the identical exact matrix
square = PathSpec(complex(0.5, 0), tuple(LineTo(p) for p in [
    complex(0.6, -0.5), complex(1.4, -0.5), complex(1.4, 0.5),
    complex(0.6, 0.5), complex(0.6, -0.5), complex(0.5, 0)]),
    closed=True, name="square1")
A = monodromy(2, square)
B = monodromy(2, canonical_loop(1))
print("rectangle vs circle around 1 (weight 2): identical =", A == B)

# inverse loop composes to the identity, exactly
loop = canonical_loop(0)
M = monodromy(2, loop)
Minv = monodromy(2, loop.reversed())
print("M(loop0) * M(loop0 reversed) is the identity:",
      M * Minv == RationalMatrix.identity(3))
