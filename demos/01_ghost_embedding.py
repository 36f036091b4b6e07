#!/usr/bin/env python3
"""Tour of the Burnside ring A(C_12) and its ghost embedding.

Elements are integer combinations of transitive sets C_12/C_k; the mark
homomorphisms count fixed points and embed the ring into a product of
copies of Z, where multiplication is pointwise.  Moebius inversion
recovers the element, and detects vectors that are not marks of anything.
"""

from tambara import (
    BurnsideElement,
    divisors,
    from_t,
    ghost,
    unghost,
    NotInGhostImage,
    GhostVector,
)

h = 12
print(f"Transitive basis of A(C_{h}):")
for k in divisors(h):
    x = BurnsideElement.transitive(h, k)
    print(f"  C_{h}/C_{k}: {x.mark(1)} points, marks {ghost(x).as_tuple()}")

print()
print("The t-notation names transitive sets by their size:")
t2, t3 = from_t(h, 2), from_t(h, 3)
print(f"  t_2 = {t2},  t_3 = {t3}")
print(f"  t_2 * t_3 = {t2 * t3}   (gcd(2,3) copies of t_6)")
print(f"  t_2 * t_2 = {t2 * t2}   (gcd(2,2) copies of t_2)")

print()
x = t2 * t3 - 2 * from_t(h, 6)
print(f"A virtual element: x = t_2*t_3 - 2*t_6 = {x}")
gx = ghost(x)
print(f"  ghost(x) = {gx.as_tuple()}  over divisors {divisors(h)}")
print(f"  unghost(ghost(x)) == x: {unghost(gx) == x}")

print()
print("Ring structure is pointwise on the ghost side:")
y = from_t(h, 4) + 3 * BurnsideElement.unit(h)
print(f"  y = {y}")
print(f"  ghost(x*y)            = {ghost(x * y).as_tuple()}")
print(f"  ghost(x) . ghost(y)   = {gx.pointwise_mul(ghost(y)).as_tuple()}")

print()
print("Not every integer vector is a ghost of an element; the image is cut")
print("out by divisibility constraints that Moebius inversion checks:")
bad = GhostVector(2, {1: 1, 2: 0})
try:
    unghost(bad)
except NotInGhostImage as err:
    print(f"  unghost((1, 0) at level 2) -> NotInGhostImage at divisor {err.divisor}")
    print(f"  ({err})")
