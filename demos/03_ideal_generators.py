#!/usr/bin/env python3
"""The ideals p_{C,p}: membership, the psi decomposition, and explicit
ring-theoretic generators whose span provably equals the kernel lattice.

Membership of X in p_{C,p} at level C_h asks that every mark of X at a
subgroup of C_gcd(h,c) vanishes mod p.  The generator list (p times the
unit, orbits of index divisible by p, and binomials pairing each cell of
the S_J partition with its maximal member) spans exactly the same
integer lattice, which we verify by comparing Hermite normal forms.
"""

from tambara import (
    BurnsideElement,
    IdealSpec,
    divisors,
    ghost,
    kernel_lattice,
    level_generators,
    member,
    psi,
    ring_ideal_lattice,
    s_partition,
)

n = 12
spec = IdealSpec(n, 2, 0)
print(f"Ideal {spec.label} inside the functor over C_{n}")

print()
print("The S_J partition of subgroups of C_12 by intersection with C_2:")
for j, (members, mj) in s_partition(n, 2).items():
    print(f"  J = C_{j}: cell {members}, maximal member C_{mj}")

print()
x = BurnsideElement(n, {4: 1, 12: -3})
print(f"x = {x}")
print(f"  member of {spec.label} at top level: {member(spec, x)}")
print(f"  marks: {ghost(x).as_tuple()}")
print(f"  cell sums psi^J(x) for J | 2: "
      f"{[psi(x, 2, j) for j in divisors(2)]}")

print()
print(f"Generators of {spec.label}(G/G):")
gens = level_generators(spec, n)
for g in gens:
    print(f"  {g}")

kl = kernel_lattice(spec, n)
rl = ring_ideal_lattice(n, gens)
print()
print("Hermite normal form of the kernel lattice:")
for row in kl.basis:
    print(f"  {list(row)}")
print(f"ring ideal of the generators spans the same lattice: {rl.same_span(kl)}")

print()
print("The same comparison over every (c, p) at n = 12:")
for c in divisors(n):
    for p in (0, 2, 3, 5):
        s = IdealSpec(n, c, p)
        ok = ring_ideal_lattice(n, level_generators(s, n)).same_span(
            kernel_lattice(s, n)
        )
        print(f"  {s.label:>12}: {'ok' if ok else 'MISMATCH'}")
