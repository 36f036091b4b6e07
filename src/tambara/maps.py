"""Tambara structure maps for cyclic groups: restriction, transfer and
norm, in both the transitive basis and ghost coordinates.  Conjugation
is the identity, since the group is abelian, and has no function here.

The norm is the hard map.  On the transitive basis it is computed by the
inductive recursion

    C(K) = (sum over gcd(K,k) | i | k of m_i * (k/i)) ** (h / lcm(K,k))
           - sum over K < L | h of C(L)

evaluated in descending divisor order, with N(X) = sum C(K)/(h/K) * C_h/C_K;
the inner sum is exactly the mark of X at C_gcd(K,k).  Every division is
asserted exact.  In ghost coordinates the same map is a one-liner
(norm_ghost), kept as an independent cross-check of the recursion.
"""

from __future__ import annotations

from math import gcd

from .burnside import BurnsideElement, GhostVector
from .lattice import InvariantError, divisors, require_divides


def restrict(x: BurnsideElement, j: int) -> BurnsideElement:
    """Restrict the action of C_h to the subgroup C_j (j | h).

    An orbit C_h/C_k restricts to (h/k)/(j/gcd(k,j)) copies of
    C_j/C_gcd(k,j): stabilizers intersect down to C_gcd(k,j) and the
    point count is preserved.
    """
    h = x.level
    require_divides(j, h, "restriction target")
    acc: dict[int, int] = {}
    for k, m in x.coeffs.items():
        g = gcd(k, j)
        orbits, rem = divmod((h // k) * g, j)
        if rem:
            raise InvariantError("orbit count must be integral")
        acc[g] = acc.get(g, 0) + m * orbits
    return BurnsideElement(j, acc)


def transfer(x: BurnsideElement, h: int) -> BurnsideElement:
    """Induce from C_k up to C_h (k | h): C_k/C_j goes to C_h/C_j."""
    require_divides(x.level, h, "transfer target")
    return BurnsideElement(h, dict(x.coeffs))


def norm(x: BurnsideElement, h: int) -> BurnsideElement:
    """Multiplicative induction from level k up to level h (k | h)."""
    k = x.level
    require_divides(k, h, "norm target")
    hdivs = divisors(h)
    c: dict[int, int] = {}
    coeffs: dict[int, int] = {}
    for kappa in reversed(hdivs):
        lcm = kappa * k // gcd(kappa, k)
        value = x.mark(gcd(kappa, k)) ** (h // lcm)
        value -= sum(c[lam] for lam in hdivs if lam != kappa and lam % kappa == 0)
        c[kappa] = value
        q, r = divmod(value, h // kappa)
        if r:
            raise InvariantError(
                f"norm recursion produced non-integral C({kappa})/{h // kappa}"
            )
        if q:
            coeffs[kappa] = q
    return BurnsideElement(h, coeffs)


def ghost_res(v: GhostVector, j: int) -> GhostVector:
    """Restriction in ghost coordinates: keep the marks at divisors of j."""
    require_divides(j, v.level, "restriction target")
    return GhostVector(j, {i: v.values[i] for i in divisors(j)})


def ghost_tr(v: GhostVector, h: int) -> GhostVector:
    """Transfer in ghost coordinates: scale by the index below level k,
    zero elsewhere (C_i fixed points of an induced set vanish for i not
    inside C_k)."""
    k = v.level
    require_divides(k, h, "transfer target")
    scale = h // k
    return GhostVector(
        h, {i: scale * v.values[i] if k % i == 0 else 0 for i in divisors(h)}
    )


def norm_ghost(v: GhostVector, h: int) -> GhostVector:
    """Norm in ghost coordinates: N(v)[i] = v[gcd(i,k)] ** (h/lcm(i,k))."""
    k = v.level
    require_divides(k, h, "norm target")
    out = {}
    for i in divisors(h):
        lcm = i * k // gcd(i, k)
        out[i] = v.values[gcd(i, k)] ** (h // lcm)
    return GhostVector(h, out)
