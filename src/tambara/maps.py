"""Tambara structure maps for cyclic groups: restriction, transfer and
norm, in both the transitive basis and ghost coordinates.  Conjugation
is the identity, since the group is abelian, and has no function here.

The norm is the hard map.  It is fixed by its marks: the mark of N(X)
at C_i is the mark of X at C_gcd(i,k) raised to the power h/lcm(i,k).
``norm`` computes the marks of X once, at the divisors of its level k,
raises each to those powers and reads the element back through
``burnside.unghost``, the package's one inversion of the marks, whose
integrality check must pass.  ``norm_ghost`` is the same map on ghost
vectors, the cross-check that the tests and the benchmark hold ``norm`` to.
"""

from __future__ import annotations

from math import gcd

from .burnside import BurnsideElement, GhostVector, NotInGhostImage, marks, unghost
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
    below = marks(x, k)
    powers = {}
    for kappa in divisors(h):
        g = gcd(kappa, k)
        powers[kappa] = below[g] ** (h * g // (kappa * k))
    try:
        return unghost(GhostVector(h, powers))
    except NotInGhostImage as err:
        raise InvariantError(f"norm of {x} to C_{h}: {err}") from err


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
