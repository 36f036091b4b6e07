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
Both estimate the size of their output before any power is taken and
refuse, with BudgetExceeded, one past NORM_BIT_LIMIT bits.
"""

from __future__ import annotations

from math import gcd

from .burnside import BurnsideElement, GhostVector, NotInGhostImage, marks, unghost
from .lattice import BudgetExceeded, InvariantError, divisors, require_divides

# The most bits a norm's output may reach by its a-priori estimate.  For
# scale: 3 normed from level 1 to 20160, the largest norm the CLI tests
# print, has 31,953-bit marks; a 10-digit coefficient there is estimated
# at 685,447 bits and runs, a 20-digit one at 1.35 Mbit and is refused.
NORM_BIT_LIMIT = 2**20


def _check_norm_bits(values, k: int, h: int, extra: int = 0) -> None:
    """Refuse a norm from level k to level h of an element with the given
    marks when its output may pass NORM_BIT_LIMIT bits.  Each output mark
    is an input mark raised to at most h/k, so it has at most (h/k)*B
    bits, B the bit length of the largest input mark in absolute value,
    and at most B when that mark is 0 or +-1; ``extra`` adds the bits of
    reading the marks back."""
    bits = max(map(int.bit_length, values), default=0)
    bits = (bits * (h // k) if bits > 1 else bits) + extra
    if bits > NORM_BIT_LIMIT:
        raise BudgetExceeded(
            f"a norm from level {k} to {h} of up to {bits} bits "
            f"exceeds NORM_BIT_LIMIT = {NORM_BIT_LIMIT}"
        )


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
    """Multiplicative induction from level k up to level h (k | h);
    BudgetExceeded past NORM_BIT_LIMIT, before any power is taken."""
    k = x.level
    require_divides(k, h, "norm target")
    below = marks(x, k)
    divs = divisors(h)
    # unghost's coefficients are at most d(h) times the largest mark
    _check_norm_bits(below.values(), k, h, len(divs).bit_length())
    powers = {}
    for kappa in divs:
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
    """Norm in ghost coordinates: N(v)[i] = v[gcd(i,k)] ** (h/lcm(i,k));
    BudgetExceeded past NORM_BIT_LIMIT, before any power is taken."""
    k = v.level
    require_divides(k, h, "norm target")
    _check_norm_bits(v.values.values(), k, h)
    out = {}
    for i in divisors(h):
        lcm = i * k // gcd(i, k)
        out[i] = v.values[gcd(i, k)] ** (h // lcm)
    return GhostVector(h, out)
