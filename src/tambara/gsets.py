"""Brute-force ground truth: explicit finite sets with a cyclic action.

A C_h-set is stored as the permutation its fixed generator induces on
{0..size-1}; every structural operation (fixed points, orbits, induction,
products, equivariant map sets) is carried out by explicit enumeration.
This module is deliberately naive: it is the oracle the closed-form
formulas elsewhere in the package are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .burnside import BurnsideElement
from .lattice import BudgetExceeded, InvariantError, require_divides


class NegativeCoefficient(ValueError):
    """Only genuine G-sets (non-negative multiplicities) can be realized."""


DEFAULT_MAP_BUDGET = 10**6


@dataclass(frozen=True)
class ConcreteGSet:
    """A finite C_level-set: the generator acts by ``perm``.

    ``cycles``, its cycle lengths, comes from the one walk that validation
    makes; equality, hashing and repr see only ``level`` and ``perm``.
    """

    level: int
    perm: tuple[int, ...]
    cycles: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("action must be a permutation of 0..size-1")
        cycles = _cycle_lengths(self.perm)
        for length in cycles:
            if self.level % length != 0:
                raise ValueError(
                    f"generator order must divide {self.level}; found a "
                    f"{length}-cycle"
                )
        object.__setattr__(self, "cycles", cycles)

    @property
    def size(self) -> int:
        return len(self.perm)


def _cycle_lengths(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = bytearray(len(perm))
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(lengths)


def realize(x: BurnsideElement) -> ConcreteGSet:
    """Disjoint union of standard transitive models of x.

    Each orbit C_h/C_k becomes an (h/k)-cycle; m_k copies are laid out
    consecutively.
    """
    h = x.level
    perm: list[int] = []
    for k in sorted(x.coeffs):
        m = x.coeffs[k]
        if m < 0:
            raise NegativeCoefficient(
                f"cannot realize virtual element: coefficient {m} at C_{h}/C_{k}"
            )
        orbit = h // k
        for _ in range(m):
            base = len(perm)
            perm.extend(base + (i + 1) % orbit for i in range(orbit))
    return ConcreteGSet(h, tuple(perm))


def fixed_points(s: ConcreteGSet, i: int) -> int:
    """Number of points fixed by C_i, the subgroup generated by sigma^(h/i)."""
    require_divides(i, s.level, "fixed-point subgroup")
    power = s.level // i
    return sum(length for length in s.cycles if power % length == 0)


def decompose(s: ConcreteGSet) -> BurnsideElement:
    """Orbit decomposition: an orbit of size d contributes C_h/C_{h/d}."""
    h = s.level
    coeffs: dict[int, int] = {}
    for length in s.cycles:
        if h % length:
            raise InvariantError("orbit sizes divide the group order")
        k = h // length
        coeffs[k] = coeffs.get(k, 0) + 1
    return BurnsideElement(h, coeffs)


def induce(s: ConcreteGSet, h: int) -> ConcreteGSet:
    """Balanced product C_h x_{C_k} S: h/k shifted copies of S, the last
    wrapping through the original action."""
    k = s.level
    require_divides(k, h, "induction target")
    q = h // k
    size = s.size
    perm = []
    for r in range(q):
        for x in range(size):
            if r + 1 < q:
                perm.append((r + 1) * size + x)
            else:
                perm.append(s.perm[x])
    return ConcreteGSet(h, tuple(perm))


def product(s: ConcreteGSet, t: ConcreteGSet) -> ConcreteGSet:
    """Cartesian product with the diagonal action."""
    if s.level != t.level:
        raise ValueError(f"level mismatch: {s.level} vs {t.level}")
    m = t.size
    perm = []
    for x in range(s.size):
        for y in range(m):
            perm.append(s.perm[x] * m + t.perm[y])
    return ConcreteGSet(s.level, tuple(perm))


def map_set(
    h: int, k: int, x: ConcreteGSet, budget: int = DEFAULT_MAP_BUDGET
) -> ConcreteGSet:
    """The C_h-set of C_k-equivariant maps C_h -> X.

    A map is determined by its values on the h/k coset representatives
    of C_k, freely chosen in X, so the set has |X|**(h/k) elements; maps
    are encoded as base-|X| numbers with the value at the first
    representative as the most significant digit.  The generator of C_h
    shifts representatives, feeding the overflow through the generator
    action on X.  Enumeration refuses (loudly) to exceed ``budget``.
    """
    require_divides(k, h, "map-set target")
    if x.level != k:
        raise ValueError(f"map_set source must live at level {k}, got {x.level}")
    q = h // k
    size = x.size
    total = size**q
    if total > budget:
        raise BudgetExceeded(
            f"map set would have {size}**{q} = {total} elements, cap is {budget}"
        )
    if size == 0:
        return ConcreteGSet(h, ())
    msd = size ** (q - 1)
    perm = []
    for idx in range(total):
        first, rest = divmod(idx, msd)
        perm.append(rest * size + x.perm[first])
    return ConcreteGSet(h, tuple(perm))
