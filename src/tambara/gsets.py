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

    Level and entries are exact ints, the level at least 1.  ``cycles``,
    its cycle lengths, comes from the one walk that validation makes;
    equality, hashing and repr see only ``level`` and ``perm``.
    """

    level: int
    perm: tuple[int, ...]
    cycles: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_divides(1, self.level, "level")
        # the entry check runs in C: map sets have up to DEFAULT_MAP_BUDGET entries
        if not {int}.issuperset(map(type, self.perm)):
            raise TypeError("entries must be ints")
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("action must be a permutation of 0..size-1")
        cycles = _cycle_lengths(self.perm)
        # require_divides(length, level) inline: oracle requests check every cycle
        for length in cycles:
            if self.level % length != 0:
                raise ValueError(
                    f"generator order must divide {self.level}; found a "
                    f"{length}-cycle"
                )
        object.__setattr__(self, "cycles", cycles)

    @classmethod
    def _built(cls, level: int, perm: tuple[int, ...]) -> "ConcreteGSet":
        """A set from this module's builders, whose permutation is valid by
        construction: the checks are skipped and only the cycles walked."""
        s = object.__new__(cls)
        vars(s).update(level=level, perm=perm, cycles=_cycle_lengths(perm))
        return s

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
    return ConcreteGSet._built(h, tuple(perm))


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
    return ConcreteGSet._built(h, tuple(range(s.size, h // k * s.size)) + s.perm)


def product(s: ConcreteGSet, t: ConcreteGSet) -> ConcreteGSet:
    """Cartesian product with the diagonal action."""
    if s.level != t.level:
        raise ValueError(f"level mismatch: {s.level} vs {t.level}")
    m = t.size
    perm = []
    for x in range(s.size):
        for y in range(m):
            perm.append(s.perm[x] * m + t.perm[y])
    return ConcreteGSet._built(s.level, tuple(perm))


def map_set_size(size: int, q: int) -> int | None:
    """The number of maps from q free points to a set of ``size`` points,
    size**q, or None when that is past DEFAULT_MAP_BUDGET (read when
    called).  A size of at least 2 raised to the budget's bit length is
    already past it, so no power beyond that is ever taken."""
    if size > 1 and q >= DEFAULT_MAP_BUDGET.bit_length():
        return None
    total = size**q
    return total if total <= DEFAULT_MAP_BUDGET else None


def map_set(h: int, k: int, x: ConcreteGSet) -> ConcreteGSet:
    """The C_h-set of C_k-equivariant maps C_h -> X.

    A map is determined by its values on the h/k coset representatives
    of C_k, freely chosen in X, so the set has |X|**(h/k) elements; maps
    are encoded as base-|X| numbers with the value at the first
    representative as the most significant digit.  The generator of C_h
    shifts representatives, feeding the overflow through the generator
    action on X.  Enumeration refuses (loudly) to exceed
    DEFAULT_MAP_BUDGET elements, counted by ``map_set_size``.
    """
    require_divides(k, h, "map-set target")
    if x.level != k:
        raise ValueError(f"map_set source must live at level {k}, got {x.level}")
    q = h // k
    size = x.size
    total = map_set_size(size, q)
    if total is None:
        raise BudgetExceeded(
            f"map set would have {size}**{q} elements, cap is {DEFAULT_MAP_BUDGET}"
        )
    if size == 0:
        return ConcreteGSet._built(h, ())
    # map first * size**(q-1) + rest goes to rest * size + x.perm[first]
    rests = range(0, total, size)  # rest * size, for every rest
    return ConcreteGSet._built(h, tuple(rest + image for image in x.perm for rest in rests))
