"""The prime-candidate ideals of the Burnside functor of C_n.

An ideal here is named by a pair (C_c, p) with p a prime or zero: its
level at C_h consists of the elements whose marks vanish mod p at every
subgroup of C_gcd(h,c).  The module provides membership, the psi
cell sums along intersection-with-C_c cells, explicit ring-theoretic
generators, exact integer-lattice realizations of each level (so that
"generated ideal equals kernel" is an HNF matrix comparison), and
Nakaoka's primality condition Q: ``q_check`` evaluates it on one pair by
computing norms, and ``primality_probe`` decides it on a whole box of
pairs with one bitmask of covered mark conditions per element, grouped
into classes of equal masks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from operator import not_

from .burnside import BurnsideElement, from_vector, mark_table, to_vector
from .intlattice import hnf, in_row_span, is_sublattice, preimage_mod
from .lattice import (
    BudgetExceeded,
    InvariantError,
    check_prime_or_zero,
    divisors,
    require_divides,
    s_partition,
)
from .maps import norm, restrict

# The most elements a box, or a probe's boxes and mark table together,
# may hold.  The largest probe in the tests, demos and benchmark (n = 60,
# bound 2, support 2) keeps 2,596 box elements and 720 table marks; the
# probe takes about 5 us a box element, half a second at this cap.
BOX_LIMIT = 10**5


@dataclass(frozen=True)
class IdealSpec:
    """Names the ideal attached to (C_c, p) inside the functor over C_n."""

    n: int
    c: int
    p: int

    def __post_init__(self) -> None:
        require_divides(self.c, self.n, "ideal subgroup")
        check_prime_or_zero(self.p)

    @property
    def label(self) -> str:
        return f"p_{{C_{self.c},{self.p}}}"


def member(spec: IdealSpec, x: BurnsideElement) -> bool:
    """Is x in the ideal's level at C_h?  True iff every mark at a divisor
    of gcd(h, c) vanishes mod p (exactly, for p = 0)."""
    h = x.level
    require_divides(h, spec.n, "element level")
    return all(x.mark_mod(i, spec.p) == 0 for i in divisors(gcd(h, spec.c)))


def psi(x: BurnsideElement, c: int, j: int) -> int:
    """The cell sum psi^J(X) = sum over d in S_J of m_d * |G:d|.

    X must live at the top level (its level is the ambient order); S_J is
    the cell of divisors meeting C_c exactly in C_j.
    """
    n = x.level
    require_divides(c, n, "cell subgroup")
    require_divides(j, c, "cell index")
    return sum(
        m * (n // d) for d, m in x.coeffs.items() if gcd(d, c) == j
    )


def level_generators(spec: IdealSpec, h: int) -> list[BurnsideElement]:
    """Ring-theoretic generators of the ideal's level at C_h.

    Emits (1) p times the unit when p is prime, (2) each orbit C_h/C_k
    with p | h/k, and (3) C_h/C_k - |M_J:C_k| C_h/C_{M_J} for every cell
    S_J of the divisors of h relative to gcd(h, c) and every non-maximal
    k in the cell.  Each generator is checked for membership.
    """
    require_divides(h, spec.n, "generator level")
    p = spec.p
    cp = gcd(h, spec.c)
    gens: list[BurnsideElement] = []
    if p:
        gens.append(p * BurnsideElement.unit(h))
        gens.extend(
            BurnsideElement.transitive(h, k)
            for k in divisors(h)
            if (h // k) % p == 0
        )
    parts = s_partition(h, cp)
    for j in divisors(cp):
        members, mj = parts[j]
        for k in members:
            if k == mj:
                continue
            gens.append(
                BurnsideElement.transitive(h, k)
                - (mj // k) * BurnsideElement.transitive(h, mj)
            )
    for g in gens:
        if not member(spec, g):
            raise InvariantError(f"generator {g} is not a member of {spec.label}")
    return gens


@dataclass(frozen=True)
class LevelLattice:
    """A sub-Z-module of A(C_level) in the ascending transitive basis.

    ``basis`` is a canonical HNF row matrix; ``from_rows`` computes it
    from any spanning rows.  Construction verifies closure under
    multiplication by every basis orbit, i.e. that the row span really is
    a ring ideal, however the lattice is built.
    """

    level: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = [list(r) for r in self.basis]
        for r in self.basis:
            x = from_vector(self.level, r)
            for k in divisors(self.level):
                y = x * BurnsideElement.transitive(self.level, k)
                if not in_row_span(rows, to_vector(y)):
                    raise InvariantError(
                        f"row span at level {self.level} is not an ideal: "
                        f"{x} * C/C_{k} escapes"
                    )

    @classmethod
    def from_rows(cls, level: int, rows) -> "LevelLattice":
        return cls(level, tuple(map(tuple, hnf(rows))))

    def member(self, x: BurnsideElement) -> bool:
        """Is x an integer combination of the lattice basis rows?"""
        if x.level != self.level:
            raise ValueError(f"level mismatch: {x.level} vs {self.level}")
        return in_row_span([list(r) for r in self.basis], to_vector(x))

    def contains_lattice(self, other: "LevelLattice") -> bool:
        """Is every element of ``other`` in this lattice?"""
        if other.level != self.level:
            raise ValueError("level mismatch")
        return is_sublattice([list(r) for r in other.basis], [list(r) for r in self.basis])

    def same_span(self, other: "LevelLattice") -> bool:
        return self.level == other.level and self.basis == other.basis


@lru_cache(maxsize=None)
def kernel_lattice(spec: IdealSpec, h: int) -> LevelLattice:
    """The ideal's level at C_h as an integer lattice.

    Solves mark(X, i) = 0 mod p (exactly for p = 0) over the divisors i
    of gcd(h, c), via an exact integer kernel/preimage computation on the
    mark matrix, whose basis is already the canonical HNF.
    """
    require_divides(h, spec.n, "lattice level")
    divs = divisors(h)
    g = gcd(h, spec.c)
    conds = [row for i, row in zip(divs, mark_table(h)) if g % i == 0]
    rows = preimage_mod(conds, len(divs), spec.p)
    return LevelLattice(h, tuple(map(tuple, rows)))


def ring_ideal_lattice(h: int, gens) -> LevelLattice:
    """Lattice of the ring ideal generated by ``gens`` inside A(C_h).

    The Z-span of {g * C_h/C_k} over all generators and basis orbits is
    closed under multiplication by basis elements, hence equals the ideal.
    """
    rows = []
    for g in gens:
        if g.level != h:
            raise ValueError(f"generator level {g.level} differs from {h}")
        for k in divisors(h):
            rows.append(to_vector(g * BurnsideElement.transitive(h, k)))
    return LevelLattice.from_rows(h, rows)


# ---------------------------------------------------------------------------
# Q-criterion and primality probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QWitness:
    k: int
    k_prime: int
    level: int
    element: BurnsideElement


@dataclass(frozen=True)
class QReport:
    holds: bool
    witness: QWitness | None = None


def _family(family, n: int | None) -> tuple[int, tuple[IdealSpec, ...]]:
    """The ambient order and the specs of an IdealSpec or a sequence of them."""
    if isinstance(family, IdealSpec):
        specs = (family,)
    elif isinstance(family, (list, tuple)) and all(isinstance(s, IdealSpec) for s in family):
        specs = tuple(family)
    else:
        raise TypeError("a family is an IdealSpec or a sequence of IdealSpec values")
    ns = {s.n for s in specs}
    if len(ns) > 1:
        raise ValueError(f"family mixes ambient orders {sorted(ns)}")
    if n is None and ns:
        n = ns.pop()
    if n is None:
        raise ValueError("an empty family needs the ambient order n")
    return n, specs


def q_check(family, a: BurnsideElement, b: BurnsideElement, n: int | None = None) -> QReport:
    """Nakaoka's primality condition Q(family, a, b) for abelian groups.

    Checks that (N res a) * (N res b) lands in the family at every level:
    all K | level(a), K' | level(b), L | n with K | L and K' | L.  The
    first violating triple (with the offending product) is reported.
    """
    n, specs = _family(family, n)
    require_divides(a.level, n, "element level")
    require_divides(b.level, n, "element level")
    res_a = {k: restrict(a, k) for k in divisors(a.level)}
    res_b = {k: restrict(b, k) for k in divisors(b.level)}
    cache: dict[tuple[int, int, int], BurnsideElement] = {}

    def normed(side, x, k, level):
        key = (side, k, level)
        if key not in cache:
            cache[key] = norm(x, level)
        return cache[key]

    for level in reversed(divisors(n)):
        for k in divisors(gcd(a.level, level)):
            na = normed(0, res_a[k], k, level)
            for kp in divisors(gcd(b.level, level)):
                nb = normed(1, res_b[kp], kp, level)
                prod = na * nb
                if not all(member(s, prod) for s in specs):
                    return QReport(False, QWitness(k, kp, level, prod))
    return QReport(True)


def _box_size(d: int, bound: int, max_support: int) -> int:
    """The number of elements in the box over d orbits, counted before any
    is made: the sum over s <= max_support of C(d, s) * (2 * bound)**s.
    A negative bound or support raises ValueError."""
    if bound < 0 or max_support < 0:
        raise ValueError(f"box bound and support must be >= 0, got {bound} and {max_support}")
    return sum(comb(d, s) * (2 * bound) ** s for s in range(min(max_support, d) + 1))


def _check_budget(count: int, what: str) -> None:
    """Refuse, with BudgetExceeded, work that keeps more than BOX_LIMIT elements."""
    if count > BOX_LIMIT:
        raise BudgetExceeded(f"{what} exceeds BOX_LIMIT = {BOX_LIMIT}")


def _box(d: int, bound: int, max_support: int):
    """The box over d orbits in its one enumeration order, as pairs
    (orbit indices, coefficients): the zero element first, then by support
    size, orbit index tuple and coefficient tuple."""
    vals = [v for v in range(-bound, bound + 1) if v] if max_support else []
    yield (), ()
    for size in range(1, max_support + 1):
        for idx in itertools.combinations(range(d), size):
            for ms in itertools.product(vals, repeat=size):
                yield idx, ms


def box_elements(level: int, bound: int, max_support: int = 2) -> list[BurnsideElement]:
    """All elements at the level with at most ``max_support`` nonzero
    coefficients, each in [-bound, bound]; the box's size is checked
    against BOX_LIMIT first."""
    divs = divisors(level)
    count = _box_size(len(divs), bound, max_support)
    _check_budget(count, f"a box of {count} elements over {len(divs)} orbits")
    return [
        BurnsideElement(level, {divs[j]: m for j, m in zip(idx, ms)})
        for idx, ms in _box(len(divs), bound, max_support)
    ]


def primality_probe(
    family,
    n: int | None = None,
    bound: int = 2,
    max_support: int = 2,
) -> list[tuple[BurnsideElement, BurnsideElement]]:
    """Search for counterexamples to primality of the family.

    Enumerates the box elements of every level h | n (coefficients in
    [-bound, bound], at most ``max_support`` of them nonzero), level by
    level in ``box_elements`` order, and returns every pair (a, b) with a
    not after b for which Q holds although neither element is a member.
    An empty result means no falsification at this scale, never a proof
    of primality.  Before any level is enumerated, what the probe keeps is
    checked against BOX_LIMIT: the elements of every level's box (it keeps
    a record of each non-member) plus the d(n)**2 * (2*bound + 1) marks of
    the top level's table ``scaled`` (none at support 0).

    Q is decided without computing a norm.  Q(a, b) asks that the mark at
    C_i of N_K^L res_K a * N_K'^L res_K' b vanish mod p for every spec
    (c, p), level L | n, i | gcd(L, c), K | gcd(level(a), L) and
    K' | gcd(level(b), L).  The mark at C_i of N_K^L res_K a is a positive
    power of the mark of a at C_gcd(i, K), and Z/p (Z for p = 0) is an
    integral domain, so the product vanishes iff one factor does, and it
    vanishes for all K, K' iff the a-factor does for all K or the b-factor
    does for all K'.  As K runs, gcd(i, K) runs over the j | gcd(i,
    level(a)).  So Q holds iff every slot (i, p) is covered by a or by b,
    where a covers it when the marks of a at every j | gcd(i, level(a))
    vanish mod p.  A slot does not depend on L, and every i | c occurs at
    L = i, so the slots are the (i, p) with i | c.  With one bit per slot,
    Q(a, b) is ``mask[a] | mask[b] == full``.

    Lemma: an element covers the top slot (c, p) of a spec exactly when it
    is a member of that spec, because both ask the marks at every
    j | gcd(c, level) to vanish mod p.  So an element is a member of the
    family iff its mask holds every top slot, and for a single spec no
    non-member covers (c, p), no pair of non-members covers ``full``, and
    the result is always [].

    Each box element is a coefficient tuple whose marks come from
    ``mark_table``; only the elements of returned pairs are built.  The
    non-members are grouped by mask, and Q is decided between the
    distinct masks: when no two of them complete each other to ``full``,
    the result is [] before any pair is formed.
    """
    n, specs = _family(family, n)
    levels = divisors(n)
    boxes = sum(_box_size(len(divisors(h)), bound, max_support) for h in levels)
    table_marks = len(levels) ** 2 * (2 * bound + 1) if max_support else 0
    _check_budget(
        boxes + table_marks,
        f"a probe keeping {boxes + table_marks} elements ({boxes} box elements "
        f"and {table_marks} table marks)",
    )
    slots = sorted({(i, s.p) for s in specs for i in divisors(s.c)})
    full = (1 << len(slots)) - 1
    top = sum(1 << slots.index((s.c, s.p)) for s in specs)
    primes = sorted({p for _, p in slots})
    boxes, masks = [], []  # (level, divisors, indices, coefficients) and mask of each non-member
    for h in levels:
        divs = divisors(h)
        table = mark_table(h)
        # (bit, prime position, divisors of gcd(i, h) as a bitmask over divs)
        needs = [
            (1 << bit, primes.index(p), sum(1 << t for t, j in enumerate(divs) if i % j == 0))
            for bit, (i, p) in enumerate(slots)
        ]
        # column j of the table times m: the marks of m * C_h/C_{divs[j]}
        # (none at support 0, whose box is the zero element whatever the bound)
        scaled = [
            {m: [m * row[j] for row in table] for m in range(-bound, bound + 1)}
            for j in range(len(divs) if max_support else 0)
        ]
        origin = [0] * len(divs)
        bits = [1 << t for t in range(len(divs))]
        for idx, ms in _box(len(divs), bound, max_support):
            marks = list(map(sum, zip(origin, *(scaled[j][m] for j, m in zip(idx, ms)))))
            # per prime, the bitmask over divs of the marks that vanish mod p
            zeros = [
                sum(itertools.compress(bits, map(not_, map(p.__rmod__, marks) if p else marks)))
                for p in primes
            ]
            mask = sum(bit for bit, q, need in needs if need & ~zeros[q] == 0)
            if mask & top != top:
                boxes.append((h, divs, idx, ms))
                masks.append(mask)
    classes: dict[int, list[int]] = {}
    for a, mask in enumerate(masks):
        classes.setdefault(mask, []).append(a)
    partners = {
        mask: sorted(
            itertools.chain.from_iterable(
                ixs for other, ixs in classes.items() if mask | other == full
            )
        )
        for mask in classes
    }
    if not any(partners.values()):
        return []
    built: dict[int, BurnsideElement] = {}

    def element(a: int) -> BurnsideElement:
        if a not in built:
            h, divs, idx, ms = boxes[a]
            built[a] = BurnsideElement(h, {divs[j]: m for j, m in zip(idx, ms)})
        return built[a]

    found = []
    for a, mask in enumerate(masks):
        ixs = partners[mask]
        for b in ixs[bisect_left(ixs, a):]:
            found.append((element(a), element(b)))
    return found
