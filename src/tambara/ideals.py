"""The prime-candidate ideals of the Burnside functor of C_n.

An ideal here is named by a pair (C_c, p) with p a prime or zero: its
level at C_h consists of the elements whose marks vanish mod p at every
subgroup of C_gcd(h,c).  The module provides membership, the psi
cell sums along intersection-with-C_c cells, explicit ring-theoretic
generators, exact integer-lattice realizations of each level, read off
its psi cells in canonical HNF (so that "generated ideal equals kernel"
is an HNF matrix comparison), and
Nakaoka's primality condition Q: ``q_check`` evaluates it on one pair by
computing norms, and ``primality_probe`` decides it on a whole box of
pairs: a single ideal by a lemma, a larger family from the zero masks of
one walk per level for all of its primes, of which only the last is kept.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from operator import not_

from .burnside import BurnsideElement, from_vector, marks, to_vector
from .intlattice import hnf, in_row_span
from .lattice import (
    BudgetExceeded,
    InvariantError,
    check_prime_or_zero,
    divisors,
    require_divides,
    s_partition,
)
from .maps import norm, restrict

# The most elements a box, or a probe's boxes together, may hold, and the
# most pairs a probe may return.  A single ideal keeps none.  The largest
# family probe in the tests (two points at n = 360, bound 2, support 2)
# keeps 16,104 box elements, at about 13 us a box element; the most pairs
# in the tests, demos and benchmark, 75,168, come from the family
# (12,1,2), (12,1,3) at bound 3.
BOX_LIMIT = 10**5


@dataclass(frozen=True)
class IdealSpec:
    """Names the ideal attached to (C_c, p) inside the functor over C_n.
    n, c and p are exact ints, and ``kernel_lattice``'s cache is typed, so
    neither 12.0 nor True ever shares the kernel_lattice entry of 12 or 1."""

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
    below = marks(x, gcd(h, spec.c)).values()
    return not any(map(spec.p.__rmod__, below) if spec.p else below)


def psi(x: BurnsideElement, c: int, j: int) -> int:
    """The cell sum psi^J(X) = sum over d in S_J of m_d * |G:d|.

    X may live at any level h, which then acts as the ambient order:
    G = C_h, c | h, and S_J is the cell of divisors of h meeting C_c
    exactly in C_j.  At c = gcd(h, c') these sums decide membership in
    the ideals (C_c', p), see ``kernel_lattice``.
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
            gens.append(BurnsideElement(h, {k: 1, mj: -(mj // k)}))
    for g in gens:
        if not member(spec, g):
            raise InvariantError(f"generator {g} is not a member of {spec.label}")
    return gens


@dataclass(frozen=True)
class LevelLattice:
    """A sub-Z-module of A(C_level) in the ascending transitive basis.

    ``basis`` is a canonical HNF row matrix; ``from_rows`` computes it
    from any spanning rows.  Construction verifies closure: every product
    of a basis row with an orbit, built by ``_orbit_products`` as in
    ``ring_ideal_lattice``, must lie in the row span, i.e. the span really
    is a ring ideal, however the lattice is built.
    """

    level: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        xs = [from_vector(self.level, r) for r in self.basis]
        for x, k, row in _orbit_products(self.level, xs):
            if not in_row_span(self.basis, row):
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
        return in_row_span(self.basis, to_vector(x))

    def contains_lattice(self, other: "LevelLattice") -> bool:
        """Is every element of ``other`` in this lattice?"""
        if other.level != self.level:
            raise ValueError("level mismatch")
        return all(in_row_span(self.basis, row) for row in other.basis)

    def same_span(self, other: "LevelLattice") -> bool:
        return self.level == other.level and self.basis == other.basis


@lru_cache(maxsize=None, typed=True)
def kernel_lattice(spec: IdealSpec, h: int) -> LevelLattice:
    """The ideal's level at C_h as an integer lattice, written down in
    canonical HNF from its psi cells.

    Let g = gcd(h, c).  The level is cut out by mark(X, C_i) = 0 mod p
    (exactly for p = 0) for i | g.  C_i lies in C_k iff i | gcd(k, g), so
    mark(X, C_i) is the sum of the cell sums psi_j(X) (``psi`` at level
    h) over i | j | g: a unitriangular system over the divisors of g,
    invertible over Z and mod p, so the marks vanish iff every psi_j
    does.  The level is the direct sum over the cells S_j of
    ``s_partition(h, g)`` of one equation each.

    With m the maximal member of a cell, psi_j = (h/m) sum (m/k) x_k.  If
    p is prime and divides h/m, the cell gives e_k for every member k.
    Otherwise x_m = -sum over k != m of (m/k) x_k mod p (exactly for
    p = 0): the cell gives e_k - (m/k) e_m for each k != m, its entry at
    m reduced into [0, p) for a prime p, and then p e_m.  The cells have
    disjoint columns and m is the largest of its cell, so no other row
    has an entry at a pivot k, and the entries above a pivot p e_m lie in
    [0, p): sorted by pivot, the rows are the canonical HNF.
    """
    require_divides(h, spec.n, "lattice level")
    p = spec.p
    rows = {}  # pivot column -> {column: entry}
    for members, m in s_partition(h, gcd(h, spec.c)).values():
        if p and (h // m) % p == 0:
            rows.update((k, {k: 1}) for k in members)
            continue
        rows.update((k, {k: 1, m: -(m // k) % p if p else -(m // k)}) for k in members if k != m)
        if p:
            rows[m] = {m: p}
    divs = divisors(h)
    return LevelLattice(h, tuple(tuple(rows[t].get(k, 0) for k in divs) for t in sorted(rows)))


def _orbit_products(h: int, elements):
    """The products of each element with each orbit, as (x, k, the vector
    of x * C_h/C_k), element by element and k ascending; the orbits are
    built once.  An element at another level raises ValueError."""
    orbits = [(k, BurnsideElement.transitive(h, k)) for k in divisors(h)]
    for x in elements:
        if x.level != h:
            raise ValueError(f"generator level {x.level} differs from {h}")
        for k, t in orbits:
            yield x, k, to_vector(x * t)


def ring_ideal_lattice(h: int, gens) -> LevelLattice:
    """Lattice of the ring ideal generated by ``gens`` inside A(C_h).

    The Z-span of {g * C_h/C_k} over all generators and basis orbits is
    closed under multiplication by basis elements, hence equals the ideal.
    """
    return LevelLattice.from_rows(h, [row for _, _, row in _orbit_products(h, gens)])


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
    """The ambient order (n, which a non-empty family must share) and the
    distinct specs, in first-seen order, of an IdealSpec or a sequence of them."""
    specs = (family,) if isinstance(family, IdealSpec) else family
    if not isinstance(specs, (list, tuple)) or not all(isinstance(s, IdealSpec) for s in specs):
        raise TypeError("a family is an IdealSpec or a sequence of IdealSpec values")
    ns = {s.n for s in specs}
    if len(ns) > 1:
        raise ValueError(f"family mixes ambient orders {sorted(ns)}")
    if n is not None and ns - {n}:
        raise ValueError(f"a family over C_{min(ns)} asked about C_{n}")
    if n is None and not ns:
        raise ValueError("an empty family needs the ambient order n")
    return (ns.pop() if n is None else n), tuple(dict.fromkeys(specs))


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


def _signed(bound: int, max_support: int) -> tuple[int, ...]:
    """The nonzero coefficients in [-bound, bound], ascending: none at
    support 0, whose box is the zero element whatever the bound.  A
    bound or support that is not an exact int raises TypeError, a negative
    one ValueError, and more values than BOX_LIMIT (a box over one orbit
    holds one more element) raise BudgetExceeded before any is made."""
    if type(bound) is not int or type(max_support) is not int:
        raise TypeError(f"box bound and support must be ints, got {bound!r} and {max_support!r}")
    if bound < 0 or max_support < 0:
        raise ValueError(f"box bound and support must be >= 0, got {bound} and {max_support}")
    if not max_support:
        return ()
    _check_budget(2 * bound, f"a box over {2 * bound} coefficient values")
    return (*range(-bound, 0), *range(1, bound + 1))


def _box_size(d: int, width: int, max_support: int) -> int:
    """The number of elements in the box over d orbits with ``width``
    coefficient values, counted before any is made: the sum over
    s <= max_support of C(d, s) * width**s."""
    return sum(comb(d, s) * width**s for s in range(min(max_support, d) + 1))


def _check_budget(count: int, what: str) -> None:
    """Refuse, with BudgetExceeded, work that keeps more than BOX_LIMIT elements."""
    if count > BOX_LIMIT:
        raise BudgetExceeded(f"{what} exceeds BOX_LIMIT = {BOX_LIMIT}")


def box_terms(level: int, values, max_support: int = 2):
    """The box at the level with at most ``max_support`` nonzero
    coefficients, each taken from ``values``, as (orbits, coefficients)
    tuple pairs before any element is built, in the one box order: the
    zero element first, then by support size, ascending orbit tuple and
    coefficient tuple (in the order of ``values``).  Restricted to
    positive coefficients, the order over the signed values is the order
    over the positive ones.  The box's size is checked against BOX_LIMIT
    when this is called, before anything is yielded."""
    divs = divisors(level)
    count = _box_size(len(divs), len(values), max_support)
    _check_budget(count, f"a box of {count} elements over {len(divs)} orbits")
    nonzero = (
        (orbits, ms)
        for size in range(1, max_support + 1)
        for orbits in itertools.combinations(divs, size)
        for ms in itertools.product(values, repeat=size)
    )
    return itertools.chain([((), ())], nonzero)


def box_elements(level: int, bound: int, max_support: int = 2) -> list[BurnsideElement]:
    """All elements at the level with at most ``max_support`` nonzero
    coefficients, each in [-bound, bound], in the order of ``box_terms``."""
    return [
        BurnsideElement._from_box(level, dict(zip(orbits, ms)))
        for orbits, ms in box_terms(level, _signed(bound, max_support), max_support)
    ]


@lru_cache(maxsize=1)
def _walk(n: int, bound: int, max_support: int, primes: tuple[int, ...]):
    """The zero masks of the probe's boxes, one (level, divisors, zeros,
    ids) per level h | n.  An element's zero masks are a tuple holding per
    prime the bitmask over the divisors of h of its marks that vanish mod
    p (exactly for p = 0); zeros holds the distinct tuples of the box, and
    ids, per element in box order, the position of its tuple in zeros.
    An element's marks are read through ``marks``, once per element for
    all the primes."""
    values = _signed(bound, max_support)
    walk = []
    for h in divisors(n):
        divs = divisors(h)
        bits = [1 << t for t in range(len(divs))]
        seen, ids = {}, []  # the position of each distinct tuple of zero masks
        for orbits, ms in box_terms(h, values, max_support):
            mk = marks(BurnsideElement._from_box(h, dict(zip(orbits, ms))), h).values()
            z = tuple(
                sum(itertools.compress(bits, map(not_, map(p.__rmod__, mk) if p else mk)))
                for p in primes
            )
            ids.append(seen.setdefault(z, len(seen)))
        walk.append((h, tuple(divs), tuple(seen), tuple(ids)))
    return tuple(walk)


def primality_probe(
    family,
    n: int | None = None,
    bound: int = 2,
    max_support: int = 2,
) -> list[tuple[BurnsideElement, BurnsideElement]]:
    """Search for counterexamples to primality of the family.

    Takes the box elements of every level h | n (coefficients in
    [-bound, bound], at most ``max_support`` of them nonzero), level by
    level in ``box_elements`` order, and returns every pair (a, b) with a
    not after b for which Q holds although neither element is a member.
    An empty result means no falsification at this scale, never a proof
    of primality.  The family, n, bound and support are checked first (a
    bound of more than BOX_LIMIT coefficient values raises BudgetExceeded).
    A single ideal keeps nothing: it is answered by the lemma below right
    after these checks, and no box is sized.  For a larger family, what
    the probe keeps is then checked against BOX_LIMIT before any box is
    walked: the elements of every level's box; the pairs it returns are
    checked before any is built.

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
    the result is [].  A family of fewer than two distinct specs is
    therefore answered by the lemma, without sizing or walking any box.

    An element's mask depends only on its zero masks, one per prime of
    the family: which of its marks vanish mod p.  A larger family walks
    each level's box once, reading each element's marks (``marks``) once
    for all of its primes into the level's distinct tuples of zero masks
    and, per element, the position of its tuple.  Only the last walk is kept,
    for the next probe of the same n, box and primes: a process that
    probes one family again and again, as the benchmark's repetitions
    do, walks once (``tambara probe`` and the demos probe each family
    once).  Each distinct tuple is mapped to its mask once, and Q is
    decided between the distinct masks of the non-members: when no two
    of them complete each other to ``full``, the result is [] before any
    element is built.  Otherwise the pairs, the products of the class
    sizes of mates, are counted against BOX_LIMIT, and a second pass over
    the boxes builds, in box order and once each, the non-members whose
    mask has such a mate, and puts each into its mask's class.  The
    classes of a mask's mates are merged once into one list of partner
    elements in box order, next to their positions, and each kept element
    is paired with the partners from its own position on, found by
    bisection.  Box elements skip the constructor's per-key checks
    (``BurnsideElement._from_box``): ``box_terms`` makes their keys.
    """
    n, specs = _family(family, n)
    levels = divisors(n)
    values = _signed(bound, max_support)
    if len(specs) < 2:
        return []
    boxes = sum(_box_size(len(divisors(h)), len(values), max_support) for h in levels)
    _check_budget(boxes, f"a probe keeping {boxes} box elements")
    slots = sorted({(i, s.p) for s in specs for i in divisors(s.c)})
    full = (1 << len(slots)) - 1
    top = sum(1 << slots.index((s.c, s.p)) for s in specs)
    primes = tuple(sorted({p for _, p in slots}))
    walk = _walk(n, bound, max_support, primes)
    covered = []  # per level, the slot mask of each distinct tuple of zero masks
    for _, divs, zeros, _ in walk:
        # (bit, prime position, divisors of gcd(i, h) as a bitmask over divs)
        needs = [
            (1 << bit, primes.index(p), sum(1 << t for t, j in enumerate(divs) if i % j == 0))
            for bit, (i, p) in enumerate(slots)
        ]
        covered.append([sum(bit for bit, q, need in needs if need & ~z[q] == 0) for z in zeros])
    outside = {m for cover in covered for m in cover if m & top != top}
    mates = {m: [o for o in outside if m | o == full] for m in outside}
    if not any(mates.values()):
        return []
    sizes = Counter(cover[k] for (*_, ids), cover in zip(walk, covered) for k in ids)
    pairs = sum(sizes[m] * sizes[o] for m in mates for o in mates[m]) // 2
    _check_budget(pairs, f"a probe returning {pairs} pairs")
    by_mask = {m: [] for m in mates if mates[m]}  # per kept mask, its (position, element)s
    kept = []  # each non-member with a mate, as (element, mask), in box order
    for (h, _, _, ids), cover in zip(walk, covered):
        for (orbits, ms), k in zip(box_terms(h, values, max_support), ids):
            m = cover[k]
            if m in by_mask:
                x = BurnsideElement._from_box(h, dict(zip(orbits, ms)))
                by_mask[m].append((len(kept), x))
                kept.append((x, m))
    partners = {}  # per kept mask, the positions and elements of its mates, in box order
    for m in by_mask:
        merged = sorted(itertools.chain.from_iterable(by_mask[o] for o in mates[m]))
        partners[m] = [i for i, _ in merged], [x for _, x in merged]
    found = []
    for a, (x, m) in enumerate(kept):
        positions, xs = partners[m]
        found.extend(zip(itertools.repeat(x), xs[bisect_left(positions, a) :]))
    return found
