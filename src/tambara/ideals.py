"""The prime-candidate ideals of the Burnside functor of C_n.

An ideal here is named by a pair (C_c, p) with p a prime or zero: its
level at C_h consists of the elements whose marks vanish mod p at every
subgroup of C_gcd(h,c).  The module provides membership, the psi
decomposition along intersection-with-C_c cells, explicit ring-theoretic
generators, exact integer-lattice realizations of each level (so that
"generated ideal equals kernel" is an HNF matrix comparison), and the
Q-criterion used to probe primality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .burnside import BurnsideElement, from_t, from_vector, to_vector
from .intlattice import hnf, in_row_span, is_sublattice, preimage_mod
from .lattice import (
    CyclicGroupCtx,
    check_prime_or_zero,
    divisors,
    p_part,
    prime_factors,
    require_divides,
    s_partition,
)
from .maps import norm, restrict


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


def decompose_by_c(x: BurnsideElement, c: int) -> dict[int, BurnsideElement]:
    """Split X into the components X_j supported on the cells S_j, j | c."""
    n = x.level
    require_divides(c, n, "cell subgroup")
    parts = {j: {} for j in divisors(c)}
    for d, m in x.coeffs.items():
        parts[gcd(d, c)][d] = m
    return {j: BurnsideElement(n, cs) for j, cs in parts.items()}


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
    parts = s_partition(CyclicGroupCtx(h), cp)
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
            raise AssertionError(f"generator {g} is not a member of {spec.label}")
    return gens


@dataclass(frozen=True)
class LevelLattice:
    """A sub-Z-module of A(C_level) in the ascending transitive basis.

    ``basis`` is a canonical HNF row matrix.  Construction verifies
    closure under multiplication by every basis orbit, i.e. that the row
    span really is a ring ideal.
    """

    level: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, level: int, rows) -> "LevelLattice":
        basis = tuple(tuple(r) for r in hnf([list(r) for r in rows]))
        lat = cls(level, basis)
        lat._check_multiplicative_closure()
        return lat

    def _check_multiplicative_closure(self) -> None:
        rows = [list(r) for r in self.basis]
        for r in self.basis:
            x = from_vector(self.level, r)
            for k in divisors(self.level):
                y = x * BurnsideElement.transitive(self.level, k)
                if not in_row_span(rows, to_vector(y)):
                    raise AssertionError(
                        f"row span at level {self.level} is not an ideal: "
                        f"{x} * C/C_{k} escapes"
                    )

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
    mark matrix.
    """
    require_divides(h, spec.n, "lattice level")
    divs = divisors(h)
    conds = [
        [(h // k) if k % i == 0 else 0 for k in divs]
        for i in divisors(gcd(h, spec.c))
    ]
    rows = preimage_mod(conds, len(divs), spec.p)
    return LevelLattice.from_rows(h, rows)


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
    if not rows:
        rows = [[0] * len(divisors(h))]
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


def _family_conditions(family):
    """Normalize a spec-style family to (n, conditions) or raise TypeError."""
    if isinstance(family, IdealSpec):
        return family.n, (family,)
    if isinstance(family, (list, tuple)):
        specs = tuple(family)
        if not all(isinstance(s, IdealSpec) for s in specs):
            raise TypeError("family sequence must contain IdealSpec values")
        ns = {s.n for s in specs}
        if len(ns) > 1:
            raise ValueError(f"family mixes ambient orders {sorted(ns)}")
        return (ns.pop() if ns else None), specs
    raise TypeError("not a spec-style family")


def _family_predicate(family):
    """A per-level membership predicate plus the ambient order if known."""
    try:
        n, specs = _family_conditions(family)
        return (lambda x: all(member(s, x) for s in specs)), n
    except TypeError:
        if callable(family):
            return family, None
        raise


def q_check(family, a: BurnsideElement, b: BurnsideElement, n: int | None = None) -> QReport:
    """Nakaoka's primality condition Q(family, a, b) for abelian groups.

    Checks that (N res a) * (N res b) lands in the family at every level:
    all K | level(a), K' | level(b), L | n with K | L and K' | L.  The
    first violating triple (with the offending product) is reported.
    """
    member_fn, inferred = _family_predicate(family)
    if n is None:
        n = inferred
    if n is None:
        raise ValueError("q_check needs the ambient order n for this family")
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
                if not member_fn(prod):
                    return QReport(False, QWitness(k, kp, level, prod))
    return QReport(True)


def box_elements(level: int, bound: int, max_support: int = 2) -> list[BurnsideElement]:
    """All elements at the level with at most ``max_support`` nonzero
    coefficients, each in [-bound, bound]."""
    divs = divisors(level)
    vals = [v for v in range(-bound, bound + 1) if v]
    out = [BurnsideElement.zero(level)]
    for size in range(1, max_support + 1):
        for keys in itertools.combinations(divs, size):
            for ms in itertools.product(vals, repeat=size):
                out.append(BurnsideElement(level, dict(zip(keys, ms))))
    return out


def primality_probe(
    family,
    n: int | None = None,
    bound: int = 2,
    levels=None,
    max_support: int = 2,
) -> list[tuple[BurnsideElement, BurnsideElement]]:
    """Search for counterexamples to primality of the family.

    Enumerates all pairs (a, b) over the given levels with coefficients
    in [-bound, bound] and bounded support, and returns every pair for
    which Q holds although neither element is a member.  An empty result
    means no falsification at this scale, never a proof of primality.
    """
    conds = None
    try:
        inferred, conds = _family_conditions(family)
        if n is None:
            n = inferred
    except TypeError:
        pass
    if n is None:
        raise ValueError("primality_probe needs the ambient order n")
    levels = sorted(set(levels)) if levels else divisors(n)
    for h in levels:
        require_divides(h, n, "probe level")
    elems = [e for h in levels for e in box_elements(h, bound, max_support)]
    if conds is not None:
        return _probe_spec_family(conds, n, elems)
    member_fn, _ = _family_predicate(family)
    found = []
    for i, a in enumerate(elems):
        if member_fn(a):
            continue
        for b in elems[i:]:
            if member_fn(b):
                continue
            if q_check(family, a, b, n=n).holds:
                found.append((a, b))
    return found


def _probe_spec_family(conds, n, elems):
    """Exhaustive Q search specialized to mark-condition families.

    Works coordinate-wise on mark vectors: the marks of a product are the
    pointwise products of marks, and membership is a mod-p test on them.
    Norms of restrictions are computed once per (element, K, L) by the
    recursion in :mod:`tambara.maps` and reused across all pairs.  Triples
    are visited with the likely-violating ones (top level, witness
    subgroups of non-membership) first, which makes the no-counterexample
    case fast without changing the answer.
    """
    div_of = {d: divisors(d) for d in divisors(n)}
    checks = {
        level: [(i, s.p) for s in conds for i in div_of[gcd(level, s.c)]]
        for level in div_of
    }

    k_orders = []
    is_member = []
    for e in elems:
        marks = {i: e.mark(i) for i in div_of[e.level]}
        failing = [
            i for i, p in checks[e.level] if (marks[i] % p if p else marks[i]) != 0
        ]
        k_orders.append(list(dict.fromkeys(failing + div_of[e.level])))
        is_member.append(not failing)

    level_order = list(reversed(div_of[n]))
    nr_cache: dict[tuple[int, int, int], dict[int, int]] = {}

    def normed_marks(idx, k, level):
        key = (idx, k, level)
        got = nr_cache.get(key)
        if got is None:
            nm = norm(restrict(elems[idx], k), level)
            got = {i: nm.mark(i) for i in div_of[level]}
            nr_cache[key] = got
        return got

    def q_holds(ia, ib):
        for level in level_order:
            lchecks = checks[level]
            for k in k_orders[ia]:
                if level % k:
                    continue
                ga = normed_marks(ia, k, level)
                for kp in k_orders[ib]:
                    if level % kp:
                        continue
                    gb = normed_marks(ib, kp, level)
                    for i, p in lchecks:
                        v = ga[i] * gb[i]
                        if (v % p if p else v) != 0:
                            return False
        return True

    found = []
    for ia in range(len(elems)):
        if is_member[ia]:
            continue
        for ib in range(ia, len(elems)):
            if is_member[ib]:
                continue
            if q_holds(ia, ib):
                found.append((elems[ia], elems[ib]))
    return found


def tambara_generator_check(spec: IdealSpec) -> bool:
    """Membership checks behind the Tambara-theoretic generator theorems.

    For prime p: p times the unit lies in the ideal at every level
    (once it does at the trivial level), and so does every orbit whose
    index is divisible by p.  For every prime q | n whose q-part of c is
    not yet the full q-part of n, t_q - q lies in the ideal one q-step
    above the q-part of c.  For p = 0 only the t_q - q clause applies.
    """
    n, c, p = spec.n, spec.c, spec.p
    ok = True
    if p:
        if member(spec, p * BurnsideElement.unit(1)):
            ok = ok and all(
                member(spec, p * BurnsideElement.unit(h)) for h in divisors(n)
            )
        for h in divisors(n):
            for k in divisors(h):
                if (h // k) % p == 0:
                    ok = ok and member(spec, BurnsideElement.transitive(h, k))
    for q in prime_factors(n):
        cq = p_part(c, q)
        if cq != p_part(n, q):
            hplus = q * cq
            ok = ok and member(spec, from_t(hplus, q) - q * BurnsideElement.unit(hplus))
    return ok
