"""The prime spectrum of the Burnside functor of C_n over a prime set.

Containment between the ideals (C_i, p) and (C_j, q) is decided by a
closed decision table (divisibility of q-residual parts); the same
question is also decided semantically, by comparing the exact kernel
lattices at every level, and the two routes are cross-validated in the
test suite.  Equal ideals are merged into canonical points (the p-free
representative of each class) before the containment matrix is built, so
the relation is a partial order.  Dress's spectrum of the Burnside ring
has the same points with a different containment and is built as the same
poset type.  Both containments compare one residual key per point and
prime, so the matrix is built from O(N * |primes|) keys with one int
comparison per pair.
Exports: Graphviz DOT of the Hasse diagram and a JSON round-trip encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from operator import mod, sub

from .ideals import IdealSpec, kernel_lattice
from .lattice import (
    CyclicGroupCtx,
    InvariantError,
    check_prime_or_zero,
    divisors,
    is_prime,
    o_p,
    prime_factors,
)


def _residual(c: int, q: int) -> int:
    """The key of C_c under the prime q of the containing point: o_q(c),
    or c itself when q = 0."""
    return c if q == 0 else o_p(c, q)


def _contained(gap, pa: int, ca: int, pb: int, cb: int) -> bool:
    """Is the point (C_ca, pa) inside the point (C_cb, pb)?  Exactly when
    pa is 0 or pb and ``gap`` of the two pb-residual keys is 0: ``mod``
    for divisibility (the Tambara spectrum), ``sub`` for equality (Dress)."""
    return pa in (0, pb) and not gap(_residual(ca, pb), _residual(cb, pb))


def contains(a: IdealSpec, b: IdealSpec) -> bool:
    """Symbolic containment: is the ideal a inside the ideal b?

    Decision table, with i = a.c and j = b.c:
      (0, 0):        j | i  (dual to the subgroup lattice);
      (0, q prime):  o_q(j) | o_q(i)  (through the chain (i,0) in (i,q) in (j,q));
      (p prime, 0):  never;
      (p, q primes): p = q and o_p(j) | o_p(i).
    """
    if a.n != b.n:
        raise ValueError(f"mismatched ambient groups C_{a.n} vs C_{b.n}")
    return _contained(mod, a.p, a.c, b.p, b.c)


def contains_semantic(a: IdealSpec, b: IdealSpec) -> bool:
    """Containment decided on the exact kernel lattices, level by level."""
    if a.n != b.n:
        raise ValueError(f"mismatched ambient groups C_{a.n} vs C_{b.n}")
    return all(
        kernel_lattice(b, h).contains_lattice(kernel_lattice(a, h))
        for h in divisors(a.n)
    )


def default_primes(n: int) -> list[int]:
    """Zero, the primes dividing n, and the smallest prime not dividing n.

    This set realizes the longest containment chain in the spectrum.
    """
    ps = set(prime_factors(n)) | {0}
    q = 2
    while n % q == 0 or not is_prime(q):
        q += 1
    ps.add(q)
    return sorted(ps)


def _canonical_classes(n: int, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Canonical representative and merged class members for one p-layer."""
    if p == 0 or n % p != 0:
        return [(d, (d,)) for d in divisors(n)]
    classes: dict[int, list[int]] = {}
    for d in divisors(n):
        classes.setdefault(o_p(d, p), []).append(d)
    return sorted((r, tuple(members)) for r, members in classes.items())


@dataclass(frozen=True)
class SpectrumPoset:
    """Canonical points of a spectrum with their containment matrix.

    Shared by the Tambara spectrum (IdealSpec points) and Dress's
    spectrum of A(C_n) (DressPoint points): both have the same points
    and differ only in containment.
    """

    n: int
    primes: tuple[int, ...]
    points: tuple[IdealSpec | DressPoint, ...]
    merged: tuple[tuple[int, ...], ...]
    relation: tuple[tuple[bool, ...], ...]


def _build_poset(n: int, primes, point, gap) -> SpectrumPoset:
    """One point ``point(rep, p)`` per equality class over the prime set,
    sorted by (rep, p), and the containment matrix ``_contained(gap, ...)``
    over all pairs, read off one residual key per point and prime.

    For p = 0 or p not dividing n every divisor is its own class; for
    p | n classes are keyed by the p-free part, represented by the p-free
    divisor itself.  A prime that is not exactly an int is rejected, not
    coerced.  The relation is checked to be antisymmetric.
    """
    if not primes:
        raise ValueError("the prime set must be non-empty")
    for p in primes:
        if type(p) is not int:
            raise ValueError(f"primes must be ints, got {p!r}")
    ps = sorted({check_prime_or_zero(p) for p in primes})
    classes = sorted(
        (rep, p, merged) for p in ps for rep, merged in _canonical_classes(n, p)
    )
    points = tuple(point(rep, p) for rep, p, _ in classes)
    keys = [{q: _residual(rep, q) for q in ps} for rep, _, _ in classes]
    columns = [(p, key[p]) for (_, p, _), key in zip(classes, keys)]
    relation = tuple(
        tuple([(pa == 0 or pa == pb) and not gap(ka[pb], kb) for pb, kb in columns])
        for (_, pa, _), ka in zip(classes, keys)
    )
    for i, row in enumerate(relation):
        column = (other[i] for other in relation[i + 1:])
        for j, (a_in_b, b_in_a) in enumerate(zip(row[i + 1:], column), i + 1):
            if a_in_b and b_in_a:
                raise InvariantError(
                    f"distinct canonical points {points[i].label} and "
                    f"{points[j].label} contain each other"
                )
    merged = tuple(m for _, _, m in classes)
    return SpectrumPoset(n, tuple(ps), points, merged, relation)


def enumerate_spectrum(ctx: CyclicGroupCtx, primes) -> SpectrumPoset:
    """All ideals (C_c, p) over the prime set, one point per equality class."""
    return _build_poset(ctx.n, primes, partial(IdealSpec, ctx.n), mod)


def krull_dimension(poset) -> int:
    """Length (edge count) of the longest strict chain of the relation."""
    rel = poset.relation
    npts = len(rel)
    memo: dict[int, int] = {}

    def longest_from(i: int) -> int:
        if i not in memo:
            memo[i] = max(
                (1 + longest_from(j) for j in range(npts) if j != i and rel[i][j]),
                default=0,
            )
        return memo[i]

    return max((longest_from(i) for i in range(npts)), default=0)


# ---------------------------------------------------------------------------
# Dress's spectrum of the Burnside ring, for comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DressPoint:
    """The prime ideal ker(phi^{C_d} mod p) of the ring A(C_n)."""

    d: int
    p: int

    @property
    def label(self) -> str:
        return f"ker_phi^{{C_{self.d}}}_{self.p}"


def dress_contains(a: DressPoint, b: DressPoint) -> bool:
    """Containment of mark kernels: equal classes, or zero below prime."""
    return _contained(sub, a.p, a.d, b.p, b.d)


def dress_spectrum(ctx: CyclicGroupCtx, primes) -> SpectrumPoset:
    """Spec of the Burnside ring A(C_n) over the prime set, deduplicated
    by the same p-free classes as the Tambara spectrum."""
    return _build_poset(ctx.n, primes, DressPoint, sub)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def hasse_edges(poset) -> list[tuple[int, int]]:
    """Transitive reduction of the strict containment relation.

    (i, j) is a cover when i lies strictly below j and no point lies
    strictly between them, i.e. the strict up-set of i (a bitmask) and the
    strict down-set of j share no point.
    """
    rel = poset.relation
    npts = len(rel)
    up = [0] * npts
    down = [0] * npts
    for i, row in enumerate(rel):
        for j, below in enumerate(row):
            if below and i != j:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return [
        (i, j)
        for i, row in enumerate(rel)
        for j, below in enumerate(row)
        if below and i != j and not up[i] & down[j]
    ]


def _node_name(spec: IdealSpec) -> str:
    return f"pq_{spec.c}_{spec.p}"


def export_dot(poset: SpectrumPoset) -> str:
    """Graphviz digraph of the Hasse diagram; an arrow a -> b means the
    ideal a is contained in the ideal b."""
    lines = ["digraph tambara_spectrum {", "  rankdir=BT;"]
    for spec, merged in zip(poset.points, poset.merged):
        label = " = ".join(f"p_{{C_{d},{spec.p}}}" for d in merged)
        lines.append(f'  {_node_name(spec)} [label="{label}"];')
    for i, j in sorted(hasse_edges(poset)):
        lines.append(f"  {_node_name(poset.points[i])} -> {_node_name(poset.points[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(poset: SpectrumPoset) -> str:
    """JSON encoding of the poset: points with merged classes plus the
    Hasse edges as index pairs."""
    doc = {
        "n": poset.n,
        "primes": list(poset.primes),
        "points": [
            {"c": spec.c, "p": spec.p, "merged": list(poset.merged[i])}
            for i, spec in enumerate(poset.points)
        ],
        "hasse": [list(e) for e in sorted(hasse_edges(poset))],
    }
    return json.dumps(doc, indent=2) + "\n"


def poset_from_json(text: str) -> SpectrumPoset:
    """Rebuild a SpectrumPoset from its JSON export, recomputed from ``n``
    and ``primes``; the listed points must be exactly the recomputed ones."""
    doc = json.loads(text)
    n = doc["n"]
    if type(n) is not int:
        raise ValueError(f"JSON 'n' must be an integer, got {n!r}")
    poset = _build_poset(n, doc["primes"], partial(IdealSpec, n), mod)
    listed = [(pt["c"], pt["p"], pt["merged"]) for pt in doc["points"]]
    if listed != [(pt.c, pt.p, list(m)) for pt, m in zip(poset.points, poset.merged)]:
        raise ValueError("JSON points differ from the spectrum of its n and primes")
    return poset
