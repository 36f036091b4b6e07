"""The prime spectrum of the Burnside functor of C_n over a prime set.

Containment between the ideals (C_i, p) and (C_j, q) is decided by a
closed decision table (divisibility of q-residual parts); the same
question is also decided semantically, by comparing the exact kernel
lattices at every level, and the two routes are cross-validated in the
test suite.  Equal ideals are merged into canonical points (the p-free
representative of each class), so the relation is a partial order.
Dress's spectrum of the Burnside ring has the same points with a
different containment and is built as the same poset type.

The relation is stored as one bitmask per point.  Both containments
compare one residual key per point and prime, so each row is an OR of
per-layer masks, one per distinct key, and antisymmetry is the absence of
equal keys within a layer.  The Krull dimension peels antichains of
maximal points and the Hasse covers are the minimal points of each strict
up-set, both on the masks.
Exports: Graphviz DOT of the Hasse diagram and a JSON round-trip encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, repeat
from operator import mod, not_, or_, sub

from .ideals import IdealSpec, kernel_lattice
from .lattice import (
    CyclicGroupCtx,
    InvariantError,
    check_prime_or_zero,
    divisors,
    factorize,
    is_prime,
    o_p,
)


def _residual(c: int, q: int) -> int:
    """The key of C_c under the prime q of the containing point: o_q(c),
    or c itself when q = 0."""
    return c if q == 0 else o_p(c, q)


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
    return a.p in (0, b.p) and _residual(a.c, b.p) % _residual(b.c, b.p) == 0


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
    ps = {p for p, _ in factorize(n)} | {0}
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
    """Canonical points of a spectrum with their containment relation.

    Shared by the Tambara spectrum (IdealSpec points) and Dress's
    spectrum of A(C_n) (DressPoint points): both have the same points
    and differ only in containment.  ``relation[i]`` is a bitmask over
    the points: bit j is set iff point i lies in point j, so bit i is
    always set.
    """

    n: int
    primes: tuple[int, ...]
    points: tuple[IdealSpec | DressPoint, ...]
    merged: tuple[tuple[int, ...], ...]
    relation: tuple[int, ...]


def _build_poset(n: int, primes, point, gap) -> SpectrumPoset:
    """One point ``point(rep, p)`` per equality class over the prime set,
    sorted by (rep, p), and the containment relation as one bitmask per
    point: (C_ca, pa) lies in (C_cb, pb) exactly when pa is 0 or pb and
    ``gap`` of the two pb-residual keys is 0, ``mod`` for divisibility (the
    Tambara spectrum) and ``sub`` for equality (Dress).

    For p = 0 or p not dividing n every divisor is its own class; for
    p | n classes are keyed by the p-free part, represented by the p-free
    divisor itself.  A prime or an n that is not exactly an int is
    rejected, not coerced, by ``check_prime_or_zero`` and ``divisors``
    (TypeError).

    The points of layer q (those with p = q) have keys _residual(rep, q),
    and every residual of a divisor under q is one of them.  So for each
    key k of layer q one mask ``above[q][k]`` holds the layer-q points b
    with ``not gap(k, key_b)``, and the row of a point (c, p) is
    ``above[p][_residual(c, p)]``, or the OR of ``above[q][_residual(c, q)]``
    over every q when p = 0.

    The relation is antisymmetric iff the keys within each layer are
    distinct.  Distinct points a and b contain each other only if
    p_a in {0, p_b} and p_b in {0, p_a}, which forces p_a = p_b = q; then
    neither gap(k_a, k_b) nor gap(k_b, k_a) is nonzero, i.e. k_b | k_a and
    k_a | k_b (``mod``) or k_a = k_b (``sub``), and keys are positive, so
    k_a = k_b.  Conversely equal keys in one layer contain each other
    under either gap.  A repeated key raises InvariantError.
    """
    if not primes:
        raise ValueError("the prime set must be non-empty")
    ps = sorted({check_prime_or_zero(p) for p in primes})
    classes = sorted(
        (rep, p, merged) for p in ps for rep, merged in _canonical_classes(n, p)
    )
    points = tuple(point(rep, p) for rep, p, _ in classes)
    layers: dict[int, dict[int, int]] = {q: {} for q in ps}  # key -> point index
    for i, (rep, p, _) in enumerate(classes):
        other = layers[p].setdefault(_residual(rep, p), i)
        if other != i:
            raise InvariantError(
                f"distinct canonical points {points[other].label} and "
                f"{points[i].label} contain each other"
            )
    above = {}
    for q, layer in layers.items():
        keys, bits = list(layer), [1 << b for b in layer.values()]
        above[q] = {k: sum(compress(bits, map(not_, map(gap, repeat(k), keys)))) for k in keys}
    relation = tuple(
        reduce(or_, (above[q][_residual(rep, q)] for q in ((p,) if p else ps)))
        for rep, p, _ in classes
    )
    merged = tuple(m for _, _, m in classes)
    return SpectrumPoset(n, tuple(ps), points, merged, relation)


def enumerate_spectrum(ctx: CyclicGroupCtx, primes) -> SpectrumPoset:
    """All ideals (C_c, p) over the prime set, one point per equality class."""
    return _build_poset(ctx.n, primes, partial(IdealSpec, ctx.n), mod)


def _strict_up(poset) -> list[int]:
    """Per point, the bitmask of the points strictly above it."""
    return [row & ~(1 << i) for i, row in enumerate(poset.relation)]


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def krull_dimension(poset) -> int:
    """Length (edge count) of the longest strict chain of the relation.

    Mirsky: peel off the maximal points of what is left (no point of it
    strictly above them) until nothing is; the longest chain has one
    point per peel.
    """
    strict = _strict_up(poset)
    rest = (1 << len(strict)) - 1
    todo = range(len(strict))
    peels = 0
    while todo:
        top = sum(1 << i for i in todo if not strict[i] & rest)
        if not top:
            raise InvariantError("the containment relation has a cycle")
        rest ^= top
        todo = [i for i in todo if rest >> i & 1]
        peels += 1
    return max(peels - 1, 0)


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


def dress_spectrum(ctx: CyclicGroupCtx, primes) -> SpectrumPoset:
    """Spec of the Burnside ring A(C_n) over the prime set, deduplicated
    by the same p-free classes as the Tambara spectrum."""
    return _build_poset(ctx.n, primes, DressPoint, sub)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def hasse_edges(poset) -> list[tuple[int, int]]:
    """Transitive reduction of the strict containment relation, as pairs
    (i, j) in ascending order.

    (i, j) is a cover when i lies strictly below j and no point lies
    strictly between them: the covers of i are the points of its strict
    up-set ``up`` outside ``between``, the union of the strict up-sets of
    the points of ``up``.  A point already in ``between`` adds nothing to
    it (its strict up-set lies in the one that put it there) and is
    skipped; taking the highest index first skips most, because larger
    representatives lie lower.
    """
    strict = _strict_up(poset)
    edges = []
    for i, up in enumerate(strict):
        between = 0
        rest = up
        while rest:
            j = rest.bit_length() - 1
            between |= strict[j]
            rest &= ~(between | 1 << j)
        edges.extend((i, j) for j in _bits(up & ~between))
    return edges


def _node_name(spec: IdealSpec) -> str:
    return f"pq_{spec.c}_{spec.p}"


def export_dot(poset: SpectrumPoset) -> str:
    """Graphviz digraph of the Hasse diagram; an arrow a -> b means the
    ideal a is contained in the ideal b."""
    lines = ["digraph tambara_spectrum {", "  rankdir=BT;"]
    for spec, merged in zip(poset.points, poset.merged):
        label = " = ".join(f"p_{{C_{d},{spec.p}}}" for d in merged)
        lines.append(f'  {_node_name(spec)} [label="{label}"];')
    for i, j in hasse_edges(poset):
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
        "hasse": [list(e) for e in hasse_edges(poset)],
    }
    return json.dumps(doc, indent=2) + "\n"


def poset_from_json(text: str) -> SpectrumPoset:
    """Rebuild a SpectrumPoset from its JSON export, recomputed from ``n``
    and ``primes``; the listed points must be exactly the recomputed ones,
    and ``hasse`` exactly their recomputed covers.  A document that is not
    an object, a missing field, primes or points that are not a list, a
    point that is not an object with c, p and merged, and a missing or
    differing ``hasse`` raise ValueError naming what is wrong; a non-int
    n or prime raises TypeError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"spectrum JSON must be an object, got {type(doc).__name__}")
    for field in ("n", "primes", "points"):
        if field not in doc:
            raise ValueError(f"spectrum JSON has no {field!r} field")
    for field in ("primes", "points"):
        if not isinstance(doc[field], list):
            raise ValueError(f"spectrum JSON field {field!r} must be a list")
    if not all(isinstance(pt, dict) and pt.keys() >= {"c", "p", "merged"} for pt in doc["points"]):
        raise ValueError("each of the spectrum JSON 'points' must be an object with c, p and merged")
    n = doc["n"]
    poset = _build_poset(n, doc["primes"], partial(IdealSpec, n), mod)
    listed = [(pt["c"], pt["p"], pt["merged"]) for pt in doc["points"]]
    if listed != [(pt.c, pt.p, list(m)) for pt, m in zip(poset.points, poset.merged)]:
        raise ValueError("JSON points differ from the spectrum of its n and primes")
    if doc.get("hasse") != [list(e) for e in hasse_edges(poset)]:
        raise ValueError("spectrum JSON 'hasse' is missing or differs from the covers of its points")
    return poset
