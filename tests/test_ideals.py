import itertools
import random
import time
from math import comb, gcd

import pytest

from tambara import ideals
from tambara.burnside import BurnsideElement, from_t
from tambara.ideals import (
    IdealSpec,
    LevelLattice,
    box_elements,
    box_terms,
    kernel_lattice,
    level_generators,
    member,
    primality_probe,
    psi,
    q_check,
    ring_ideal_lattice,
)
from tambara.lattice import BudgetExceeded, CyclicGroupCtx, InvariantError, divisors, require_divides
from tambara.maps import norm, restrict, transfer
from tambara.spectrum import contains, default_primes, enumerate_spectrum


def B(level, coeffs):
    return BurnsideElement(level, coeffs)


def T(level, k):
    return BurnsideElement.transitive(level, k)


def random_element(rng, level, bound=6):
    coeffs = {
        k: rng.randint(-bound, bound) for k in divisors(level) if rng.random() < 0.7
    }
    return BurnsideElement(level, coeffs)


def test_spec_validation():
    IdealSpec(12, 6, 0)
    with pytest.raises(ValueError):
        IdealSpec(12, 5, 0)  # 5 does not divide 12
    with pytest.raises(ValueError):
        IdealSpec(12, 2, 4)  # 4 is not prime or zero
    with pytest.raises(ValueError):
        IdealSpec(6, 1, 6)
    # only exact ints: 12.0 would equal and hash like 12 and share its
    # kernel_lattice cache entry; p = 2.0 is refused before factorize sees it
    for args in ((12.0, 1, 2), (12, True, 2), (12, 2.0, 0), (True, 1, 0), (12, 1, 2.0)):
        with pytest.raises(TypeError):
            IdealSpec(*args)
    assert IdealSpec(12, 2, 3).label == "p_{C_2,3}"


@pytest.mark.parametrize("n, c, p", [(0, 1, 0), (-12, 1, 2), (-12, -1, 0), (0, 0, 0)])
def test_spec_needs_a_positive_ambient_order(n, c, p):
    # (0, 1, 0) and (-12, 1, 2) used to construct, since 0 % 1 == -12 % 1 == 0
    with pytest.raises(ValueError):
        IdealSpec(n, c, p)


@pytest.mark.parametrize("h", [6.0, True], ids=repr)
def test_kernel_lattice_refuses_a_non_int_level_on_a_warm_cache(h):
    # the cache is typed: 6.0 and True must not be answered by the entries of 6 and 1
    spec = IdealSpec(12, 2, 0)
    assert kernel_lattice(spec, 6).level == 6 and kernel_lattice(spec, 1).level == 1
    with pytest.raises(TypeError):
        kernel_lattice(spec, h)


def test_member_examples():
    assert member(IdealSpec(12, 2, 2), 2 * BurnsideElement.unit(12))
    assert not member(IdealSpec(12, 2, 0), T(12, 3))  # mark at e is 4
    for spec in (IdealSpec(12, 2, 0), IdealSpec(12, 12, 3)):
        assert member(spec, BurnsideElement(12))
        assert member(spec, BurnsideElement(4))
    assert member(IdealSpec(2, 1, 2), B(2, {2: 2}))  # mark 2 at e
    assert member(IdealSpec(6, 2, 3), B(6, {2: 1}))  # marks 3 at e and C_2
    with pytest.raises(ValueError):
        member(IdealSpec(12, 2, 0), B(5, {1: 1}))


def test_member_uses_gcd_levels():
    # at level h the ideal is the one attached to gcd(h, c)
    spec = IdealSpec(12, 4, 0)
    x = B(6, {2: 1})  # marks (3,3,0,0) at level 6; gcd(6,4)=2 needs marks at 1,2
    assert not member(spec, x)
    y = B(6, {2: 1}) - 3 * BurnsideElement.unit(6)
    # marks of y: (0,0,-3,-3); vanish at divisors of 2
    assert member(spec, y)


def member_by_mark_mod(spec, x):
    """The oracle for ``member``: one mark sum, reduced mod p (kept in Z
    for p = 0), per divisor of gcd(h, c)."""
    h = x.level
    require_divides(h, spec.n, "element level")
    p = spec.p
    return all((x.mark(i) % p if p else x.mark(i)) == 0 for i in divisors(gcd(h, spec.c)))


@pytest.mark.parametrize("n", [60, 360, 5040])
def test_member_equals_the_mark_mod_oracle(n):
    # every generator at the top level and at one other level of every
    # spec, which are members, and random elements and their multiples
    rng = random.Random(n)
    divs = divisors(n)
    for c in divs:
        for p in (0, 2, 3, 5, 7):
            spec = IdealSpec(n, c, p)
            for h in (n, rng.choice(divs)):
                x = random_element(rng, h)
                gens = level_generators(spec, h)
                for y in gens + [x] + [x * g for g in gens[:2]]:
                    assert member(spec, y) == member_by_mark_mod(spec, y)


def test_psi_examples():
    x = T(12, 4) - 3 * BurnsideElement.unit(12)
    assert psi(x, 2, 2) == 0  # 1*3 + (-3)*1
    assert psi(x, 2, 1) == 0  # empty cell sum
    rng = random.Random(2)
    for _ in range(100):
        n = rng.choice([4, 6, 12, 18, 30])
        c = rng.choice(divisors(n))
        z = random_element(rng, n)
        assert sum(psi(z, c, j) for j in divisors(c)) == z.mark(1)


def test_level_generators_example_c2_zero():
    gens = level_generators(IdealSpec(12, 2, 0), 12)
    expected = {
        T(12, 1) - 3 * T(12, 3),
        T(12, 2) - 6 * T(12, 12),
        T(12, 4) - 3 * T(12, 12),
        T(12, 6) - 2 * T(12, 12),
    }
    assert set(gens) == expected


def test_level_generators_prime_includes_unit_and_orbits():
    gens = level_generators(IdealSpec(12, 1, 2), 12)
    assert 2 * BurnsideElement.unit(12) in gens
    for k in divisors(12):
        if (12 // k) % 2 == 0:
            assert T(12, k) in gens


def test_level_generators_top_spec_is_zero_ideal():
    assert level_generators(IdealSpec(12, 12, 0), 12) == []


def test_level_generators_all_members():
    # construction asserts membership internally; exercise several specs
    for n in (4, 6, 12):
        for c in divisors(n):
            for p in (0, 2, 3):
                for h in divisors(n):
                    level_generators(IdealSpec(n, c, p), h)


def test_kernel_lattice_examples():
    assert kernel_lattice(IdealSpec(12, 12, 0), 12).basis == ()
    assert kernel_lattice(IdealSpec(2, 1, 2), 1).basis == ((2,),)
    spec = IdealSpec(12, 2, 0)
    kl = kernel_lattice(spec, 12)
    assert len(kl.basis) == 4
    assert kl.same_span(ring_ideal_lattice(12, level_generators(spec, 12)))


def test_ring_ideal_lattice_examples():
    lat = ring_ideal_lattice(2, [2 * BurnsideElement.unit(2)])
    assert lat.basis == ((2, 0), (0, 2))
    assert ring_ideal_lattice(2, []).basis == ()
    full = ring_ideal_lattice(2, [BurnsideElement.unit(2)])
    assert full.basis == ((1, 0), (0, 1))


def test_lattice_member_examples():
    lat = ring_ideal_lattice(2, [2 * BurnsideElement.unit(2)])
    assert lat.member(4 * from_t(2, 2))
    assert not lat.member(from_t(2, 2))
    spec = IdealSpec(12, 2, 0)
    assert kernel_lattice(spec, 12).member(T(12, 4) - 3 * BurnsideElement.unit(12))
    with pytest.raises(ValueError):
        lat.member(BurnsideElement.unit(4))
    four = ring_ideal_lattice(2, [4 * BurnsideElement.unit(2)])
    assert lat.contains_lattice(four)
    assert not four.contains_lattice(lat)
    with pytest.raises(ValueError):
        lat.contains_lattice(kernel_lattice(spec, 12))


def test_level_lattice_rejects_non_ideal_span():
    # span of C_4/C_4 alone is not closed under multiplication by C_4/e
    with pytest.raises(AssertionError):
        LevelLattice.from_rows(4, [[0, 0, 1]])
    # a basis given directly, as kernel_lattice gives it, is checked too,
    # and the error names the first product that escapes the span
    with pytest.raises(InvariantError, match=r"level 4 is not an ideal: C4/C4 \* C/C_1 escapes"):
        LevelLattice(4, ((0, 0, 1),))


def test_membership_equivalence_random():
    rng = random.Random(77)
    for n in (4, 6, 8, 12, 18, 30):
        for _ in range(40):
            c = rng.choice(divisors(n))
            p = rng.choice([0, 2, 3, 5])
            h = rng.choice(divisors(n))
            spec = IdealSpec(n, c, p)
            x = random_element(rng, h)
            assert member(spec, x) == kernel_lattice(spec, h).member(x)


def test_ideal_axioms_on_random_members():
    rng = random.Random(123)
    for _ in range(150):
        n = rng.choice([4, 6, 12, 18])
        spec = IdealSpec(n, rng.choice(divisors(n)), rng.choice([0, 2, 3]))
        h = rng.choice(divisors(n))
        lat = kernel_lattice(spec, h)
        # draw a random member from the lattice basis combination
        if not lat.basis:
            continue
        vec = [0] * len(lat.basis[0])
        for row in lat.basis:
            q = rng.randint(-2, 2)
            vec = [a + q * b for a, b in zip(vec, row)]
        x = B(h, dict(zip(divisors(h), vec)))
        assert member(spec, x)
        for j in divisors(h):
            assert member(spec, restrict(x, j))
        for hh in divisors(n):
            if hh % h == 0:
                assert member(spec, transfer(x, hh))
                assert member(spec, norm(x, hh))


def test_psi_vanishing_for_members():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice([4, 6, 12])
        c = rng.choice(divisors(n))
        p = rng.choice([0, 2, 3])
        spec = IdealSpec(n, c, p)
        lat = kernel_lattice(spec, n)
        if not lat.basis:
            continue
        vec = [0] * len(lat.basis[0])
        for row in lat.basis:
            q = rng.randint(-2, 2)
            vec = [a + q * b for a, b in zip(vec, row)]
        x = B(n, dict(zip(divisors(n), vec)))
        for j in divisors(c):
            value = psi(x, c, j)
            assert value % p == 0 if p else value == 0



@pytest.mark.parametrize("n", [12, 30])
def test_member_iff_every_psi_cell_vanishes(n):
    # the cell lemma behind kernel_lattice: at level h the marks at every
    # i | gcd(h, c) vanish mod p iff the cell sums psi at gcd(h, c) do
    for h in divisors(n):
        box = box_elements(h, 2, 2)
        for c in divisors(n):
            g = gcd(h, c)
            for p in (0, 2, 3, 5, 7):
                spec = IdealSpec(n, c, p)
                for x in box:
                    sums = [psi(x, g, j) for j in divisors(g)]
                    cells = not any(v % p if p else v for v in sums)
                    assert member(spec, x) == cells, (spec.label, x)

# --- Q-criterion ---------------------------------------------------------------


def test_q_check_holds_for_members():
    spec = IdealSpec(2, 1, 2)
    a = 2 * BurnsideElement.unit(2)
    report = q_check(spec, a, a)
    assert report.holds and report.witness is None
    assert member(spec, a)


def test_q_check_intersection_counterexample():
    family = [IdealSpec(2, 1, 2), IdealSpec(2, 1, 3)]
    a = 2 * BurnsideElement.unit(2)
    b = 3 * BurnsideElement.unit(2)
    assert q_check(family, a, b).holds
    assert not member(family[0], b) or not member(family[1], b)
    assert not all(member(s, a) for s in family)


def test_q_check_soundness_sampled():
    # members absorb: if a is a member then Q holds against anything
    rng = random.Random(8)
    spec = IdealSpec(6, 2, 2)
    for _ in range(20):
        h = rng.choice(divisors(6))
        lat = kernel_lattice(spec, h)
        vec = [0] * len(lat.basis[0])
        for row in lat.basis:
            q = rng.randint(-2, 2)
            vec = [a + q * b for a, b in zip(vec, row)]
        a = B(h, dict(zip(divisors(h), vec)))
        assert member(spec, a)
        b = random_element(rng, rng.choice(divisors(6)), bound=3)
        assert q_check(spec, a, b).holds


def test_q_check_reports_witness():
    spec = IdealSpec(2, 1, 2)
    a = BurnsideElement.unit(2)  # not a member, marks are 1
    report = q_check(spec, a, a)
    assert not report.holds
    assert report.witness is not None
    assert not member(spec, report.witness.element)


def test_callable_family_is_rejected():
    unit = BurnsideElement.unit(2)
    with pytest.raises(TypeError):
        q_check(lambda x: True, unit, unit, n=2)
    with pytest.raises(TypeError):
        primality_probe(lambda x: True, n=2)
    # an empty family still needs the ambient order
    with pytest.raises(ValueError):
        q_check([], unit, unit)
    assert q_check([], unit, unit, n=2).holds


def test_family_asked_about_another_order_is_refused():
    # primality_probe(family, n=4) used to answer for C_4 with 48 pairs
    family = [IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)]
    unit = BurnsideElement.unit(2)
    with pytest.raises(ValueError, match="C_12 asked about C_4"):
        primality_probe(family, n=4, bound=1)
    with pytest.raises(ValueError, match=r"mixes ambient orders \[6, 12\]"):
        primality_probe([IdealSpec(12, 1, 2), IdealSpec(6, 1, 3)], bound=1)
    with pytest.raises(ValueError):
        primality_probe(IdealSpec(12, 1, 2), n=6)
    with pytest.raises(ValueError):
        q_check(family, unit, unit, n=4)
    assert primality_probe(family, n=12, bound=1) == primality_probe(family, bound=1)
    assert q_check(family, unit, unit, n=12) == q_check(family, unit, unit)


def test_box_elements_counts():
    # support <= 2, coefficients in [-2,2]\{0} at level 12: 1 + 6*4 + 15*16
    assert len(box_elements(12, 2, 2)) == 1 + 24 + 240
    assert len(box_elements(1, 2, 2)) == 5


@pytest.mark.parametrize(
    "level, bound, max_support", [(1, 3, 1), (2, 2, 5), (4, 2, 2), (6, 2, 0), (12, 1, 3)]
)
def test_box_size_is_the_binomial_sum(level, bound, max_support):
    d = len(divisors(level))
    count = sum(comb(d, s) * (2 * bound) ** s for s in range(max_support + 1))
    assert len(box_elements(level, bound, max_support)) == count


@pytest.mark.parametrize("bound, max_support", [(-1, 2), (2, -3), (-1, -1)])
def test_negative_box_bound_or_support_is_rejected(bound, max_support):
    # such a box holds only the zero element, and the probe would report
    # no counterexample from it
    with pytest.raises(ValueError):
        box_elements(4, bound, max_support)
    with pytest.raises(ValueError):
        primality_probe(IdealSpec(4, 2, 0), bound=bound, max_support=max_support)


@pytest.mark.parametrize("bound, max_support", [(True, 2), (2, True), (2.0, 2), (2, 2.0), ("2", 2)])
def test_non_int_box_bound_or_support_is_rejected(bound, max_support):
    # box_elements(2, True) used to return the 9 elements of bound 1
    with pytest.raises(TypeError):
        box_elements(2, bound, max_support)
    with pytest.raises(TypeError):
        primality_probe([IdealSpec(4, 1, 2), IdealSpec(4, 1, 3)], bound=bound, max_support=max_support)


@pytest.mark.parametrize("level", [1, 12, 60])
@pytest.mark.parametrize("values", [(-2, -1, 1, 2), (1, 2)])
@pytest.mark.parametrize("max_support", [0, 1, 2, 3])
def test_box_terms_order_is_size_then_orbits_then_coefficients(level, values, max_support):
    # the probe's pair order and the oracle's case counts follow this
    # order; the oracle enumerates every orbit tuple and sorts
    divs = divisors(level)
    rank = {m: r for r, m in enumerate(values)}
    want = sorted(
        (
            (orbits, ms)
            for size in range(max_support + 1)
            for orbits in itertools.product(divs, repeat=size)
            if list(orbits) == sorted(set(orbits))
            for ms in itertools.product(values, repeat=size)
        ),
        key=lambda term: (len(term[0]), term[0], [rank[m] for m in term[1]]),
    )
    assert list(box_terms(level, values, max_support)) == want


def test_box_over_the_limit_is_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(ideals, "BOX_LIMIT", 60)
    with pytest.raises(BudgetExceeded, match="61 elements"):
        box_elements(4, 2, 2)  # 1 + 3*4 + 3*16
    with pytest.raises(BudgetExceeded, match="61 elements"):
        box_terms(4, (-2, -1, 1, 2), 2)  # when called, before the first term is asked for
    assert len(box_elements(2, 2, 2)) == 25
    # a two-spec probe keeps the boxes of levels 1, 2 and 4 (5 + 25 + 61)
    # and refuses before reading any marks
    monkeypatch.setattr(ideals, "marks", lambda x, g: pytest.fail(f"read the marks of {x}"))
    with pytest.raises(BudgetExceeded, match="91 box elements"):
        primality_probe([IdealSpec(4, 1, 2), IdealSpec(4, 1, 3)], bound=2)


def test_probe_budget_counts_every_level(monkeypatch):
    # the top box of C_12 alone has 265 elements; with the other five
    # levels (229) a two-spec probe keeps 494
    monkeypatch.setattr(ideals, "BOX_LIMIT", 300)
    assert len(box_elements(12, 2, 2)) == 265
    monkeypatch.setattr(ideals, "marks", lambda x, g: pytest.fail(f"read the marks of {x}"))
    with pytest.raises(BudgetExceeded, match="494 box elements"):
        primality_probe([IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)], bound=2, max_support=2)


def test_single_spec_is_answered_before_any_box_is_sized(monkeypatch):
    # one spec keeps nothing, so a box far past BOX_LIMIT is never counted,
    # while the argument checks still run first
    monkeypatch.setattr(ideals, "BOX_LIMIT", 60)
    monkeypatch.setattr(ideals, "_box_size", lambda *a: pytest.fail("sized a box"))
    monkeypatch.setattr(ideals, "box_terms", lambda *a: pytest.fail("enumerated a box"))
    spec = IdealSpec(12, 1, 2)
    assert primality_probe(spec, bound=2) == []
    assert primality_probe([spec, spec], bound=2) == []
    with pytest.raises(ValueError):
        primality_probe(spec, n=24, bound=2)
    with pytest.raises(TypeError):
        primality_probe(spec, bound=2.0)
    with pytest.raises(ValueError):
        primality_probe(spec, max_support=-1)
    with pytest.raises(BudgetExceeded, match="62 coefficient values"):
        primality_probe(spec, bound=31)


def test_probe_box_past_the_default_limit_is_refused():
    assert ideals.BOX_LIMIT < 1 + 2 * 10**5
    with pytest.raises(BudgetExceeded):
        primality_probe(IdealSpec(1, 1, 0), bound=10**5)


def test_probe_pairs_past_the_limit_are_refused_before_any_is_built(monkeypatch):
    # 16,104 box elements, within BOX_LIMIT, whose pairs number 12,777,600
    family = [IdealSpec(360, 1, 2), IdealSpec(360, 1, 3)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="12777600 pairs"):
        primality_probe(family, bound=2)
    assert time.perf_counter() - start < 1.0
    # on the cached walk, the count is refused before any element is built
    monkeypatch.setattr(ideals, "BurnsideElement", lambda *a: pytest.fail("built an element"))
    with pytest.raises(BudgetExceeded, match="12777600 pairs"):
        primality_probe(family, bound=2)


def test_probe_pairs_within_the_limit_are_returned():
    # the benchmark's family: the most pairs of any probe in the tests,
    # demos and benchmark
    family = [IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)]
    assert len(primality_probe(family, bound=3)) == 75_168 <= ideals.BOX_LIMIT


def test_support_zero_box_is_the_zero_element_whatever_the_bound():
    assert box_elements(4, 10**6, 0) == [B(4, {})]
    assert primality_probe(IdealSpec(4, 2, 0), bound=10**6, max_support=0) == []


def test_primality_probe_small_spec_clean():
    for c in divisors(6):
        for p in (0, 2, 3, 5):
            assert primality_probe(IdealSpec(6, c, p), bound=1) == []


def test_primality_probe_intersection_finds_witness():
    family = [IdealSpec(2, 1, 2), IdealSpec(2, 1, 3)]
    found = primality_probe(family, bound=3, max_support=1)
    a = 2 * BurnsideElement.unit(2)
    b = 3 * BurnsideElement.unit(2)
    assert (a, b) in found or (b, a) in found


def test_primality_probe_trivial_family_is_empty():
    # the whole functor: everything is a member, so nothing to report
    assert primality_probe([], n=6, bound=2) == []


PROBE_FAMILIES = [
    IdealSpec(n, c, p) for n in (4, 6) for c in divisors(n) for p in (0, 2, 3, 5)
] + [
    [IdealSpec(4, 1, 2), IdealSpec(4, 1, 3)],
    [IdealSpec(6, 2, 2), IdealSpec(6, 3, 3)],  # pairs at levels 2, 3 and 6
]


@pytest.mark.parametrize(
    "family",
    PROBE_FAMILIES,
    ids=lambda f: "&".join(f"{s.n},{s.c},{s.p}" for s in (f if isinstance(f, list) else [f])),
)
def test_probe_matches_q_check_loop(family):
    # reference: q_check on every pair of non-members, in box order
    specs = family if isinstance(family, list) else [family]
    elems = [
        e
        for h in divisors(specs[0].n)
        for e in box_elements(h, 1, 2)
        if not all(member(s, e) for s in specs)
    ]
    expected = [
        (a, b) for i, a in enumerate(elems) for b in elems[i:] if q_check(family, a, b).holds
    ]
    assert primality_probe(family, bound=1, max_support=2) == expected


def _oracle_mask(e, slots):
    # bit per slot (i, p): the marks of e at every j | gcd(i, level) vanish mod p
    mask = 0
    for bit, (i, p) in enumerate(slots):
        if all((e.mark(j) % p if p else e.mark(j)) == 0 for j in divisors(gcd(i, e.level))):
            mask |= 1 << bit
    return mask


def _probe_oracle(specs, n, bound, max_support):
    # the element-by-element route: a mark mask per box element and a
    # quadratic loop over the pairs of non-members, in box order
    slots = list({(i, s.p) for s in specs for i in divisors(s.c)})
    full = (1 << len(slots)) - 1
    elems, masks = [], []
    for h in divisors(n):
        for e in box_elements(h, bound, max_support):
            if not all(member(s, e) for s in specs):
                elems.append(e)
                masks.append(_oracle_mask(e, slots))
    return [
        (elems[a], elems[b])
        for a in range(len(masks))
        for b in range(a, len(masks))
        if masks[a] | masks[b] == full
    ]


def _canonical_points(n):
    return enumerate_spectrum(CyclicGroupCtx(n), default_primes(n)).points


ORACLE_CASES = [
    ([spec], bound, 2) for n in (4, 6, 8, 12) for spec in _canonical_points(n) for bound in (1, 2)
] + [
    ([IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)], 3, 2),  # 75,168 pairs
    ([IdealSpec(6, 2, 2), IdealSpec(6, 3, 3)], 2, 2),
    ([IdealSpec(12, 2, 2), IdealSpec(12, 3, 3), IdealSpec(12, 4, 5)], 2, 2),
    ([IdealSpec(20, 2, 2), IdealSpec(20, 5, 5)], 2, 2),  # 10,416 pairs
]


@pytest.mark.parametrize(
    "specs, bound, max_support",
    ORACLE_CASES,
    ids=lambda v: "&".join(f"{s.n},{s.c},{s.p}" for s in v) if isinstance(v, list) else str(v),
)
def test_probe_matches_element_by_element_oracle(specs, bound, max_support):
    family = specs if len(specs) > 1 else specs[0]
    expected = _probe_oracle(specs, specs[0].n, bound, max_support)
    assert primality_probe(family, bound=bound, max_support=max_support) == expected
    if len(specs) > 1:
        assert expected  # the families are not prime, so the comparison is not vacuous


def test_equal_elements_of_one_probe_result_are_one_object():
    # each kept element is built once and shared by all of its pairs
    found = _cold_probe([IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)])
    objects = {}
    for x in itertools.chain.from_iterable(found):
        assert objects.setdefault(x, x) is x
    assert len(objects) == 282 < 2 * len(found)


def test_box_elements_built_unchecked_equal_checked_ones():
    # box elements skip the constructor's per-key checks; each must equal,
    # and hash like, the element the checks build from the same coefficients
    box = box_elements(60, 2)
    assert len(box) == 1 + 12 * 4 + 66 * 16
    for x in box:
        checked = BurnsideElement(x.level, dict(x.coeffs))
        assert x == checked and hash(x) == hash(checked)
        assert list(x.coeffs) == sorted(x.coeffs) and all(x.coeffs.values())


def _probe_cases():
    twelve = _canonical_points(12)[:6]
    twenty = _canonical_points(20)[-6:]
    family = [IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)]
    other = [IdealSpec(20, 2, 2), IdealSpec(20, 5, 5)]
    return [
        case
        for pair in zip(twelve, twenty, [family, other] * 3)
        for case in pair
    ]


def _cold_probe(family):
    ideals._walk.cache_clear()
    return primality_probe(family, bound=2)


def _probe_or_refusal(family):
    try:
        return primality_probe(family, bound=2)
    except BudgetExceeded as exc:
        return str(exc)


def _assert_walk_within_the_limit(family):
    # the walk of the family's probe, still the cached one, read back by a call that hits
    hits = ideals._walk.cache_info().hits
    walk = ideals._walk(family[0].n, 2, 2, tuple(sorted({s.p for s in family})))
    assert ideals._walk.cache_info().hits == hits + 1
    assert sum(len(ids) for *_, ids in walk) <= ideals.BOX_LIMIT
    assert all(type(z) is tuple for _, _, zeros, _ in walk for z in zeros)
    # each distinct tuple of zero masks is kept once
    assert all(len(set(zeros)) == len(zeros) == max(ids) + 1 for _, _, zeros, ids in walk)


@pytest.mark.parametrize("limit", [None, 1000])
def test_probe_results_do_not_depend_on_call_order(monkeypatch, limit):
    # the families at n = 12 and n = 20 take turns, so each of their
    # probes replaces the one cached walk; at limit 1000 each probe keeps
    # 494 of the allowed elements, and each family's 12,312 or 10,416
    # pairs are refused after its walk
    if limit:
        monkeypatch.setattr(ideals, "BOX_LIMIT", limit)
    cases = _probe_cases()
    cold = []
    for f in cases:
        ideals._walk.cache_clear()
        cold.append(_probe_or_refusal(f))
    assert any(cold) and not all(cold)
    refused = [type(r) is str for r in cold]
    assert refused == [bool(limit) and isinstance(f, list) for f in cases]
    for order in (cases, cases[::-1], cases):
        warm = {id(f): _probe_or_refusal(f) for f in order}
        assert [warm[id(f)] for f in cases] == cold
        _assert_walk_within_the_limit(next(f for f in order[::-1] if isinstance(f, list)))


def test_mutating_a_probe_result_changes_no_later_result():
    family = [IdealSpec(12, 2, 2), IdealSpec(12, 3, 3)]
    spec = IdealSpec(12, 2, 3)
    expected = _cold_probe(family)
    first, empty = primality_probe(family, bound=2), primality_probe(spec, bound=2)
    first.reverse()
    first.append(first[0])
    empty.append(first[0])
    assert primality_probe(family, bound=2) == expected
    assert primality_probe(spec, bound=2) == []


def test_lowered_limit_refuses_on_a_warm_cache(monkeypatch):
    family = [IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)]
    assert primality_probe(family, bound=2)
    monkeypatch.setattr(ideals, "BOX_LIMIT", 300)
    with pytest.raises(BudgetExceeded, match="494 box elements"):
        primality_probe(family, bound=2)


@pytest.mark.parametrize("n", [60, 360])
def test_probe_cache_stays_within_the_limit(n):
    # each point with a comparable point: the intersection is the smaller
    # one, which is prime, so the probe walks and finds nothing; sorted by
    # prime set, the families of one set share one walk
    points = _canonical_points(n)
    families = []
    for a in points:
        b = next(b for b in points if b != a and (contains(a, b) or contains(b, a)))
        families.append([a, b])
    families.sort(key=lambda f: sorted({s.p for s in f}))
    ideals._walk.cache_clear()
    for family in families:
        assert primality_probe(family, bound=2) == [], [s.label for s in family]
        _assert_walk_within_the_limit(family)
    assert ideals._walk.cache_info().misses < len(families)


def test_two_point_families_at_12_are_prime_iff_comparable():
    # comparable points intersect in the smaller one, a prime; the bound-2
    # box finds witnesses for 48 of the 69 incomparable pairs
    points = _canonical_points(12)
    comparable = witnessed = 0
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            pairs = primality_probe([a, b], bound=2)
            if contains(a, b) or contains(b, a):
                assert pairs == [], (a.label, b.label)
                comparable += 1
            else:
                witnessed += bool(pairs)
    assert (len(points), comparable, witnessed) == (17, 67, 48)


def test_three_point_families_at_12():
    # a family with a least point intersects in that point, a prime; for
    # every family the probe falsifies, its first pair passes q_check and
    # neither element lies in every point of the family
    points = _canonical_points(12)
    least = witnessed = 0
    for family in itertools.combinations(points, 3):
        pairs = primality_probe(list(family), bound=2)
        if any(all(contains(a, b) for b in family) for a in family):
            assert pairs == [], [s.label for s in family]
            least += 1
        if pairs:
            a, b = pairs[0]
            assert q_check(list(family), a, b).holds, [s.label for s in family]
            for x in (a, b):
                assert not all(member(s, x) for s in family), [s.label for s in family]
            witnessed += 1
    assert (comb(len(points), 3), least, witnessed) == (680, 259, 234)


def test_repeated_specs_probe_as_the_family_of_distinct_specs():
    s, t = IdealSpec(12, 1, 2), IdealSpec(12, 2, 3)
    assert primality_probe([s, s], bound=1) == primality_probe(s, bound=1) == []
    assert primality_probe([s, t, t], bound=1) == primality_probe([s, t], bound=1)
    assert len(primality_probe([s, t], bound=1)) == 1144
    a, b = 2 * BurnsideElement.unit(12), T(12, 6)
    assert q_check([s, t, t, s], a, b) == q_check([s, t], a, b)


@pytest.mark.parametrize("n", [12, 30, 60])
def test_generators_outside_a_point_witness_non_containment(n):
    # a is inside b iff every generator of a is a member of b; for
    # incomparable points, witnesses each way satisfy Q although neither
    # is in the intersection, so the intersection is not prime
    points = _canonical_points(n)
    gens = {a: [g for h in divisors(n) for g in level_generators(a, h)] for a in points}
    incomparable = 0
    for a in points:
        for b in points:
            outside = [g for g in gens[a] if not member(b, g)]
            assert bool(outside) == (not contains(a, b)), (a.label, b.label)
            if outside and not contains(b, a):
                wb = next(g for g in gens[b] if not member(a, g))
                assert q_check([a, b], outside[0], wb).holds, (a.label, b.label)
                incomparable += 1
    assert incomparable == {12: 138, 30: 488, 60: 1028}[n]


@pytest.mark.parametrize("n", [4, 6, 8, 12, 30, 60])
def test_single_spec_non_members_miss_the_top_slot(n):
    # the probe's lemma: an element covers (c, p) iff it is a member, so
    # no pair of non-members covers every slot of a single spec
    for spec in _canonical_points(n):
        slots = [(i, spec.p) for i in divisors(spec.c)]
        top = 1 << slots.index((spec.c, spec.p))
        non_members = [
            e for h in divisors(n) for e in box_elements(h, 1, 2) if not member(spec, e)
        ]
        assert non_members, spec.label
        assert all(not _oracle_mask(e, slots) & top for e in non_members), spec.label


def test_tambara_generator_check_examples():
    spec = IdealSpec(4, 1, 2)
    for x in (2 * BurnsideElement.unit(4), T(4, 2), T(4, 1)):
        assert member(spec, x)
    assert member(spec, from_t(2, 2) - 2 * BurnsideElement.unit(2))


def test_t_p_minus_p_membership():
    # t_q - q at one q-step above the q-part of c, for every prime q | n
    spec = IdealSpec(12, 1, 5)
    for q in (2, 3):
        elem = from_t(q, q) - q * BurnsideElement.unit(q)
        assert member(spec, elem)
