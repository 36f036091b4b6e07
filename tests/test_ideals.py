import random
from math import comb, gcd

import pytest

from tambara import ideals
from tambara.burnside import BurnsideElement, from_t
from tambara.ideals import (
    IdealSpec,
    LevelLattice,
    box_elements,
    kernel_lattice,
    level_generators,
    member,
    primality_probe,
    psi,
    q_check,
    ring_ideal_lattice,
)
from tambara.lattice import BudgetExceeded, CyclicGroupCtx, InvariantError, divisors
from tambara.maps import norm, restrict, transfer
from tambara.spectrum import default_primes, enumerate_spectrum


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
    assert IdealSpec(12, 2, 3).label == "p_{C_2,3}"


def test_member_examples():
    assert member(IdealSpec(12, 2, 2), 2 * BurnsideElement.unit(12))
    assert not member(IdealSpec(12, 2, 0), T(12, 3))  # mark at e is 4
    for spec in (IdealSpec(12, 2, 0), IdealSpec(12, 12, 3)):
        assert member(spec, BurnsideElement.zero(12))
        assert member(spec, BurnsideElement.zero(4))
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


def test_level_lattice_rejects_non_ideal_span():
    # span of C_4/C_4 alone is not closed under multiplication by C_4/e
    with pytest.raises(AssertionError):
        LevelLattice.from_rows(4, [[0, 0, 1]])
    # a basis given directly, as kernel_lattice gives it, is checked too
    with pytest.raises(InvariantError):
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


def test_box_over_the_limit_is_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(ideals, "BOX_LIMIT", 60)
    with pytest.raises(BudgetExceeded, match="61 elements"):
        box_elements(4, 2, 2)  # 1 + 3*4 + 3*16
    assert len(box_elements(2, 2, 2)) == 25
    # the probe keeps the boxes of levels 1, 2 and 4 (5 + 25 + 61) and a
    # table of 3 * 3 * 5 marks, and refuses before reading any marks
    monkeypatch.setattr(ideals, "mark_table", lambda h: pytest.fail(f"enumerated C_{h}"))
    with pytest.raises(BudgetExceeded, match="136 elements"):
        primality_probe(IdealSpec(4, 2, 0), bound=2)


def test_probe_budget_counts_every_level_and_the_table(monkeypatch):
    # the top box of C_12 alone has 265 elements; with the other five
    # levels (229) and the table (6 * 6 * 5 = 180) the probe keeps 674
    monkeypatch.setattr(ideals, "BOX_LIMIT", 300)
    assert len(box_elements(12, 2, 2)) == 265
    monkeypatch.setattr(ideals, "mark_table", lambda h: pytest.fail(f"enumerated C_{h}"))
    with pytest.raises(BudgetExceeded, match="674 elements"):
        primality_probe(IdealSpec(12, 1, 2), bound=2, max_support=2)


def test_probe_box_past_the_default_limit_is_refused():
    assert ideals.BOX_LIMIT < 1 + 2 * 10**5
    with pytest.raises(BudgetExceeded):
        primality_probe(IdealSpec(1, 1, 0), bound=10**5)


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
        if all(e.mark_mod(j, p) == 0 for j in divisors(gcd(i, e.level))):
            mask |= 1 << bit
    return mask


def _probe_oracle(specs, n, bound, max_support):
    # the element-by-element route: a mark_mod mask per box element and a
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


@pytest.mark.parametrize("n", [4, 6, 8, 12])
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
