import itertools
import json
import random
from functools import lru_cache, partial

import pytest

from tambara.burnside import (
    BurnsideElement,
    GhostVector,
    NotInGhostImage,
    element_from_json,
    element_to_json,
    from_t,
    from_vector,
    ghost,
    ghost_from_json,
    ghost_to_json,
    marks,
    to_vector,
    unghost,
)
from tambara.gsets import fixed_points, realize
from tambara.ideals import IdealSpec, member
from tambara.lattice import divisors, factorize

from .lattice_oracle import mark_table


def B(level, coeffs):
    return BurnsideElement(level, coeffs)


def random_element(rng, level, bound=10, density=0.7):
    coeffs = {
        k: rng.randint(-bound, bound)
        for k in divisors(level)
        if rng.random() < density
    }
    return BurnsideElement(level, coeffs)


# --- construction and ring structure ---------------------------------------


def test_from_t_examples():
    assert from_t(6, 3) == B(6, {2: 1})  # C_6/C_2 has 3 points
    assert from_t(6, 1) == BurnsideElement.unit(6)
    assert from_t(12, 12) == B(12, {1: 1})  # free orbit


def test_from_t_rejects_nondivisor_order():
    with pytest.raises(ValueError):
        from_t(6, 4)


def test_canonical_sparse_form():
    assert B(6, {2: 0, 3: 1}).coeffs == {3: 1}
    assert B(6, {}) == BurnsideElement(6)
    with pytest.raises(ValueError):
        B(6, {4: 1})  # 4 does not divide 6


def test_add_neg_examples():
    x = B(6, {2: 1})
    assert x + x == B(6, {2: 2})
    assert x + (-x) == BurnsideElement(6)
    assert not (x - x)
    free = B(6, {1: 1})
    assert (free - B(6, {3: 1})) + B(6, {3: 1}) == free


def test_add_rejects_level_mismatch():
    with pytest.raises(ValueError):
        B(6, {2: 1}) + B(12, {2: 1})


def test_mul_t_rule_examples():
    # t_2 * t_3 = t_6 at level 6: C_6/C_3 x C_6/C_2 = C_6/e
    assert from_t(6, 2) * from_t(6, 3) == from_t(6, 6)
    x = B(6, {1: 2, 3: -1})
    assert x * BurnsideElement.unit(6) == x
    # C_2/e x C_2/e = 2 C_2/e
    assert B(2, {1: 1}) * B(2, {1: 1}) == B(2, {1: 2})


def test_scalar_multiplication():
    x = B(6, {2: 1})
    assert 3 * x == B(6, {2: 3}) == x * 3
    assert 0 * x == BurnsideElement(6)


def test_t_rule_gcd_lcm_generic():
    # t_a * t_b = gcd(a,b) t_lcm(a,b) for every pair of orders at level 36
    from math import gcd

    level = 36
    for a in divisors(level):
        for b in divisors(level):
            lcm = a * b // gcd(a, b)
            assert from_t(level, a) * from_t(level, b) == gcd(a, b) * from_t(level, lcm)


# --- marks and the ghost embedding ------------------------------------------


def test_mark_examples():
    x = B(6, {2: 1})  # C_6/C_2
    assert x.mark(2) == 3
    assert x.mark(3) == 0
    for i in divisors(12):
        assert BurnsideElement.unit(12).mark(i) == 1
    with pytest.raises(ValueError):
        x.mark(4)


@pytest.mark.parametrize("i", [2.0, True, 0, -2], ids=repr)
def test_mark_subgroup_must_be_a_positive_int(i):
    # x.mark(2.0) and fixed_points(realize(x), 2.0) used to return 5
    x = B(12, {4: 1, 12: 2})
    error = ValueError if type(i) is int else TypeError
    for call in (x.mark, partial(marks, x), partial(fixed_points, realize(x))):
        with pytest.raises(error):
            call(i)


def test_mark_mod_examples():
    # a mark reduced mod a prime p, or kept in Z for p = 0, as ``member``
    # reads it at each C_i
    assert B(2, {2: 2}).mark(1) % 2 == 0
    assert B(6, {2: 1}).mark(2) % 3 == 0
    assert member(IdealSpec(2, 1, 2), B(2, {2: 2}))
    assert member(IdealSpec(6, 2, 3), B(6, {2: 1}))
    x = B(6, {2: 1, 1: -2})
    for i in divisors(6):
        assert member(IdealSpec(6, i, 0), x) == all(x.mark(j) == 0 for j in divisors(i))
    with pytest.raises(ValueError):
        IdealSpec(6, 1, 6)  # 6 is not prime or zero


def test_ghost_example_against_oracle():
    # ghost(C_6/C_2) = (3, 3, 0, 0): fixed points of the 3-element C_6-set
    x = B(6, {2: 1})
    v = ghost(x)
    assert v.as_tuple() == (3, 3, 0, 0)
    s = realize(x)
    for i in divisors(6):
        assert v.values[i] == fixed_points(s, i)


def test_ghost_of_unit_is_all_ones():
    for h in (1, 2, 6, 12):
        assert ghost(BurnsideElement.unit(h)).as_tuple() == tuple(
            1 for _ in divisors(h)
        )


def test_ghost_virtual_element_by_linearity():
    # 2 C_2/C_2 - C_2/e: marks by oracle counting on each realizable part
    pos, neg = B(2, {2: 2}), B(2, {1: 1})
    expected = tuple(
        fixed_points(realize(pos), i) - fixed_points(realize(neg), i)
        for i in divisors(2)
    )
    assert ghost(pos - neg).as_tuple() == expected == (0, 2)


def test_mark_agrees_with_fixed_point_oracle_on_transitives():
    for h in range(1, 13):
        for k in divisors(h):
            x = BurnsideElement.transitive(h, k)
            s = realize(x)
            for i in divisors(h):
                assert x.mark(i) == fixed_points(s, i)


@pytest.mark.parametrize("h", [1, 12, 360, 5040, 20160, 55440])
def test_one_pass_marks_equal_each_mark_and_the_mark_table(h):
    # oracles: x.mark(i), one sum per divisor, and the mark table's rows
    # times the coefficient vector
    rng = random.Random(h)
    divs = divisors(h)
    for density in (0.05, 0.3, 1.0):
        x = random_element(rng, h, bound=10**6, density=density)
        v = to_vector(x)
        by_table = {i: sum(map(int.__mul__, row, v)) for i, row in zip(divs, mark_table(h))}
        assert marks(x, h) == {i: x.mark(i) for i in divs} == by_table
        for g in rng.sample(divs, min(4, len(divs))):
            assert marks(x, g) == {i: by_table[i] for i in divisors(g)}
    with pytest.raises(ValueError):
        marks(B(6, {2: 1}), 4)


def test_unghost_examples():
    assert unghost(GhostVector(6, {1: 3, 2: 3, 3: 0, 6: 0})) == B(6, {2: 1})
    for h in (1, 4, 12):
        ones = GhostVector(h, {i: 1 for i in divisors(h)})
        assert unghost(ones) == BurnsideElement.unit(h)


def test_unghost_integrality_failure():
    with pytest.raises(NotInGhostImage) as err:
        unghost(GhostVector(2, {1: 1, 2: 0}))
    assert err.value.divisor == 1


# --- the Moebius oracle for unghost --------------------------------------------


def mu(m: int) -> int:
    """Number-theoretic Moebius function."""
    if m < 1:
        raise ValueError(f"mu is defined on positive integers, got {m}")
    value = 1
    for _, e in factorize(m):
        if e > 1:
            return 0
        value = -value
    return value


def moebius(j: int, k: int) -> int:
    """Moebius function of the subgroup poset of a cyclic group.

    For C_j <= C_k this is mu(k/j); if j does not divide k the poset
    value is 0.
    """
    if j < 1 or k < 1:
        raise ValueError("subgroup orders must be positive")
    if k % j != 0:
        return 0
    return mu(k // j)


@lru_cache(maxsize=None)
def moebius_rows(h):
    divs = divisors(h)
    return tuple((j, tuple((i, moebius(j, i)) for i in divs if i % j == 0)) for j in divs)


def unghost_by_moebius(v):
    """Moebius inversion: m_j = (sum over j | i | h of moebius(j, i) v[i])
    / (h/j), the first inexact division (ascending j) raising."""
    h = v.level
    coeffs = {}
    for j, row in moebius_rows(h):
        total = sum(mob * v.values[i] for i, mob in row)
        q, r = divmod(total, h // j)
        if r:
            raise NotInGhostImage(
                j, f"not a ghost vector: m_{j} = {total}/{h // j} is not an integer"
            )
        if q:
            coeffs[j] = q
    return BurnsideElement(h, coeffs)


def test_moebius_examples():
    assert moebius(2, 12) == mu(6) == 1
    assert moebius(1, 12) == mu(12) == 0
    assert moebius(3, 2) == 0


def test_moebius_poset_recursion():
    # sum over j | x | k of mu(j, x) vanishes for j strictly below k
    for k in divisors(360):
        for j in divisors(k):
            total = sum(moebius(j, x) for x in divisors(k) if x % j == 0)
            assert total == (1 if j == k else 0)


def outcome(invert, v):
    try:
        return invert(v)
    except NotInGhostImage as err:
        return (err.divisor, str(err))


def test_unghost_equals_moebius_inversion_on_small_boxes():
    for h in (1, 2, 4, 6, 12):
        divs = divisors(h)
        for marks in itertools.product(range(-2, 3), repeat=len(divs)):
            v = GhostVector(h, dict(zip(divs, marks)))
            assert outcome(unghost, v) == outcome(unghost_by_moebius, v)


@pytest.mark.parametrize("h", [60, 360, 5040])
def test_unghost_equals_moebius_inversion_on_random_vectors(h):
    # a third each: images of elements, images with one mark moved, and
    # arbitrary marks; the two moved kinds fail at varying divisors
    rng = random.Random(h)
    divs = divisors(h)
    failures = set()
    for t in range(1000):
        if t % 3 == 2:
            marks = {i: rng.randint(-10**6, 10**6) for i in divs}
        else:
            marks = dict(ghost(random_element(rng, h, bound=50, density=0.3)).values)
            if t % 3 == 1:
                marks[rng.choice(divs)] += rng.choice([-1, 1]) * rng.randint(1, 5)
        v = GhostVector(h, marks)
        expected = outcome(unghost_by_moebius, v)
        assert outcome(unghost, v) == expected
        if isinstance(expected, tuple):
            failures.add(expected[0])
    assert len(failures) > 1


def test_ghost_vector_validates_keys():
    with pytest.raises(ValueError):
        GhostVector(6, {1: 1, 2: 1})


@pytest.mark.parametrize(
    "make",
    [
        lambda: B(6, {2: 1.5}),
        lambda: B(6, {2.0: 1}),
        lambda: B(6, {2: True}),
        lambda: B(6.0, {2: 1}),
        lambda: GhostVector(2, {1: 1.5, 2: 1}),
        lambda: GhostVector(2, {1.0: 1, 2: 1}),
        lambda: GhostVector(2.0, {1: 1, 2: 1}),
        lambda: B(True, {}),
        lambda: GhostVector(True, {1: 1}),
    ],
    ids=["value", "key", "bool", "level", "mark", "ghost-key", "ghost-level", "bool-level",
         "ghost-bool-level"],
)
def test_constructors_reject_non_int(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: B(0, {}), lambda: B(-6, {1: 1}), lambda: GhostVector(0, {}), lambda: GhostVector(-1, {})],
    ids=["zero", "negative", "ghost-zero", "ghost-negative"],
)
def test_constructors_reject_non_positive_levels(make):
    with pytest.raises(ValueError):
        make()


def test_elements_are_read_only():
    # each of these writes succeeded while coeffs and values were dicts:
    # they changed the hash of an element already in a set, and the float
    # mark reached unghost
    x, v = B(6, {2: 1, 6: -3}), GhostVector(2, {1: 3, 2: 1})
    held = {x, v}
    with pytest.raises(TypeError):
        v.values[1] = 1.5
    with pytest.raises(TypeError):
        v.values[2] = 0
    with pytest.raises(TypeError):
        x.coeffs[2] = 5
    with pytest.raises(TypeError):
        x.coeffs[3] = 1
    with pytest.raises(TypeError):
        del x.coeffs[6]
    assert x == B(6, {2: 1, 6: -3}) and v == GhostVector(2, {1: 3, 2: 1})
    assert x in held and v in held
    assert unghost(v) == B(2, {1: 1, 2: 1})


def test_read_only_views_print_and_hash_as_the_dicts_did():
    x, v = B(6, {6: -3, 2: 1}), GhostVector(2, {2: 1, 1: 3})
    assert repr(x) == "BurnsideElement(level=6, coeffs={2: 1, 6: -3})"
    assert str(x) == "-3*C6/C6 + C6/C2"
    assert repr(v) == "GhostVector(level=2, values={1: 3, 2: 1})"
    assert hash(x) == hash((6, frozenset({2: 1, 6: -3}.items())))
    assert hash(v) == hash((2, (3, 1)))
    assert json.dumps(element_to_json(x)) == '{"level": 6, "coeffs": {"2": 1, "6": -3}}'
    assert json.dumps(ghost_to_json(v)) == '{"level": 2, "marks": {"1": 3, "2": 1}}'
    assert x.coeffs == {2: 1, 6: -3} and v.values == {1: 3, 2: 1}


def test_ghost_is_ring_homomorphism_fuzz():
    rng = random.Random(20260809)
    for _ in range(300):
        n = rng.randint(1, 30)
        h = rng.choice(divisors(n))
        x = random_element(rng, h)
        y = random_element(rng, h)
        gx, gy = ghost(x), ghost(y)
        assert ghost(x + y).values == {i: v + gy.values[i] for i, v in gx.values.items()}
        assert ghost(x * y) == gx.pointwise_mul(gy)
        assert unghost(ghost(x)) == x


def test_mul_equals_unghost_of_pointwise_product():
    rng = random.Random(7)
    for _ in range(200):
        h = rng.choice(divisors(rng.randint(1, 30)))
        x = random_element(rng, h, bound=5)
        y = random_element(rng, h, bound=5)
        assert x * y == unghost(ghost(x).pointwise_mul(ghost(y)))


def test_ghost_of_unghost_when_defined():
    rng = random.Random(99)
    hits = 0
    for _ in range(400):
        h = rng.choice(divisors(rng.randint(1, 24)))
        v = GhostVector(h, {i: rng.randint(-12, 12) for i in divisors(h)})
        try:
            x = unghost(v)
        except NotInGhostImage:
            continue
        hits += 1
        assert ghost(x) == v
    assert hits > 0


# --- vectors and JSON --------------------------------------------------------


def test_vector_roundtrip():
    x = B(12, {1: -2, 6: 5})
    assert from_vector(12, to_vector(x)) == x
    assert to_vector(x) == [-2, 0, 0, 0, 5, 0]
    with pytest.raises(ValueError):
        from_vector(12, [1, 2])


def test_element_json_roundtrip():
    x = B(12, {12: 2, 3: -1})
    doc = element_to_json(x)
    assert doc == {"level": 12, "coeffs": {"3": -1, "12": 2}}
    assert element_from_json(json.loads(json.dumps(doc))) == x
    with pytest.raises(ValueError):
        element_from_json({"coeffs": {}})


def test_ghost_json_roundtrip():
    v = ghost(B(6, {2: 1}))
    doc = ghost_to_json(v)
    assert doc == {"level": 6, "marks": {"1": 3, "2": 3, "3": 0, "6": 0}}
    assert ghost_from_json(json.loads(json.dumps(doc))) == v


def test_str_and_repr_are_stable():
    x = B(6, {2: 1, 6: -3})
    assert str(x) == "-3*C6/C6 + C6/C2"
    assert str(BurnsideElement(3)) == "0"
    assert "level=6" in repr(x)
