import pytest

from tambara import gsets
from tambara.burnside import BurnsideElement
from tambara.gsets import (
    BudgetExceeded,
    ConcreteGSet,
    NegativeCoefficient,
    decompose,
    fixed_points,
    induce,
    map_set,
    product,
    realize,
)
from tambara.ideals import box_elements
from tambara.lattice import divisors
from tambara.maps import norm, transfer


def nonneg_elements(level, max_size):
    """All genuine G-sets at the level with at most max_size points."""
    orbit_sizes = [(k, level // k) for k in divisors(level)]
    out = []

    def rec(i, remaining, acc):
        if i == len(orbit_sizes):
            out.append(BurnsideElement(level, dict(acc)))
            return
        k, orb = orbit_sizes[i]
        m = 0
        while m * orb <= remaining:
            if m:
                acc[k] = m
            rec(i + 1, remaining - m * orb, acc)
            if m:
                del acc[k]
            m += 1

    rec(0, max_size, {})
    return out


def test_gset_validates_permutation_and_order():
    ConcreteGSet(6, (1, 2, 0))  # a 3-cycle is fine at level 6
    with pytest.raises(ValueError):
        ConcreteGSet(6, (1, 1, 0))  # not a permutation
    with pytest.raises(ValueError):
        ConcreteGSet(6, (1, 2, 3, 0))  # a 4-cycle has order 4, not dividing 6


def test_realize_examples():
    assert realize(BurnsideElement(2, {1: 1})).perm == (1, 0)
    assert realize(BurnsideElement(2, {2: 2})).perm == (0, 1)
    # C_6/C_2 = cosets of {0,3} in Z_6: a 3-cycle
    assert realize(BurnsideElement(6, {2: 1})).perm == (1, 2, 0)


def test_realize_rejects_virtual_elements():
    with pytest.raises(NegativeCoefficient):
        realize(BurnsideElement(2, {1: -1}))


def test_fixed_points_examples():
    three_cycle = ConcreteGSet(6, (1, 2, 0))
    assert fixed_points(three_cycle, 2) == 3  # sigma^3 is the identity here
    for s in (three_cycle, ConcreteGSet(4, (1, 0, 3, 2))):
        assert fixed_points(s, 1) == s.size
    free = realize(BurnsideElement(6, {1: 1}))
    assert fixed_points(free, 6) == 0
    with pytest.raises(ValueError):
        fixed_points(three_cycle, 4)


def test_decompose_examples():
    assert decompose(ConcreteGSet(2, (0, 1))) == BurnsideElement(2, {2: 2})
    assert decompose(ConcreteGSet(2, (1, 0))) == BurnsideElement(2, {1: 1})


def test_cycles_are_walked_once_per_gset(monkeypatch):
    walks = []
    walk = gsets._cycle_lengths
    monkeypatch.setattr(gsets, "_cycle_lengths", lambda perm: walks.append(perm) or walk(perm))
    x = BurnsideElement(12, {1: 1, 4: 2, 12: 3})
    s = realize(x)
    assert [fixed_points(s, i) for i in divisors(12)] == [x.mark(i) for i in divisors(12)]
    assert decompose(s) == x
    assert walks == [s.perm]
    # the stored cycle type is not part of equality, hashing or repr
    t = ConcreteGSet(6, (1, 2, 0))
    assert t.cycles == (3,)
    assert t == ConcreteGSet(6, (1, 2, 0)) and hash(t) == hash((6, (1, 2, 0)))
    assert repr(t) == "ConcreteGSet(level=6, perm=(1, 2, 0))"


def test_realize_decompose_roundtrip():
    for n in (1, 2, 3, 4, 6, 8, 12):
        for h in divisors(n):
            for x in nonneg_elements(h, 6):
                assert decompose(realize(x)) == x


def test_induce_examples():
    point = ConcreteGSet(1, (0,))
    assert induce(point, 2).perm == (1, 0)
    two_cycle = ConcreteGSet(2, (1, 0))
    assert decompose(induce(two_cycle, 6)) == BurnsideElement(6, {1: 1})


def test_product_examples():
    s = ConcreteGSet(2, (1, 0))
    point = ConcreteGSet(2, (0,))
    assert decompose(product(s, point)) == decompose(s)
    assert decompose(product(s, s)) == BurnsideElement(2, {1: 2})
    with pytest.raises(ValueError):
        product(s, ConcreteGSet(4, (0,)))


@pytest.mark.parametrize("n, bound", [(12, 2), (30, 1)])
def test_product_is_the_oracle_for_multiplication(n, bound):
    # the Burnside product is the class of the cartesian product of G-sets
    for h in divisors(n):
        xs = [x for x in box_elements(h, bound) if min(x.coeffs.values(), default=1) > 0]
        sets = [realize(x) for x in xs]
        for x, sx in zip(xs, sets):
            for y, sy in zip(xs, sets):
                assert decompose(product(sx, sy)) == x * y, (x, y)


def test_map_set_examples():
    point = ConcreteGSet(1, (0,))
    assert decompose(map_set(2, 1, point)) == BurnsideElement(2, {2: 1})
    two_points = ConcreteGSet(1, (0, 1))
    m2 = map_set(2, 1, two_points)
    assert m2.size == 4 and fixed_points(m2, 2) == 2
    assert decompose(m2) == BurnsideElement(2, {2: 2, 1: 1})
    m3 = map_set(3, 1, two_points)
    assert m3.size == 8 and fixed_points(m3, 3) == 2
    assert decompose(m3) == BurnsideElement(3, {3: 2, 1: 2})


def test_map_set_budget():
    ten = ConcreteGSet(1, tuple(range(10)))
    with pytest.raises(BudgetExceeded):
        map_set(8, 1, ten, budget=10**6)
    with pytest.raises(BudgetExceeded):
        map_set(2, 1, ten, budget=99)


def test_map_set_level_checks():
    with pytest.raises(ValueError):
        map_set(4, 2, ConcreteGSet(1, (0,)))
    with pytest.raises(ValueError):
        map_set(3, 2, ConcreteGSet(2, (1, 0)))


def test_map_set_of_empty_is_empty():
    empty = ConcreteGSet(2, ())
    assert map_set(4, 2, empty).size == 0
    assert decompose(map_set(4, 2, empty)) == BurnsideElement.zero(4)


def test_oracle_cross_checks_small():
    # fixed points vs marks, induction vs transfer, map sets vs norm,
    # for every level pair k | h <= 12
    for h in range(1, 13):
        for k in divisors(h):
            for x in nonneg_elements(k, 4):
                s = realize(x)
                for i in divisors(k):
                    assert fixed_points(s, i) == x.mark(i)
                assert decompose(induce(s, h)) == transfer(x, h)
                if s.size ** (h // k) <= 10**5:
                    assert decompose(map_set(h, k, s)) == norm(x, h)
