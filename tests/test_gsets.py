import itertools
import time

import pytest

from tambara import gsets
from tambara.burnside import BurnsideElement
from tambara.cli import run
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
from tambara.maps import norm, restrict, transfer


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
    for level, perm in ((0, ()), (-2, (1, 0))):
        with pytest.raises(ValueError):
            ConcreteGSet(level, perm)
    for level, perm in ((2.0, ()), (True, (0,)), (2, (True, False)), (2, (1.0, 0.0))):
        with pytest.raises(TypeError):
            ConcreteGSet(level, perm)


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


def test_oracle_sets_built_unchecked_pass_the_public_checks(monkeypatch, capsys):
    # realize, induce, product and map_set skip the checks of ConcreteGSet;
    # every set the CLI oracle builds at n = 12 must pass them anyway
    built = []
    unchecked = ConcreteGSet._built

    def recorded(cls, level, perm):
        built.append(unchecked(level, perm))
        return built[-1]

    monkeypatch.setattr(ConcreteGSet, "_built", classmethod(recorded))
    for check in ("marks", "transfers", "norms"):
        assert run(["oracle", "--check", check, "-n", "12"]) == 0
    assert "OK" in capsys.readouterr().out
    assert {s.level for s in built} == set(divisors(12))
    for s in built:
        checked = ConcreteGSet(s.level, s.perm)
        assert s == checked and s.cycles == checked.cycles
    x = BurnsideElement(6, {2: 1, 3: 2})
    for s in (product(realize(x), realize(x)), map_set(6, 3, realize(BurnsideElement(3, {1: 1})))):
        checked = ConcreteGSet(s.level, s.perm)
        assert s == checked and s.cycles == checked.cycles


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


def test_map_set_budget(monkeypatch):
    ten = ConcreteGSet(1, tuple(range(10)))
    with pytest.raises(BudgetExceeded):
        map_set(8, 1, ten)  # 10**8 maps, over DEFAULT_MAP_BUDGET
    assert map_set(2, 1, ten).size == 100
    # 10**5000 maps has more digits than an int may print: still BudgetExceeded
    with pytest.raises(BudgetExceeded):
        map_set(5000, 1, ten)
    # and 10**(10**7) is never built: the refusal comes at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        map_set(10**7, 1, ten)
    assert time.perf_counter() - start < 1
    # the cap is read when map_set is called
    monkeypatch.setattr(gsets, "DEFAULT_MAP_BUDGET", 99)
    with pytest.raises(BudgetExceeded, match="cap is 99"):
        map_set(2, 1, ten)


def test_map_set_size(monkeypatch):
    assert gsets.map_set_size(10, 6) == 10**6 == gsets.DEFAULT_MAP_BUDGET
    assert gsets.map_set_size(10, 7) is None
    assert gsets.map_set_size(2, 19) == 2**19
    assert gsets.map_set_size(2, 20) is None  # 2**20 is past 10**6
    assert gsets.map_set_size(1, 10**9) == 1
    assert gsets.map_set_size(0, 10**9) == 0
    # the budget is read when called
    monkeypatch.setattr(gsets, "DEFAULT_MAP_BUDGET", 99)
    assert gsets.map_set_size(3, 4) == 81
    assert gsets.map_set_size(2, 7) is None
    assert gsets.map_set_size(1, 7) == 1


def restricted(s, k):
    """The C_k-set underlying a C_h-set: C_k's generator acts as the
    permutation raised to the power h/k."""
    perm = tuple(range(s.size))
    for _ in range(s.level // k):
        perm = tuple(s.perm[i] for i in perm)
    return ConcreteGSet(k, perm)


def test_norm_is_multiplicative_on_g_sets():
    # Map_K(H, X x Y) = Map_K(H, X) x Map_K(H, Y), and both are N(x * y)
    cases = 0
    for h in divisors(12):
        for k in divisors(h):
            xs = nonneg_elements(k, 4)
            for x, y in itertools.combinations_with_replacement(xs, 2):
                sx, sy = realize(x), realize(y)
                # every map set below, the empty set's included, within 10**4
                if (max(sx.size, 1) * max(sy.size, 1)) ** (h // k) > 10**4:
                    continue
                of_product = decompose(map_set(h, k, product(sx, sy)))
                product_of = decompose(product(map_set(h, k, sx), map_set(h, k, sy)))
                assert of_product == product_of == norm(x * y, h), (x, y, h)
                cases += 1
    assert cases == 625


def test_frobenius_reciprocity_on_g_sets():
    # (C_h x_{C_k} X) x Y = C_h x_{C_k} (X x res Y): tr(x) * y = tr(x * res y)
    cases = 0
    for h in divisors(12):
        for k in divisors(h):
            for y in nonneg_elements(h, 4):
                sy = realize(y)
                res_y = restricted(sy, k)
                assert decompose(res_y) == restrict(y, k)
                for x in nonneg_elements(k, 4):
                    sx = realize(x)
                    left = decompose(product(induce(sx, h), sy))
                    right = decompose(induce(product(sx, res_y), h))
                    assert left == right == transfer(x, h) * y == transfer(x * restrict(y, k), h)
                    cases += 1
    assert cases == 1475


def test_map_set_level_checks():
    with pytest.raises(ValueError):
        map_set(4, 2, ConcreteGSet(1, (0,)))
    with pytest.raises(ValueError):
        map_set(3, 2, ConcreteGSet(2, (1, 0)))


def test_map_set_of_empty_is_empty():
    empty = ConcreteGSet(2, ())
    assert map_set(4, 2, empty).size == 0
    assert decompose(map_set(4, 2, empty)) == BurnsideElement(4)


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
