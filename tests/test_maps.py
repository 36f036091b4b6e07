import random
from types import MappingProxyType

import pytest

from tambara import maps
from tambara.burnside import BurnsideElement, GhostVector, ghost, unghost
from tambara.gsets import ConcreteGSet, decompose, realize
from tambara.ideals import IdealSpec, q_check
from tambara.lattice import BudgetExceeded, divisors
from tambara.maps import (
    ghost_res,
    ghost_tr,
    norm,
    norm_ghost,
    restrict,
    transfer,
)


def B(level, coeffs):
    return BurnsideElement(level, coeffs)


def random_element(rng, level, bound=5):
    coeffs = {
        k: rng.randint(-bound, bound) for k in divisors(level) if rng.random() < 0.7
    }
    return BurnsideElement(level, coeffs)


def restrict_oracle(s: ConcreteGSet, j: int) -> ConcreteGSet:
    """Action restricted to C_j: the generator becomes sigma^(h/j)."""
    power = s.level // j
    perm = list(range(s.size))
    for _ in range(power):
        perm = [s.perm[p] for p in perm]
    return ConcreteGSet(j, tuple(perm))


# --- restriction -------------------------------------------------------------


def test_restrict_examples():
    x = B(6, {2: 1})  # C_6/C_2
    assert restrict(x, 2) == B(2, {2: 3})
    assert restrict(x, 6) == x
    assert restrict(x, 1) == B(1, {1: 3})
    with pytest.raises(ValueError):
        restrict(x, 4)


def test_restrict_example_matches_orbit_oracle():
    x = B(6, {2: 1})
    assert decompose(restrict_oracle(realize(x), 2)) == restrict(x, 2)


def test_restrict_preserves_marks():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 30)
        h = rng.choice(divisors(n))
        j = rng.choice(divisors(h))
        x = random_element(rng, h)
        y = restrict(x, j)
        for i in divisors(j):
            assert y.mark(i) == x.mark(i)


# --- transfer ----------------------------------------------------------------


def test_transfer_examples():
    assert transfer(B(1, {1: 1}), 2) == B(2, {1: 1})  # tr(K/K) = H/K
    assert transfer(B(2, {1: 1}), 6) == B(6, {1: 1})
    assert transfer(BurnsideElement(3), 6) == BurnsideElement(6)
    with pytest.raises(ValueError):
        transfer(B(4, {1: 1}), 6)


def test_transfer_marks():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        h = rng.choice(divisors(n))
        k = rng.choice(divisors(h))
        x = random_element(rng, k)
        y = transfer(x, h)
        for i in divisors(h):
            expected = (h // k) * x.mark(i) if k % i == 0 else 0
            assert y.mark(i) == expected


# --- norm --------------------------------------------------------------------


def test_norm_prime_step_formula():
    # N(p K/K) = p H/H + ((p^q - p)/q) H/K for prime index q
    for p in (2, 3, 5):
        for q in (2, 3):
            x = p * BurnsideElement.unit(1)
            expected = B(q, {q: p, 1: (p**q - p) // q})
            assert norm(x, q) == expected
    assert norm(2 * BurnsideElement.unit(1), 2) == B(2, {2: 2, 1: 1})
    assert norm(2 * BurnsideElement.unit(1), 3) == B(3, {3: 2, 1: 2})


def test_norm_of_unit_and_zero():
    for k, h in ((1, 12), (2, 12), (6, 6), (3, 12)):
        assert norm(BurnsideElement.unit(k), h) == BurnsideElement.unit(h)
        assert norm(BurnsideElement(k), h) == BurnsideElement(h)


def test_norm_identity_when_levels_equal():
    rng = random.Random(11)
    for _ in range(50):
        h = rng.choice(divisors(30))
        x = random_element(rng, h)
        assert norm(x, h) == x


def test_norm_rejects_bad_levels():
    with pytest.raises(ValueError):
        norm(B(4, {1: 1}), 6)


# --- ghost-side maps ----------------------------------------------------------


def test_ghost_res_example():
    v = GhostVector(6, {1: 3, 2: 3, 3: 0, 6: 0})
    assert ghost_res(v, 2) == GhostVector(2, {1: 3, 2: 3})
    assert ghost_res(v, 2) == ghost(restrict(B(6, {2: 1}), 2))


def test_ghost_tr_examples():
    v = GhostVector(1, {1: 1})
    assert ghost_tr(v, 2) == GhostVector(2, {1: 2, 2: 0})
    assert ghost_tr(v, 2) == ghost(transfer(B(1, {1: 1}), 2))
    zero = GhostVector(3, {1: 0, 3: 0})
    assert ghost_tr(zero, 6) == GhostVector(6, {i: 0 for i in divisors(6)})


def test_norm_ghost_examples():
    v = GhostVector(1, {1: 2})
    assert norm_ghost(v, 2) == GhostVector(2, {1: 4, 2: 2})
    assert norm_ghost(v, 2) == ghost(B(2, {2: 2, 1: 1}))
    ones = GhostVector(2, {1: 1, 2: 1})
    assert norm_ghost(ones, 12) == GhostVector(12, {i: 1 for i in divisors(12)})
    zero = GhostVector(1, {1: 0})
    assert norm_ghost(zero, 3) == GhostVector(3, {1: 0, 3: 0})


# --- ghost commutation and oracle equivalence ---------------------------------


def test_ghost_commutation_fuzz():
    rng = random.Random(20260401)
    for _ in range(500):
        n = rng.randint(1, 30)
        h = rng.choice(divisors(n))
        k = rng.choice(divisors(h))
        x = random_element(rng, h)
        y = random_element(rng, k)
        assert ghost(restrict(x, k)) == ghost_res(ghost(x), k)
        assert ghost(transfer(y, h)) == ghost_tr(ghost(y), h)
        assert ghost(norm(y, h)) == norm_ghost(ghost(y), h)
        assert unghost(ghost(x)) == x


def test_oracle_equivalence_norm_small():
    from tambara.gsets import map_set
    from .test_gsets import nonneg_elements

    for n in (2, 3, 4, 6, 12):
        for h in divisors(n):
            for k in divisors(h):
                for x in nonneg_elements(k, 3):
                    s = realize(x)
                    if s.size ** (h // k) > 10**5:
                        continue
                    assert decompose(map_set(h, k, s)) == norm(x, h)


def test_restriction_oracle_equivalence():
    from .test_gsets import nonneg_elements

    for n in (4, 6, 12):
        for h in divisors(n):
            for j in divisors(h):
                for x in nonneg_elements(h, 4):
                    assert decompose(restrict_oracle(realize(x), j)) == restrict(x, j)


def test_tower_composition_laws():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 30)
        ds = divisors(n)
        h = rng.choice(ds)
        j = rng.choice(divisors(h))
        i = rng.choice(divisors(j))
        x = random_element(rng, h)
        assert restrict(restrict(x, j), i) == restrict(x, i)
        y = random_element(rng, i)
        assert transfer(transfer(y, j), h) == transfer(y, h)
        assert norm(norm(y, j), h) == norm(y, h)


class _NoPower(int):
    """A mark that fails the test if any power of it is taken."""

    def __pow__(self, exponent, modulo=None):
        raise AssertionError(f"a power of a {self.bit_length()}-bit mark was taken")


def _unpowerable_marks(monkeypatch):
    marks = maps.marks
    monkeypatch.setattr(
        maps, "marks", lambda x, g: {i: _NoPower(m) for i, m in marks(x, g).items()}
    )


def test_norm_within_the_bit_budget_runs():
    # (h/k) * B bits from level 1 to 20160: 685,447 for 10**10 - 1
    x = B(1, {1: 10**10 - 1})
    y = norm(x, 20160)
    assert y.mark(1) == x.mark(1) ** 20160
    assert ghost(y) == norm_ghost(ghost(x), 20160)
    assert max(abs(m).bit_length() for m in y.coeffs.values()) == 669_687


def test_norm_past_the_bit_budget_is_refused_before_any_power(monkeypatch):
    # 1,350,727 estimated bits for 10**20 - 1 normed from level 1 to 20160
    x = B(1, {1: 10**20 - 1})
    _unpowerable_marks(monkeypatch)
    with pytest.raises(BudgetExceeded, match="NORM_BIT_LIMIT"):
        norm(x, 20160)
    v = GhostVector(1, {1: 0})
    v.values = MappingProxyType({1: _NoPower(10**20 - 1)})
    with pytest.raises(BudgetExceeded, match="NORM_BIT_LIMIT"):
        norm_ghost(v, 20160)
    with pytest.raises(BudgetExceeded, match="NORM_BIT_LIMIT"):
        q_check(IdealSpec(20160, 1, 2), x, BurnsideElement.unit(1))


def test_norm_of_marks_at_most_one_is_never_refused():
    # powers of 0 and -1 stay one bit, however far the norm goes
    x = B(1, {1: -1})
    assert maps.NORM_BIT_LIMIT < 2**21
    y = norm(x, 2**21)
    assert (y.mark(1), y.mark(2**21)) == (1, -1)
    assert norm_ghost(ghost(B(2, {1: 1, 2: -1})), 2**21).values[1] == 1


def test_q_check_norms_a_ten_digit_element_to_20160():
    # the first product, at level 20160, is odd at C_1, so Q fails there
    a = B(1, {1: 10**10 - 1})
    report = q_check(IdealSpec(20160, 1, 2), a, BurnsideElement.unit(1))
    assert not report.holds and report.witness.level == 20160

