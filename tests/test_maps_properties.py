"""Property tests for the structure maps: ghost is a ring homomorphism,
the norm is multiplicative, Frobenius reciprocity, the double coset
formula for res after N, and the ghost round trip, at levels dividing 72."""

from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tambara.burnside import BurnsideElement, ghost, unghost
from tambara.lattice import divisors
from tambara.maps import norm, restrict, transfer

N = 72
levels = st.sampled_from(divisors(N))
maps_settings = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def elements(draw, level):
    """Elements at the level with at most 3 orbits, coefficients in [-3, 3]."""
    orbits = draw(st.lists(st.sampled_from(divisors(level)), max_size=3, unique=True))
    return BurnsideElement(level, {k: draw(st.integers(-3, 3)) for k in orbits})


@st.composite
def towers(draw):
    """A level h | N, two levels k, j | h and two elements at level k."""
    h = draw(levels)
    k = draw(st.sampled_from(divisors(h)))
    j = draw(st.sampled_from(divisors(h)))
    return h, k, j, draw(elements(k)), draw(elements(k))


def power(x: BurnsideElement, e: int) -> BurnsideElement:
    out = BurnsideElement.unit(x.level)
    while e:
        if e & 1:
            out = out * x
        x, e = x * x, e >> 1
    return out


@maps_settings
@given(towers())
def test_ghost_is_additive_and_multiplicative(tower):
    _, _, _, x, y = tower
    gx, gy = ghost(x), ghost(y)
    assert ghost(x + y).values == {i: v + gy.values[i] for i, v in gx.values.items()}
    assert ghost(x * y) == gx.pointwise_mul(gy)


@maps_settings
@given(towers())
def test_norm_is_multiplicative_and_unital(tower):
    h, k, _, x, y = tower
    assert norm(x * y, h) == norm(x, h) * norm(y, h)
    assert norm(BurnsideElement.unit(k), h) == BurnsideElement.unit(h)


@maps_settings
@given(towers(), st.data())
def test_frobenius_reciprocity(tower, data):
    h, k, _, x, _ = tower
    y = data.draw(elements(h))
    assert transfer(x * restrict(y, k), h) == transfer(x, h) * y


@maps_settings
@given(towers())
def test_double_coset_formula_for_res_after_norm(tower):
    h, k, j, x, _ = tower
    g = gcd(j, k)
    expected = power(norm(restrict(x, g), j), h // (j * k // g))
    assert restrict(norm(x, h), j) == expected


@maps_settings
@given(towers())
def test_unghost_inverts_ghost(tower):
    _, _, _, x, y = tower
    assert unghost(ghost(x)) == x
    assert unghost(ghost(x * y)) == x * y
