"""Property tests for the spectrum poset: the row masks, the Krull
dimension and the Hasse covers against pairwise and oracle routes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tambara.lattice import CyclicGroupCtx
from tambara.spectrum import (
    contains,
    dress_spectrum,
    enumerate_spectrum,
    hasse_edges,
    krull_dimension,
)

from .test_spectrum import dress_contains, krull_oracle

SMOOTH_LIMIT = 5000


@st.composite
def smooth_orders(draw):
    """Products of 2, 3, 5 and 7 up to SMOOTH_LIMIT."""
    n = 1
    for f in draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=14)):
        if n * f <= SMOOTH_LIMIT:
            n *= f
    return n


prime_sets = st.sets(st.sampled_from([0, 2, 3, 5, 7, 11, 13]), min_size=1).filter(any)
spectra = st.sampled_from(
    [(enumerate_spectrum, contains), (dress_spectrum, dress_contains)]
)
poset_settings = settings(derandomize=True, max_examples=60, deadline=None)


@poset_settings
@given(n=smooth_orders(), primes=prime_sets, kind=spectra)
def test_masks_krull_and_hasse_agree_with_the_pairwise_relation(n, primes, kind):
    build, relates = kind
    poset = build(CyclicGroupCtx(n), sorted(primes))
    pairwise = [[relates(a, b) for b in poset.points] for a in poset.points]
    assert list(poset.relation) == [
        sum(b << j for j, b in enumerate(row)) for row in pairwise
    ]
    assert krull_dimension(poset) == krull_oracle(pairwise)
    # the reflexive-transitive closure of the covers is the relation
    npts = len(poset.points)
    reach = [1 << i for i in range(npts)]
    for i, j in hasse_edges(poset):
        reach[i] |= 1 << j
    for k in range(npts):
        for i in range(npts):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    assert tuple(reach) == poset.relation
