"""Property test for row-span membership: ``in_row_span`` against the
independent verdict that adding the vector leaves the canonical HNF as it is."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from tambara.intlattice import hnf, in_row_span

# entries past 2**64 as well as small ones, either sign
big = st.integers(-(2**80), 2**80).filter(lambda e: abs(e) >= 2**64)
entries = st.one_of(st.just(0), st.integers(-6, 6), big)


@st.composite
def bases_and_vectors(draw):
    """A canonical HNF basis (empty, or from zero rows, at times) and a
    vector that is a combination of its rows, shifted off the span at times."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    # a common factor keeps entries past 2**64 in the HNF; zero wipes them
    scale = draw(st.sampled_from([1, 1, 2**64 + 13, -(2**70), 0]))
    basis = hnf([[scale * e for e in r] for r in rows])
    coeffs = draw(st.lists(st.one_of(st.integers(-3, 3), big), min_size=len(basis), max_size=len(basis)))
    vec = [sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(ncols)]
    if draw(st.booleans()):
        shift = draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
        vec = [e + s for e, s in zip(vec, shift)]
    return basis, vec


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=bases_and_vectors())
@example(case=([], [0, 0]))
@example(case=([], [1, 0]))
@example(case=(hnf([[0, 0], [0, 0]]), [0, -3]))
@example(case=(hnf([[2**64 + 1, -(2**65)], [0, 3]]), [-(2**64 + 1), 2**65 + 3]))
def test_in_row_span_agrees_with_the_hnf_of_the_extended_rows(case):
    basis, vec = case
    verdict = hnf(basis + [vec]) == basis
    assert in_row_span(basis, vec) == verdict
    # LevelLattice passes its basis as a tuple of tuples
    assert in_row_span(tuple(map(tuple, basis)), tuple(vec)) == verdict
