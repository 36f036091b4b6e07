import random
from math import gcd

import pytest

from tambara import ideals, intlattice
from tambara.ideals import IdealSpec, kernel_lattice
from tambara.intlattice import hnf, in_row_span, is_sublattice, kernel, preimage_mod, xgcd
from tambara.lattice import divisors


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def unimodular_shuffle(rng, mat):
    """Apply random row swaps and integer row additions (det +-1 ops)."""
    m = [row[:] for row in mat]
    for _ in range(3 * len(m)):
        i, j = rng.randrange(len(m)), rng.randrange(len(m))
        if i == j:
            continue
        if rng.random() < 0.5:
            m[i], m[j] = m[j], m[i]
        else:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def test_xgcd():
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_shape():
    m = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # echelon with positive pivots and reduced entries above them
    pivots = [next(j for j, e in enumerate(row) if e) for row in m]
    assert pivots == sorted(pivots)
    for r, row in enumerate(m):
        p = pivots[r]
        assert row[p] > 0
        for above in m[:r]:
            assert 0 <= above[p] < row[p]


def test_hnf_canonical_under_unimodular_changes():
    rng = random.Random(42)
    for _ in range(100):
        mat = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        h1 = hnf(mat)
        h2 = hnf(unimodular_shuffle(rng, mat))
        assert h1 == h2
        assert hnf(h1) == h1  # idempotent


def test_hnf_preserves_span():
    rng = random.Random(9)
    for _ in range(100):
        mat = random_matrix(rng, 3, 4)
        basis = hnf(mat)
        for row in mat:
            assert in_row_span(basis, row)
        for row in basis:
            assert in_row_span(hnf(mat + [[0] * 4]), row)


def test_in_row_span_cases():
    basis = hnf([[2, 0], [0, 2]])
    assert in_row_span(basis, [4, -6])
    assert not in_row_span(basis, [1, 0])
    assert in_row_span([], [0, 0])
    assert not in_row_span([], [1, 0])


def test_is_sublattice():
    two = hnf([[2, 0], [0, 2]])
    four = hnf([[4, 0], [0, 4]])
    assert is_sublattice(four, two)
    assert not is_sublattice(two, four)


def test_kernel_annihilates_and_is_complete():
    rng = random.Random(5)
    for _ in range(100):
        conds = random_matrix(rng, rng.randint(1, 3), 4)
        basis = kernel(conds, 4)
        assert hnf(basis) == basis  # the kernel block of HNF([A^T | I]) is canonical
        for row in basis:
            assert all(
                sum(c * x for c, x in zip(cond, row)) == 0 for cond in conds
            )
        # random combinations certified in the kernel must lie in the span
        if basis:
            combo = [0] * 4
            for row in basis:
                q = rng.randint(-3, 3)
                combo = [a + q * b for a, b in zip(combo, row)]
            assert in_row_span(basis, combo)


def test_kernel_of_nothing_is_everything():
    basis = kernel([], 3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_preimage_mod_agrees_with_direct_check():
    import itertools

    rng = random.Random(12)
    for _ in range(30):
        conds = random_matrix(rng, 2, 3, bound=4)
        p = rng.choice([2, 3, 5])
        basis = preimage_mod(conds, 3, p)
        # membership in the lattice must match the congruence conditions on
        # a brute-force box of vectors
        for vec in itertools.product(range(-4, 5), repeat=3):
            direct = all(
                sum(c * x for c, x in zip(cond, vec)) % p == 0 for cond in conds
            )
            assert in_row_span(basis, list(vec)) == direct


def test_preimage_mod_zero_is_kernel():
    conds = [[1, 2, 3]]
    assert preimage_mod(conds, 3, 0) == kernel(conds, 3)


def _preimage_mod_via_kernel(rows, ncols, p):
    """Reference route: solve A x + p y = 0 by the integer kernel of
    [A | p I] and project onto x.  Its HNF entries grow without bound."""
    if not rows:
        return kernel(rows, ncols)
    nconds = len(rows)
    augmented = [row + [p if i == j else 0 for j in range(nconds)]
                 for i, row in enumerate(rows)]
    full = kernel(augmented, ncols + nconds)
    return hnf([row[:ncols] for row in full])


def _assert_matches_kernel_route(conds, ncols, p):
    basis = preimage_mod(conds, ncols, p)
    assert basis == _preimage_mod_via_kernel(conds, ncols, p), (conds, p)
    assert all(0 <= e <= p for row in basis for e in row), (conds, p)


def test_preimage_mod_prime_matches_kernel_route_on_random_matrices():
    rng = random.Random(2011)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        conds = random_matrix(rng, rng.randint(0, 5), ncols, bound=rng.choice([1, 6, 40]))
        _assert_matches_kernel_route(conds, ncols, rng.choice([2, 3, 5, 7, 11, 13]))


def test_preimage_mod_prime_matches_kernel_route_on_mark_conditions():
    # The conditions of kernel_lattice(IdealSpec(n, c, p), h) depend on c
    # only through gcd(h, c), so these cases cover every (c, p) and h | n.
    cases = {
        (h, gcd(h, c), p)
        for n in (12, 30, 60, 72)
        for c in divisors(n)
        for h in divisors(n)
        for p in (2, 3, 5, 7, 11)
    }
    for h, g, p in sorted(cases):
        divs = divisors(h)
        conds = [[h // k if k % i == 0 else 0 for k in divs] for i in divisors(g)]
        _assert_matches_kernel_route(conds, len(divs), p)


def test_preimage_mod_prime_needs_no_xgcd(monkeypatch):
    def forbidden(*args):
        raise AssertionError("row reduction over Z called")

    # the preimage's basis is canonical, so no HNF is taken of it either
    monkeypatch.setattr(ideals, "hnf", forbidden)
    monkeypatch.setattr(intlattice, "xgcd", forbidden)
    kernel_lattice.cache_clear()
    try:
        for c in divisors(60):
            for p in (2, 3, 5, 7):
                for h in divisors(60):
                    kernel_lattice(IdealSpec(60, c, p), h)
    finally:
        kernel_lattice.cache_clear()


@pytest.mark.parametrize("n", [12, 60, 90])
def test_every_kernel_lattice_basis_is_its_own_hnf(n):
    # the lattice depends on the spec only through gcd(h, c) and p
    for h in divisors(n):
        for g in divisors(h):
            for p in (0, 2, 3, 5, 7):
                basis = [list(r) for r in kernel_lattice(IdealSpec(n, g, p), h).basis]
                assert hnf(basis) == basis, (n, h, g, p)


def test_preimage_mod_rejects_composite_modulus():
    with pytest.raises(ValueError):
        preimage_mod([[1, 2]], 2, 4)


def test_kernel_of_full_rank_echelon_rows_is_zero_without_hnf(monkeypatch):
    def forbidden(rows):
        raise AssertionError("hnf called")

    monkeypatch.setattr(intlattice, "hnf", forbidden)
    assert kernel([[3, 1, 0], [0, 0, -2], [0, 5, 7]], 3) == []
    kernel_lattice.cache_clear()
    try:
        # the mark conditions of p_{C_360,0} at C_360: 24 x 24, triangular
        assert kernel_lattice(IdealSpec(360, 360, 0), 360).basis == ()
    finally:
        kernel_lattice.cache_clear()


def test_kernel_without_a_lead_in_every_column_still_solves():
    # leading entries in columns 0 and 0 only: not full rank
    assert kernel([[1, 1, 0], [1, 0, 1]], 3) == [[1, -1, -1]]
    # leads in columns 0, 1 and 1 miss column 2, but the rows have full rank
    assert kernel([[1, 0, 0], [0, 1, 0], [0, 1, 1]], 3) == []
