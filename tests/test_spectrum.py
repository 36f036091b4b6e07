import json
from functools import cache

import pytest

from tambara import spectrum
from tambara.ideals import IdealSpec
from tambara.lattice import CyclicGroupCtx, InvariantError, divisors, omega
from tambara.spectrum import (
    DressPoint,
    contains,
    contains_semantic,
    default_primes,
    dress_spectrum,
    enumerate_spectrum,
    export_dot,
    export_json,
    hasse_edges,
    krull_dimension,
    poset_from_json,
)


def spec(n, c, p):
    return IdealSpec(n, c, p)


def dress_contains(a: DressPoint, b: DressPoint) -> bool:
    """Containment of mark kernels, from the decision table: a lies in b
    iff p_a is 0 or p_b and the p_b-free parts of d_a and d_b are equal
    (d itself when p_b = 0)."""

    def free(d):
        while b.p and d % b.p == 0:
            d //= b.p
        return d

    return a.p in (0, b.p) and free(a.d) == free(b.d)


def krull_oracle(rel) -> int:
    """Longest strict chain of a bool matrix, by memoized DFS."""
    npts = len(rel)
    memo: dict[int, int] = {}

    def longest_from(i: int) -> int:
        if i not in memo:
            memo[i] = max(
                (1 + longest_from(j) for j in range(npts) if j != i and rel[i][j]),
                default=0,
            )
        return memo[i]

    return max((longest_from(i) for i in range(npts)), default=0)


def hasse_oracle(rel) -> list[tuple[int, int]]:
    """Covers of a bool matrix: (i, j) with i strictly below j and the
    strict up-set of i disjoint from the strict down-set of j."""
    npts = len(rel)
    up = [0] * npts
    down = [0] * npts
    for i, row in enumerate(rel):
        for j, below in enumerate(row):
            if below and i != j:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return [
        (i, j)
        for i, row in enumerate(rel)
        for j, below in enumerate(row)
        if below and i != j and not up[i] & down[j]
    ]


@cache
def spectra_with_pairwise(n):
    """Both spectra of C_n over three prime sets, each with its relation
    decided pair by pair by contains / dress_contains."""
    ctx = CyclicGroupCtx(n)
    out = []
    for primes in (default_primes(n), [0, 2, 3, 5, 7, 11, 13], [0, 7]):
        for poset, relates in (
            (enumerate_spectrum(ctx, primes), contains),
            (dress_spectrum(ctx, primes), dress_contains),
        ):
            pairwise = [[relates(a, b) for b in poset.points] for a in poset.points]
            out.append((primes, relates.__name__, poset, pairwise))
    return out


# --- symbolic containment ------------------------------------------------------


def test_contains_zero_layer_is_dual_divisibility():
    assert contains(spec(12, 6, 0), spec(12, 2, 0))  # 2 | 6
    assert not contains(spec(12, 2, 0), spec(12, 6, 0))
    assert contains(spec(12, 12, 0), spec(12, 1, 0))


def test_contains_equalities_within_prime_layer():
    a, b = spec(12, 2, 3), spec(12, 6, 3)
    assert contains(a, b) and contains(b, a)  # 3-free parts both 2


def test_contains_prime_never_below_zero():
    assert not contains(spec(12, 2, 2), spec(12, 3, 0))
    assert not contains(spec(12, 1, 2), spec(12, 1, 0))


def test_contains_zero_below_same_prime():
    assert contains(spec(12, 1, 0), spec(12, 1, 2))
    assert contains(spec(12, 4, 0), spec(12, 1, 2))  # o_2(1)=1 divides o_2(4)=1
    assert not contains(spec(12, 3, 0), spec(12, 4, 3))  # o_3(4)=4 does not divide 3


def test_contains_distinct_primes_disjoint():
    assert not contains(spec(12, 2, 2), spec(12, 2, 3))
    assert not contains(spec(12, 2, 3), spec(12, 2, 2))


def test_contains_requires_same_ambient():
    with pytest.raises(ValueError):
        contains(spec(12, 2, 0), spec(6, 2, 0))
    with pytest.raises(ValueError):
        contains_semantic(spec(12, 2, 0), spec(6, 2, 0))


# --- semantic containment -------------------------------------------------------


def test_contains_semantic_examples():
    assert contains_semantic(spec(12, 1, 0), spec(12, 1, 2))
    a = spec(12, 4, 3)
    assert contains_semantic(a, a)
    assert not contains_semantic(spec(12, 2, 2), spec(12, 3, 0))


def test_symbolic_equals_semantic_cross_validation_small():
    for n in (4, 6, 12):
        poset = enumerate_spectrum(CyclicGroupCtx(n), [0, 2, 3, 5, 7])
        for a in poset.points:
            for b in poset.points:
                assert contains(a, b) == contains_semantic(a, b), (a.label, b.label)


# --- enumeration ----------------------------------------------------------------


def test_enumerate_point_counts_n12():
    poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])
    assert len(poset.points) == 17  # 6 + 2 + 3 + 6
    by_p = {}
    for pt in poset.points:
        by_p.setdefault(pt.p, []).append(pt.c)
    assert by_p[0] == [1, 2, 3, 4, 6, 12]
    assert by_p[2] == [1, 3]
    assert by_p[3] == [1, 2, 4]
    assert by_p[5] == [1, 2, 3, 4, 6, 12]


def test_enumerate_merged_classes():
    poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2])
    classes = {
        (pt.c, pt.p): poset.merged[i] for i, pt in enumerate(poset.points)
    }
    assert classes[(1, 2)] == (1, 2, 4)
    assert classes[(3, 2)] == (3, 6, 12)
    assert classes[(4, 0)] == (4,)


def test_enumerate_trivial_group():
    poset = enumerate_spectrum(CyclicGroupCtx(1), [0, 2])
    assert [(pt.c, pt.p) for pt in poset.points] == [(1, 0), (1, 2)]
    assert krull_dimension(poset) == 1  # the chain (0) in (2) of Spec Z


def test_enumerate_c2():
    poset = enumerate_spectrum(CyclicGroupCtx(2), [0, 2])
    assert [(pt.c, pt.p) for pt in poset.points] == [(1, 0), (1, 2), (2, 0)]


def test_enumerate_rejects_bad_primes():
    with pytest.raises(ValueError):
        enumerate_spectrum(CyclicGroupCtx(6), [])
    with pytest.raises(ValueError):
        enumerate_spectrum(CyclicGroupCtx(6), [4])


@pytest.mark.parametrize(
    "build", [enumerate_spectrum, dress_spectrum], ids=["tambara", "dress"]
)
@pytest.mark.parametrize(
    "primes",
    [bad for p in (2.9, 2.0, "2", False) for bad in ([0, p], [p, 2])],
    ids=str,
)
def test_spectrum_rejects_non_int_primes(build, primes):
    # int() would have read each of these as a valid prime set;
    # check_prime_or_zero refuses them
    with pytest.raises(TypeError):
        build(CyclicGroupCtx(6), primes)


@pytest.mark.parametrize("n", [1, 2, 12, 360, 5040, 27720])
def test_matrix_equals_the_pairwise_relation(n):
    # the keyed row masks against contains / dress_contains, one call per pair
    for primes, relates, poset, pairwise in spectra_with_pairwise(n):
        masks = tuple(sum(b << j for j, b in enumerate(row)) for row in pairwise)
        assert poset.relation == masks, (n, primes, relates)


@pytest.mark.parametrize("n", [1, 2, 12, 360, 5040, 27720])
def test_krull_and_hasse_equal_the_matrix_oracles(n):
    # peeling and minimal-cover masks against DFS and the N^2 cover test,
    # both run on the pairwise relation
    for primes, relates, poset, pairwise in spectra_with_pairwise(n):
        assert krull_dimension(poset) == krull_oracle(pairwise), (n, primes, relates)
        assert hasse_edges(poset) == hasse_oracle(pairwise), (n, primes, relates)


@pytest.mark.parametrize(
    "build", [enumerate_spectrum, dress_spectrum], ids=["tambara", "dress"]
)
def test_duplicate_canonical_class_is_a_broken_invariant(build, monkeypatch):
    # two points with one key in a layer contain each other
    real = spectrum._canonical_classes

    def doubled(n, p):
        classes = real(n, p)
        return classes + classes[:1] if p == 2 else classes

    monkeypatch.setattr(spectrum, "_canonical_classes", doubled)
    with pytest.raises(InvariantError, match="contain each other"):
        build(CyclicGroupCtx(12), [0, 2, 3])


def test_antisymmetry_of_canonical_points():
    for n in (4, 6, 8, 12, 18, 30):
        poset = enumerate_spectrum(CyclicGroupCtx(n), [0, 2, 3, 5, 7])
        npts = len(poset.points)
        for i in range(npts):
            for j in range(npts):
                if i != j:
                    assert not (poset.relation[i] >> j & 1 and poset.relation[j] >> i & 1)


# --- Krull dimension -------------------------------------------------------------


def test_krull_examples():
    assert krull_dimension(enumerate_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])) == 4
    assert krull_dimension(enumerate_spectrum(CyclicGroupCtx(1), [0, 2])) == 1
    assert krull_dimension(enumerate_spectrum(CyclicGroupCtx(8), [0, 2, 3])) == 4


def test_krull_formula_with_fresh_prime():
    for n in (4, 6, 12, 30):
        primes = default_primes(n)
        poset = enumerate_spectrum(CyclicGroupCtx(n), primes)
        assert krull_dimension(poset) == omega(n) + 1


# --- Dress comparison -------------------------------------------------------------


def test_dress_spectrum_counts_and_dimension():
    ctx = CyclicGroupCtx(12)
    d = dress_spectrum(ctx, [0, 2, 3, 5])
    t = enumerate_spectrum(ctx, [0, 2, 3, 5])
    assert len(d.points) == len(t.points) == 17
    assert krull_dimension(d) == 1
    assert krull_dimension(t) == 4


def test_dress_contains_rules():
    assert not dress_contains(DressPoint(2, 2), DressPoint(4, 0))
    assert dress_contains(DressPoint(4, 0), DressPoint(1, 2))  # O^2 parts equal
    assert not dress_contains(DressPoint(3, 0), DressPoint(1, 2))
    assert dress_contains(DressPoint(2, 0), DressPoint(2, 0))


def test_dress_only_containments_are_zero_into_prime():
    d = dress_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])
    for i, a in enumerate(d.points):
        for j, b in enumerate(d.points):
            if i == j or not d.relation[i] >> j & 1:
                continue
            assert a.p == 0 and b.p != 0


# --- exports ---------------------------------------------------------------------


def test_export_dot_structure_n12_two_primes():
    poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2])
    dot = export_dot(poset)
    zero_nodes = [pt for pt in poset.points if pt.p == 0]
    two_nodes = [pt for pt in poset.points if pt.p == 2]
    assert len(zero_nodes) == 6 and len(two_nodes) == 2
    edges = hasse_edges(poset)
    zero_edges = [
        (i, j)
        for i, j in edges
        if poset.points[i].p == 0 and poset.points[j].p == 0
    ]
    assert len(zero_edges) == 7  # dual divisor lattice of 12
    assert 'pq_1_2 [label="p_{C_1,2} = p_{C_2,2} = p_{C_4,2}"];' in dot
    assert dot.startswith("digraph tambara_spectrum {")


def test_export_single_point():
    poset = enumerate_spectrum(CyclicGroupCtx(1), [0])
    dot = export_dot(poset)
    assert dot.count("->") == 0
    assert 'pq_1_0 [label="p_{C_1,0}"];' in dot


def test_export_json_roundtrip():
    poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])
    text = export_json(poset)
    doc = json.loads(text)
    assert doc["n"] == 12 and doc["primes"] == [0, 2, 3, 5]
    assert len(doc["points"]) == 17
    assert poset_from_json(text) == poset


def test_poset_from_json_rejects_points_not_in_the_spectrum():
    doc = json.loads(export_json(enumerate_spectrum(CyclicGroupCtx(12), [0, 2])))
    del doc["points"][0]
    with pytest.raises(ValueError):
        poset_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "n, edit",
    [
        (6, {"n": 6.0}),
        (6, {"n": "6"}),
        (1, {"n": True}),
        (6, {"primes": [0, 2.0]}),
        (6, {"primes": ["0", "2"]}),
        (6, {"primes": [False, 2]}),
    ],
    ids=str,
)
def test_poset_from_json_rejects_non_int_n_and_primes(n, edit):
    # each edited export of C_n over [0, 2] reads as the unedited one under
    # int(); divisors and check_prime_or_zero refuse them
    doc = json.loads(export_json(enumerate_spectrum(CyclicGroupCtx(n), [0, 2])))
    doc.update(edit)
    with pytest.raises(TypeError):
        poset_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", "object"),
        ("6", "object"),
        ('{"primes": [0, 2], "points": []}', "'n'"),
        ('{"n": 6, "points": []}', "'primes'"),
        ('{"n": 6, "primes": [0, 2]}', "'points'"),
        ('{"n": 6, "primes": 2, "points": []}', "'primes'"),
        ('{"n": 6, "primes": [0, 2], "points": {}}', "'points'"),
        ('{"n": 6, "primes": [0, 2], "points": [[1, 0, [1]]]}', "'points'"),
        ('{"n": 6, "primes": [0, 2], "points": [{"c": 1, "p": 0}]}', "'points'"),
    ],
    ids=str,
)
def test_poset_from_json_names_a_missing_or_malformed_field(text, field):
    with pytest.raises(ValueError, match=field):
        poset_from_json(text)


def test_hasse_transitive_closure_equals_relation():
    for n in (6, 12, 30):
        poset = enumerate_spectrum(CyclicGroupCtx(n), default_primes(n))
        npts = len(poset.points)
        # Floyd-Warshall closure of the Hasse edges
        reach = [[i == j for j in range(npts)] for i in range(npts)]
        for i, j in hasse_edges(poset):
            reach[i][j] = True
        for k in range(npts):
            for i in range(npts):
                if reach[i][k]:
                    for j in range(npts):
                        if reach[k][j]:
                            reach[i][j] = True
        for i in range(npts):
            for j in range(npts):
                assert reach[i][j] == poset.relation[i] >> j & 1


def test_zero_layer_dual_to_divisor_lattice():
    for n in (8, 12, 30):
        poset = enumerate_spectrum(CyclicGroupCtx(n), [0])
        idx = {pt.c: i for i, pt in enumerate(poset.points)}
        for a in divisors(n):
            for b in divisors(n):
                assert poset.relation[idx[a]] >> idx[b] & 1 == (a % b == 0)


def test_default_primes():
    assert default_primes(12) == [0, 2, 3, 5]
    assert default_primes(8) == [0, 2, 3]
    assert default_primes(30) == [0, 2, 3, 5, 7]
    assert default_primes(1) == [0, 2]
