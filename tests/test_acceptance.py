"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact (integer arithmetic); the
stated wall-clock limits are asserted.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from tambara.burnside import BurnsideElement, from_t, ghost, unghost
from tambara.cli import run
from tambara.gsets import map_set, realize, decompose
from tambara.ideals import (
    IdealSpec,
    kernel_lattice,
    level_generators,
    member,
    primality_probe,
    ring_ideal_lattice,
)
from tambara.lattice import CyclicGroupCtx, divisors, factorize, o_p, omega
from tambara.maps import ghost_res, ghost_tr, norm, norm_ghost, restrict, transfer
from tambara.spectrum import (
    contains,
    contains_semantic,
    default_primes,
    dress_spectrum,
    enumerate_spectrum,
    hasse_edges,
    krull_dimension,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"FAIL criterion {number}: {name} ({elapsed:.2f}s >= {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its time limit: {elapsed:.2f}s"
        )
    print(f"PASS criterion {number}: {name} ({elapsed:.2f}s < {limit_seconds:g}s)")


def nonneg_elements(level, max_size):
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


def test_criterion_1_c12_spectrum_golden(capsys):
    with criterion(1, "C_12 containment poset golden file (spectrum -n 12)", 1.0):
        assert run(["spectrum", "-n", "12"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "spectrum_n12.dot").read_text()

        poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])
        layers = {}
        for i, pt in enumerate(poset.points):
            layers.setdefault(pt.p, []).append((pt.c, poset.merged[i]))
        # p = 0: six points ordered dually to the divisor lattice of 12
        assert [c for c, _ in layers[0]] == [1, 2, 3, 4, 6, 12]
        idx = {(pt.c, pt.p): i for i, pt in enumerate(poset.points)}
        for a in divisors(12):
            for b in divisors(12):
                assert poset.relation[idx[(a, 0)]] >> idx[(b, 0)] & 1 == (a % b == 0)
        # p = 2: exactly two points with the stated merges
        assert layers[2] == [(1, (1, 2, 4)), (3, (3, 6, 12))]
        # p = 3: exactly three points
        assert [c for c, _ in layers[3]] == [1, 2, 4]
        assert layers[3] == [(1, (1, 3)), (2, (2, 6)), (4, (4, 12))]
        # cross-layer Hasse edges are exactly p_{d,0} -> p_{d,p}
        cross = [
            (poset.points[i], poset.points[j])
            for i, j in hasse_edges(poset)
            if poset.points[i].p != poset.points[j].p
        ]
        assert all(a.p == 0 and b.p != 0 and a.c == b.c for a, b in cross)
        assert len(cross) == 2 + 3 + 6  # p = 2, 3 and 5 layers


def test_criterion_2_norm_formula_oracle_equivalence():
    with criterion(2, "norm formula vs Map_K(H, X) oracle", 120.0):
        pairs = sorted(
            {
                (k, h)
                for n in (2, 3, 4, 6, 8, 12)
                for h in divisors(n)
                for k in divisors(h)
            }
        )
        checked = 0
        for k, h in pairs:
            for x in nonneg_elements(k, 4):
                s = realize(x)
                if s.size ** (h // k) > 10**6:
                    continue
                assert decompose(map_set(h, k, s)) == norm(x, h), (x, h)
                checked += 1
        assert checked > 100  # the quantifier ranges over 22 level pairs


def test_criterion_3_ghost_commutation_fuzz():
    with criterion(3, "ghost commutation fuzz, 10000 elements", 60.0):
        rng = random.Random(0xC1C)

        def draw(level):
            return BurnsideElement(
                level,
                {
                    d: rng.randint(-5, 5)
                    for d in divisors(level)
                    if rng.random() < 0.75
                },
            )

        for _ in range(10_000):
            n = rng.randint(1, 30)
            h = rng.choice(divisors(n))
            k = rng.choice(divisors(h))
            x, y = draw(h), draw(k)
            gx, gy = ghost(x), ghost(y)
            assert unghost(gx) == x
            assert ghost(restrict(x, k)) == ghost_res(gx, k)
            assert ghost(transfer(y, h)) == ghost_tr(gy, h)
            assert ghost(norm(y, h)) == norm_ghost(gy, h)


def test_criterion_4_generator_theorem():
    with criterion(4, "ring generators span the kernel lattice", 120.0):
        for n in (4, 6, 8, 12, 18, 30):
            for c in divisors(n):
                for p in (0, 2, 3, 5, 7):
                    spec = IdealSpec(n, c, p)
                    gens = level_generators(spec, n)
                    assert ring_ideal_lattice(n, gens).same_span(
                        kernel_lattice(spec, n)
                    ), spec.label


def test_criterion_5_primality_probing():
    with criterion(5, "primality probe at n=12 plus intersection witness", 300.0):
        poset = enumerate_spectrum(CyclicGroupCtx(12), [0, 2, 3, 5])
        assert len(poset.points) == 17
        for spec in poset.points:
            found = primality_probe(spec, bound=2, max_support=2)
            assert found == [], f"unexpected counterexample for {spec.label}: {found[:1]}"
        # bound 3 so the witness pair (2*G/G, 3*G/G) is inside the box
        family = [IdealSpec(12, 1, 2), IdealSpec(12, 1, 3)]
        found = primality_probe(family, bound=3, max_support=2)
        a = 2 * BurnsideElement.unit(12)
        b = 3 * BurnsideElement.unit(12)
        assert (a, b) in found or (b, a) in found
        for x, y in found:
            assert not all(member(s, x) for s in family)
            assert not all(member(s, y) for s in family)


def test_criterion_5_primality_probing_at_n_60():
    with criterion(5, "primality probe of every point at n=60, bound 2", 60.0):
        points = enumerate_spectrum(CyclicGroupCtx(60), default_primes(60)).points
        assert len(points) == 40
        for spec in points:
            found = primality_probe(spec, bound=2, max_support=2)
            assert found == [], f"unexpected counterexample for {spec.label}: {found[:1]}"


def test_criterion_6_containment_cross_validation():
    with criterion(6, "symbolic containment equals semantic containment", 120.0):
        for n in (4, 6, 8, 12, 18, 30):
            poset = enumerate_spectrum(CyclicGroupCtx(n), [0, 2, 3, 5, 7])
            for a in poset.points:
                for b in poset.points:
                    assert contains(a, b) == contains_semantic(a, b), (
                        n,
                        a.label,
                        b.label,
                    )


def test_criterion_6_cross_validation_at_n_120():
    with criterion(6, "containment and generator spans at n=120", 60.0):
        points = enumerate_spectrum(CyclicGroupCtx(120), default_primes(120)).points
        assert len(points) == 52
        for a in points:
            for b in points:
                assert contains(a, b) == contains_semantic(a, b), (a.label, b.label)
        for spec in points:
            for h in divisors(120):
                gens = level_generators(spec, h)
                assert ring_ideal_lattice(h, gens).same_span(
                    kernel_lattice(spec, h)
                ), (spec.label, h)


def test_criterion_7_krull_comparison():
    with criterion(7, "bijection with Dress spectrum, Krull 4 vs 1", 1.0):
        ctx = CyclicGroupCtx(12)
        tam = enumerate_spectrum(ctx, [0, 2, 3, 5])
        dress = dress_spectrum(ctx, [0, 2, 3, 5])
        assert len(tam.points) == len(dress.points) == 17
        assert krull_dimension(tam) == 4 == omega(12) + 1
        assert krull_dimension(dress) == 1


def test_criterion_8_tambara_generator_lemmas():
    with criterion(8, "Tambara generator membership lemmas", 30.0):
        for n in (4, 6, 8, 12):
            for p in default_primes(n):
                for c in divisors(n):
                    spec = IdealSpec(n, c, p)
                    # t_q - q one q-step above the q-part of c, for every
                    # prime q | n whose q-part of c is not all of n's
                    for q, _ in factorize(n):
                        # the q-part of c is c // o_p(c, q)
                        if c // o_p(c, q) != n // o_p(n, q):
                            h = q * (c // o_p(c, q))
                            t_q = from_t(h, q) - q * BurnsideElement.unit(h)
                            assert member(spec, t_q), (spec.label, q)
                    if not p:
                        continue
                    # exhaustive membership behind the two generator
                    # theorems, for every ideal over a prime p
                    assert member(spec, p * BurnsideElement.unit(1))
                    for h in divisors(n):
                        assert member(spec, p * BurnsideElement.unit(h))
                        for k in divisors(h):
                            if (h // k) % p == 0:
                                assert member(
                                    spec, BurnsideElement.transitive(h, k)
                                )
