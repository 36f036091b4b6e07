from dataclasses import fields

import pytest

from tambara.lattice import (
    DIVISOR_LIMIT,
    BudgetExceeded,
    CyclicGroupCtx,
    check_prime_or_zero,
    divisors,
    factorize,
    is_prime,
    o_p,
    omega,
    require_divides,
    s_partition,
)


def test_divisors_examples():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-6)


@pytest.mark.parametrize("call", [
    lambda: divisors(12.5),
    lambda: divisors(12.0),
    lambda: divisors(True),
    lambda: CyclicGroupCtx(6.0),
], ids=["12.5", "12.0", "True", "ctx-6.0"])
def test_divisors_rejects_non_int_before_the_cache(call):
    # with 12, 6 and 1 cached, a cache lookup alone would answer 12.0 and True
    assert divisors(12) and divisors(6) and divisors(1)
    with pytest.raises(TypeError):
        call()


def test_divisors_are_exactly_the_divisors():
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_returns_a_fresh_list():
    ds = divisors(12)
    ds.append(99)
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(12) is not divisors(12)


def test_trial_division_stops_at_its_limit(low_trial_limit):
    # 1000003 is prime, so no trial divisor up to its square root divides it
    for f in (factorize, is_prime, divisors):
        with pytest.raises(BudgetExceeded):
            f(1_000_003)
    with pytest.raises(BudgetExceeded):
        factorize(101 * 103)
    # every n below the square of the limit factors, and so do smooth inputs
    assert factorize(97 * 97) == ((97, 2),)
    assert factorize(2**200 * 3) == ((2, 200), (3, 1))
    assert is_prime(97) and not is_prime(91)
    assert divisors(97 * 89) == [1, 89, 97, 97 * 89]


def test_trial_division_is_budgeted_by_the_cofactor_length():
    # 1000003**700 has no factor below 1000003; its 13,953 bits are 27
    # blocks of 512, so its divisors stop at 10**6 // 27
    with pytest.raises(BudgetExceeded, match="past divisor 37037 "):
        factorize(1000003**700)
    # long inputs that shed small factors still factor, and so does every
    # cofactor under 1024 bits with no factor past the limit
    assert factorize(2**4000) == ((2, 4000),)
    assert factorize(10**4299) == ((2, 4299), (5, 4299))
    assert factorize(3**2000 * 7**1000) == ((3, 2000), (7, 1000))
    assert factorize(999983 * 1000003) == ((999983, 1), (1000003, 1))
    assert factorize(999983**4) == ((999983, 4),)
    assert factorize(999983**3 * 1000003) == ((999983, 3), (1000003, 1))


def test_divisor_count_is_budgeted_before_any_divisor_is_built():
    assert len(divisors(2**99 * 3**99)) == DIVISOR_LIMIT  # 100 * 100 divisors
    for n in (2**100 * 3**99, 10**4299):
        with pytest.raises(BudgetExceeded, match="DIVISOR_LIMIT"):
            divisors(n)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_check_prime_or_zero():
    assert check_prime_or_zero(0) == 0
    assert check_prime_or_zero(13) == 13
    for bad in (1, 4, 6, 9, -2):
        with pytest.raises(ValueError):
            check_prime_or_zero(bad)
    # 2.0 used to reach factorize and fail there with AttributeError
    assert is_prime(2)
    for bad in (2.0, 0.0, True, False, "2"):
        with pytest.raises(TypeError):
            check_prime_or_zero(bad)


@pytest.mark.parametrize(
    "a, b, error",
    [
        (2.0, 12, TypeError),
        (2, 12.0, TypeError),
        (True, 12, TypeError),
        (2, True, TypeError),
        ("2", 12, TypeError),
        (0, 12, ValueError),
        (1, 0, ValueError),
        (-2, 12, ValueError),
        (1, -12, ValueError),
        (-1, -12, ValueError),
        (5, 12, ValueError),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_require_divides_rejects(a, b, error):
    with pytest.raises(error):
        require_divides(a, b, "subgroup")


def test_require_divides_accepts_every_divisor():
    for b in (1, 12, 360):
        for a in divisors(b):
            require_divides(a, b)


def test_o_p_examples():
    assert o_p(12, 2) == 3
    assert o_p(12, 5) == 12
    assert o_p(8, 2) == 1


def test_o_p_rejects_zero_and_composites():
    with pytest.raises(ValueError):
        o_p(12, 0)
    with pytest.raises(ValueError):
        o_p(12, 4)


@pytest.mark.parametrize("d, error", [(0, ValueError), (-4, ValueError), (12.0, TypeError), (True, TypeError)])
def test_o_p_rejects_an_order_that_is_not_an_int_of_at_least_one(d, error):
    # o_p(0, 2) used to loop forever, and o_p(12.0, 2) returned 3.0
    with pytest.raises(error):
        o_p(d, 2)


@pytest.mark.parametrize("call", [is_prime, lambda p: o_p(12, p)], ids=["is_prime", "o_p"])
@pytest.mark.parametrize("p", [2.0, True, "2"], ids=repr)
def test_is_prime_and_o_p_reject_a_non_int_p(call, p):
    # 2.0 and "2" used to reach factorize (AttributeError), and o_p(12, True)
    # raised ValueError as for a non-prime
    with pytest.raises(TypeError):
        call(p)
    assert is_prime(2) and o_p(12, 2) == 3


def test_o_p_idempotent():
    for d in divisors(720):
        for p in (2, 3, 5, 7):
            assert o_p(o_p(d, p), p) == o_p(d, p)


def test_ctx_invariants():
    ctx = CyclicGroupCtx(12)
    assert ctx.n == 12
    assert [f.name for f in fields(ctx)] == ["n"]
    with pytest.raises(ValueError):
        CyclicGroupCtx(0)


def test_s_partition_example_n12_c2():
    parts = s_partition(12, 2)
    assert parts[1] == ((1, 3), 3)
    assert parts[2] == ((2, 4, 6, 12), 12)


def test_s_partition_c_equals_n():
    parts = s_partition(12, 12)
    for j in divisors(12):
        assert parts[j] == ((j,), j)


def test_s_partition_trivial_c():
    parts = s_partition(6, 1)
    assert parts[1] == ((1, 2, 3, 6), 6)


def test_s_partition_matches_gcd_bruteforce_and_partitions():
    from math import gcd

    for n in (4, 6, 8, 12, 18, 30, 36):
        for c in divisors(n):
            parts = s_partition(n, c)
            seen = []
            for j, (members, mj) in parts.items():
                assert members == tuple(d for d in divisors(n) if gcd(d, c) == j)
                assert mj in members
                assert all(mj % d == 0 for d in members)
                seen.extend(members)
            assert sorted(seen) == divisors(n)


def _longest_prime_ratio_path(n):
    # independent oracle: longest path in the divisor DAG whose edges are
    # prime-index steps
    ds = divisors(n)
    best = {}
    for d in ds:  # ascending, so all proper divisors are already done
        best[d] = max(
            (best[e] + 1 for e in divisors(d) if e != d and is_prime(d // e)),
            default=0,
        )
    return best[n]


def test_max_chain_length_examples():
    # longest subgroup chain e < H_1 < ... < C_n, for the worked examples
    for n, length in ((12, 3), (1, 0), (8, 3)):
        assert omega(n) == length
        assert _longest_prime_ratio_path(n) == length


def test_omega_is_the_longest_chain_length():
    # the longest subgroup chain e < H_1 < ... < C_n has omega(n) steps
    for n in range(1, 150):
        assert omega(n) == _longest_prime_ratio_path(n)


def test_omega():
    assert omega(1) == 0
    assert omega(12) == 3
    assert omega(30) == 3
    assert omega(32) == 5
