"""Divisor lattice of a finite cyclic group.

Subgroups of the cyclic group C_n correspond to divisors of n: C_d is the
unique subgroup of order d, and C_j <= C_d exactly when j | d.  Throughout
the package a subgroup is therefore a plain (validated) int, and lattice
operations reduce to gcd, lcm and divisibility.  Divisors and primality
are read off one cached factorization per integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod


class InvariantError(AssertionError):
    """An internal invariant failed: a bug in the package, not bad input."""


class BudgetExceeded(RuntimeError):
    """A computation would exceed its a-priori cap."""


TRIAL_DIVISION_LIMIT = 10**6
# The most divisors a group order may have; 55440 has 120.
DIVISOR_LIMIT = 10**4
_DIVISORS: dict[int, tuple[int, ...]] = {}


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending: built once per n from its
    factorization, returned as a fresh list.  The type half of
    ``require_divides(1, n)`` is made inline, before the cache is read, so
    12.0 and True never hit the entries of 12 and 1.  More than
    DIVISOR_LIMIT divisors, counted from the factorization, raise
    BudgetExceeded before any is built."""
    if type(n) is not int:
        raise TypeError(f"group order must be an int, got {n!r}")
    divs = _DIVISORS.get(n)
    if divs is None:
        if n < 1:
            raise ValueError(f"group order must be a positive integer, got {n}")
        factors = factorize(n)
        count = prod(e + 1 for _, e in factors)
        if count > DIVISOR_LIMIT:
            raise BudgetExceeded(
                f"a group order with {count} divisors, DIVISOR_LIMIT is {DIVISOR_LIMIT}"
            )
        out = [1]
        for p, e in factors:
            out = [d * p**k for d in out for k in range(e + 1)]
        divs = _DIVISORS[n] = tuple(sorted(out))
    return list(divs)


def require_divides(a: int, b: int, what: str = "subgroup") -> None:
    """The package's one check of a subgroup argument, C_a <= C_b: TypeError
    unless a and b are exact ints, ValueError unless a, b >= 1 and a | b."""
    if type(a) is not int or type(b) is not int:
        raise TypeError(f"{what}: {a!r} and {b!r} must be ints")
    if a < 1 or b < 1 or b % a:
        raise ValueError(f"{what}: expected positive ints a | b, got a = {a}, b = {b}")


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Is p a prime, i.e. p >= 2 and its factorization is p itself?  A p
    that is not exactly an int raises TypeError; the check runs on cache
    misses only, and a raise is not cached."""
    if type(p) is not int:
        raise TypeError(f"primality needs an int, got {p!r}")
    return p >= 2 and factorize(p) == ((p, 1),)


def check_prime_or_zero(p: int) -> int:
    """The package's one check of p: an exact int, zero or a prime; returns p."""
    if type(p) is not int:
        raise TypeError(f"expected a prime or zero, got {p!r}")
    if p and not is_prime(p):
        raise ValueError(f"expected a prime or zero, got {p}")
    return p


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p ascending.

    The package's one trial-division loop.  A trial divisor costs about
    one step while the cofactor has at most 512 bits and one step per 512
    bits beyond, so trial divisors stop at TRIAL_DIVISION_LIMIT over the
    cofactor's count of 512-bit blocks (at least one), set anew as the
    cofactor shrinks.  Every n below the square of the limit factors; a
    long cofactor without a factor small enough for its length raises
    BudgetExceeded early.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    stop = TRIAL_DIVISION_LIMIT // max(1, n.bit_length() // 512)
    while d * d <= n:
        if d > stop:
            raise BudgetExceeded(
                f"trial division of a {n.bit_length()}-bit cofactor past divisor {stop} "
                f"exceeds TRIAL_DIVISION_LIMIT = {TRIAL_DIVISION_LIMIT}"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            stop = TRIAL_DIVISION_LIMIT // max(1, n.bit_length() // 512)
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    return sum(e for _, e in factorize(n))


def o_p(d: int, p: int) -> int:
    """Order of the p-residual subgroup O^p(C_d): strip the p-part of d,
    an exact int >= 1 (checked inline, as ``require_divides`` would).  A
    non-int p is refused by ``is_prime`` (TypeError), a non-prime here."""
    if type(d) is not int:
        raise TypeError(f"O^p needs an int order, got {d!r}")
    if d < 1:
        raise ValueError(f"O^p needs an order >= 1, got {d}")
    if not is_prime(p):
        raise ValueError(f"O^p needs a prime, got {p}")
    while d % p == 0:
        d //= p
    return d


@dataclass(frozen=True)
class CyclicGroupCtx:
    """The ambient group C_n, with n validated as a group order."""

    n: int

    def __post_init__(self) -> None:
        divisors(self.n)  # raises unless n is a positive integer


def s_partition(n: int, c: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """Partition subgroups of C_n by their intersection with C_c.

    Returns {j: (members, m_j)} for each j | c, where members are the
    divisors d of n with gcd(d, c) = j (ascending) and m_j is the unique
    divisibility-maximal member.  Uniqueness holds for cyclic groups; it
    is asserted, not assumed.
    """
    require_divides(c, n)
    cells: dict[int, list[int]] = {j: [] for j in divisors(c)}
    for d in divisors(n):
        cells[gcd(d, c)].append(d)
    out = {}
    for j, members in cells.items():
        tops = [m for m in members if all(m % d == 0 for d in members)]
        if len(tops) != 1:
            raise InvariantError(
                f"S_{j} in C_{n} lacks a unique divisibility-maximum: {members}"
            )
        out[j] = (tuple(members), tops[0])
    return out
