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
from math import gcd


class InvariantError(AssertionError):
    """An internal invariant failed: a bug in the package, not bad input."""


class BudgetExceeded(RuntimeError):
    """A computation would exceed its a-priori cap."""


TRIAL_DIVISION_LIMIT = 10**6
_DIVISORS: dict[int, tuple[int, ...]] = {}


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending: built once per n from its
    factorization, returned as a fresh list.  An n that is not exactly an
    int raises TypeError before the cache is read, so 12.0 and True never
    hit the entries of 12 and 1."""
    if type(n) is not int:
        raise TypeError(f"group order must be an int, got {n!r}")
    divs = _DIVISORS.get(n)
    if divs is None:
        if n < 1:
            raise ValueError(f"group order must be a positive integer, got {n}")
        out = [1]
        for p, e in factorize(n):
            out = [d * p**k for d in out for k in range(e + 1)]
        divs = _DIVISORS[n] = tuple(sorted(out))
    return list(divs)


def require_divides(a: int, b: int, what: str = "subgroup") -> None:
    if a < 1 or b % a != 0:
        raise ValueError(f"{what}: {a} is not a divisor of {b}")


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Is p a prime, i.e. p >= 2 and its factorization is p itself?"""
    return p >= 2 and factorize(p) == ((p, 1),)


def check_prime_or_zero(p: int) -> int:
    """Validate eagerly that p is zero or a prime; returns p."""
    if p != 0 and not is_prime(p):
        raise ValueError(f"expected a prime or zero, got {p}")
    return p


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p ascending.

    The package's one trial-division loop.  Trial divisors stop at
    TRIAL_DIVISION_LIMIT, so every n below its square factors, and a
    larger cofactor without a small factor raises BudgetExceeded.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            raise BudgetExceeded(
                f"factorizing needs trial divisors past {TRIAL_DIVISION_LIMIT} "
                f"for a {n.bit_length()}-bit cofactor"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    return sum(e for _, e in factorize(n))


def p_part(d: int, p: int) -> int:
    """Largest power of the prime p dividing d."""
    q = 1
    while d % p == 0:
        d //= p
        q *= p
    return q


def o_p(d: int, p: int) -> int:
    """Order of the p-residual subgroup O^p(C_d): strip the p-part of d."""
    if p == 0:
        raise ValueError("O^p is undefined for p = 0")
    if not is_prime(p):
        raise ValueError(f"O^p needs a prime, got {p}")
    return d // p_part(d, p)


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
