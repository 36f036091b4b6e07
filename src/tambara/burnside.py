"""Burnside rings of cyclic groups in the transitive basis.

An element of A(C_h) is a formal integer combination of the transitive
sets C_h/C_k for k | h, stored sparsely with zero coefficients dropped so
that structural equality is mathematical equality.  Marks (fixed-point
counts) embed A(C_h) into the ghost ring prod_{i|h} Z; ``unghost``
inverts the embedding by a descending recursion over the divisor lattice,
with an exact integrality check recognizing the image.  It is the
package's one inversion: the norm, fixed by its marks, is read back
through it too.

All coefficients are Python ints: norms raise marks to large powers and
must never overflow.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd

from .lattice import divisors, require_divides, check_prime_or_zero


class NotInGhostImage(ValueError):
    """A ghost vector that is not in the image of the mark embedding."""

    def __init__(self, divisor: int, message: str):
        super().__init__(message)
        self.divisor = divisor


def integer(text: str) -> int:
    """A decimal integer: ASCII digits after an optional minus sign, with
    surrounding spaces allowed.  Unlike int(), rejects underscores, a plus
    sign and non-ASCII digits."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text, re.ASCII):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class BurnsideElement:
    """Sparse element of A(C_level) in the transitive basis.

    ``coeffs[k]`` is the multiplicity of the orbit C_level/C_k.  Supports
    +, -, unary -, * (ring product via the t-rule and int scaling), ==,
    and hashing.  A level, key or coefficient that is not exactly an int
    raises TypeError; nothing is coerced.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict[int, int] | None = None):
        if type(level) is not int:
            raise TypeError(f"level must be an int, got {level!r}")
        if level < 1:
            raise ValueError(f"level must be a positive integer, got {level}")
        clean: dict[int, int] = {}
        for k, m in (coeffs or {}).items():
            if type(k) is not int or type(m) is not int:
                raise TypeError(f"orbit {k!r} and coefficient {m!r} must be ints")
            if k < 1 or level % k:
                raise ValueError(f"orbit stabilizer: {k} is not a divisor of {level}")
            if m:
                clean[k] = m
        self.level = level
        self.coeffs = clean

    @classmethod
    def zero(cls, level: int) -> "BurnsideElement":
        return cls(level)

    @classmethod
    def unit(cls, level: int) -> "BurnsideElement":
        """The one-point set C_h/C_h, the multiplicative unit."""
        return cls(level, {level: 1})

    @classmethod
    def transitive(cls, level: int, k: int) -> "BurnsideElement":
        """The orbit C_level/C_k."""
        return cls(level, {k: 1})

    def mark(self, i: int) -> int:
        """Number of C_i-fixed points: sum over k with i | k of m_k * (h/k)."""
        require_divides(i, self.level, "mark subgroup")
        h = self.level
        return sum((h // k) * m for k, m in self.coeffs.items() if k % i == 0)

    def mark_mod(self, i: int, p: int) -> int:
        """The mark at C_i reduced mod p; p = 0 leaves it in Z."""
        check_prime_or_zero(p)
        v = self.mark(i)
        return v % p if p else v

    def size(self) -> int:
        """Virtual cardinality, the mark at the trivial subgroup."""
        return self.mark(1)

    def _require_same_level(self, other: "BurnsideElement") -> None:
        if self.level != other.level:
            raise ValueError(
                f"level mismatch: A(C_{self.level}) vs A(C_{other.level})"
            )

    def __add__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._require_same_level(other)
        acc = dict(self.coeffs)
        for k, m in other.coeffs.items():
            acc[k] = acc.get(k, 0) + m
        return BurnsideElement(self.level, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BurnsideElement(self.level, {k: -m for k, m in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement(
                self.level, {k: other * m for k, m in self.coeffs.items()}
            )
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._require_same_level(other)
        # Transitive products follow t_a x t_b = gcd(a,b) t_lcm(a,b) with
        # t_m = C_h/C_{h/m}; in stabilizer coordinates the orbit C_gcd(j,k)
        # appears gcd(h/j, h/k) times.
        h = self.level
        acc: dict[int, int] = {}
        for j, mj in self.coeffs.items():
            for k, mk in other.coeffs.items():
                key = gcd(j, k)
                acc[key] = acc.get(key, 0) + mj * mk * gcd(h // j, h // k)
        return BurnsideElement(h, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.level == other.level
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        items = ", ".join(f"{k}: {m}" for k, m in sorted(self.coeffs.items()))
        return f"BurnsideElement(level={self.level}, coeffs={{{items}}})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            m = self.coeffs[k]
            orbit = f"C{self.level}/C{k}" if k > 1 else f"C{self.level}/e"
            if self.level == 1:
                orbit = "e/e"
            parts.append(f"{m}*{orbit}" if m != 1 else orbit)
        return " + ".join(parts).replace("+ -", "- ")


@lru_cache(maxsize=None)
def mark_table(h: int) -> tuple[tuple[int, ...], ...]:
    """The mark matrix of A(C_h) over the ascending divisors of h: row i,
    column k holds the mark at C_i of the orbit C_h/C_k, which is h/k
    where i | k and 0 elsewhere."""
    divs = divisors(h)
    return tuple(tuple(h // k if k % i == 0 else 0 for k in divs) for i in divs)


def from_t(level: int, m: int) -> BurnsideElement:
    """The transitive set t_m of order m at the given level.

    t_m = C_h/C_{h/m}: an m-element orbit has stabilizer of order h/m.
    """
    require_divides(m, level, "orbit size")
    return BurnsideElement(level, {level // m: 1})


class GhostVector:
    """Mark tuple of an element of A(C_level), indexed by all i | level.

    Like BurnsideElement, it takes only exact ints (TypeError otherwise).
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: dict[int, int]):
        if type(level) is not int:
            raise TypeError(f"level must be an int, got {level!r}")
        for i, v in values.items():
            if type(i) is not int or type(v) is not int:
                raise TypeError(f"subgroup {i!r} and mark {v!r} must be ints")
        divs = divisors(level)
        if sorted(values) != divs:
            raise ValueError(
                f"ghost vector at level {level} must have exactly the keys {divs}"
            )
        self.level = level
        self.values = {i: values[i] for i in divs}

    def pointwise_mul(self, other: "GhostVector") -> "GhostVector":
        if self.level != other.level:
            raise ValueError("level mismatch")
        return GhostVector(
            self.level, {i: v * other.values[i] for i, v in self.values.items()}
        )

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values[i] for i in divisors(self.level))

    def __eq__(self, other):
        return (
            isinstance(other, GhostVector)
            and self.level == other.level
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.level, self.as_tuple()))

    def __repr__(self):
        return f"GhostVector(level={self.level}, values={self.values})"


def ghost(x: BurnsideElement) -> GhostVector:
    """The injective mark embedding: all marks of x at once."""
    return GhostVector(x.level, {i: x.mark(i) for i in divisors(x.level)})


def unghost(v: GhostVector) -> BurnsideElement:
    """Invert the mark embedding.

    The mark at C_k is the sum of c_l = m_l * (h/l) over the l | h that k
    divides, so in descending order c_k = v[k] - sum of c_l over the
    proper multiples l of k.  Then m_j = c_j / (h/j) in ascending order;
    every division must be exact, otherwise v is not the ghost of any
    element and NotInGhostImage names the first divisor that fails.
    """
    h = v.level
    divs = divisors(h)
    c: dict[int, int] = {}
    for k in reversed(divs):
        # c holds exactly the divisors above k so far
        c[k] = v.values[k] - sum(cl for l, cl in c.items() if l % k == 0)
    coeffs = {}
    for j in divs:
        q, r = divmod(c[j], h // j)
        if r:
            raise NotInGhostImage(
                j, f"not a ghost vector: m_{j} = {c[j]}/{h // j} is not an integer"
            )
        if q:
            coeffs[j] = q
    return BurnsideElement(h, coeffs)


def to_vector(x: BurnsideElement) -> list[int]:
    """Coefficients of x over the ascending divisor basis."""
    return [x.coeffs.get(k, 0) for k in divisors(x.level)]


def from_vector(level: int, vec) -> BurnsideElement:
    divs = divisors(level)
    if len(vec) != len(divs):
        raise ValueError(f"expected {len(divs)} coordinates at level {level}")
    return BurnsideElement(level, dict(zip(divs, vec)))


def element_to_json(x: BurnsideElement) -> dict:
    """JSON form {"level": h, "coeffs": {"k": m_k, ...}} with string keys."""
    return {
        "level": x.level,
        "coeffs": {str(k): x.coeffs[k] for k in sorted(x.coeffs)},
    }


def _json_ints(obj, key: str, what: str) -> tuple[int, dict[int, int]]:
    """Level and ``obj[key]`` of a JSON object whose values are all JSON ints."""
    if not isinstance(obj, dict) or "level" not in obj:
        raise ValueError(f"{what} JSON must be an object with 'level' and '{key}'")
    entries = obj.get(key, {})
    if not isinstance(entries, dict):
        raise ValueError(f"{what} JSON '{key}' must be an object")
    for value in (obj["level"], *entries.values()):
        if type(value) is not int:
            raise ValueError(f"{what} JSON values must be integers, got {value!r}")
    return obj["level"], {integer(k): v for k, v in entries.items()}


def element_from_json(obj: dict) -> BurnsideElement:
    return BurnsideElement(*_json_ints(obj, "coeffs", "element"))


def ghost_to_json(v: GhostVector) -> dict:
    """JSON form {"level": h, "marks": {"i": v_i, ...}}."""
    return {"level": v.level, "marks": {str(i): v.values[i] for i in sorted(v.values)}}


def ghost_from_json(obj: dict) -> GhostVector:
    return GhostVector(*_json_ints(obj, "marks", "ghost"))
