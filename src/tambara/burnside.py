"""Burnside rings of cyclic groups in the transitive basis.

An element of A(C_h) is a formal integer combination of the transitive
sets C_h/C_k for k | h, stored sparsely with zero coefficients dropped so
that structural equality is mathematical equality.  Marks (fixed-point
counts) embed A(C_h) into the ghost ring prod_{i|h} Z.  ``marks`` is the
one route to many marks at once: a single pass over the support.
``unghost`` inverts the embedding with one difference per prime factor
of h, and an exact integrality check recognizes the image.  It is the
package's one inversion: the norm, fixed by its marks, is read back
through it too.

All coefficients are Python ints: norms raise marks to large powers and
must never overflow.
"""

from __future__ import annotations

import re
from math import gcd
from types import MappingProxyType

from .lattice import divisors, factorize, require_divides


class NotInGhostImage(ValueError):
    """A ghost vector that is not in the image of the mark embedding."""

    def __init__(self, divisor: int, message: str):
        super().__init__(message)
        self.divisor = divisor


_INTEGER = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def integer(text: str) -> int:
    """A decimal integer: ASCII digits after an optional minus sign, with
    surrounding spaces allowed.  Unlike int(), rejects underscores, a plus
    sign and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class BurnsideElement:
    """Sparse element of A(C_level) in the transitive basis.

    ``coeffs[k]`` is the multiplicity of the orbit C_level/C_k; ``coeffs``
    is a read-only view, so an element never changes after its checks.
    Supports +, -, unary -, * (ring product via the t-rule and int
    scaling), ==, and hashing.  A level, key or coefficient that is not
    exactly an int raises TypeError; nothing is coerced.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict[int, int] | None = None):
        require_divides(1, level, "level")
        clean: dict[int, int] = {}
        for k, m in (coeffs or {}).items():
            # require_divides(k, level) inline: a call per key costs 40% here
            if type(k) is not int or type(m) is not int:
                raise TypeError(f"orbit {k!r} and coefficient {m!r} must be ints")
            if k < 1 or level % k:
                raise ValueError(f"orbit stabilizer: {k} is not a divisor of {level}")
            if m:
                clean[k] = m
        self.level = level
        self.coeffs = MappingProxyType(clean)

    @classmethod
    def _from_box(cls, level: int, coeffs: dict[int, int]) -> "BurnsideElement":
        """A box element, without the per-key checks: ``box_terms`` already
        keys ``coeffs`` by ascending divisors with nonzero int coefficients."""
        x = object.__new__(cls)
        x.level = level
        x.coeffs = MappingProxyType(coeffs)
        return x

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

    def _require_same_level(self, other: "BurnsideElement") -> None:
        if self.level != other.level:
            raise ValueError(
                f"level mismatch: A(C_{self.level}) vs A(C_{other.level})"
            )

    def __add__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._require_same_level(other)
        acc = self.coeffs.copy()
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


def from_t(level: int, m: int) -> BurnsideElement:
    """The transitive set t_m of order m at the given level.

    t_m = C_h/C_{h/m}: an m-element orbit has stabilizer of order h/m.
    """
    require_divides(m, level, "orbit size")
    return BurnsideElement(level, {level // m: 1})


class GhostVector:
    """Mark tuple of an element of A(C_level), indexed by all i | level.

    Like BurnsideElement, it takes only exact ints (TypeError otherwise),
    and ``values`` is a read-only view.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: dict[int, int]):
        divs = divisors(level)
        for i, v in values.items():
            if type(i) is not int or type(v) is not int:
                raise TypeError(f"subgroup {i!r} and mark {v!r} must be ints")
        if sorted(values) != divs:
            raise ValueError(
                f"ghost vector at level {level} must have exactly the keys {divs}"
            )
        self.level = level
        self.values = MappingProxyType({i: values[i] for i in divs})

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
        return f"GhostVector(level={self.level}, values={dict(self.values)})"


def marks(x: BurnsideElement, g: int) -> dict[int, int]:
    """The marks of x at every divisor i of g (g | level), ascending, from
    one pass over the support: the orbit C_h/C_k adds (h/k) * m_k to the
    mark at each i | gcd(k, g)."""
    h = x.level
    require_divides(g, h, "mark subgroup")
    out = dict.fromkeys(divisors(g), 0)
    for k, m in x.coeffs.items():
        c = (h // k) * m
        for i in divisors(gcd(k, g)):
            out[i] += c
    return out


def ghost(x: BurnsideElement) -> GhostVector:
    """The injective mark embedding: all marks of x at once."""
    return GhostVector(x.level, marks(x, x.level))


def _show(n: int) -> str:
    """str(n), or n's bit length when n is past the interpreter's
    int-to-str limit, so that an error message can always be built."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


def unghost(v: GhostVector) -> BurnsideElement:
    """Invert the mark embedding.

    The mark at C_k is the sum of c_l = m_l * (h/l) over the l | h that k
    divides.  That sum runs over each prime factor q of h independently,
    so it is undone one prime at a time: c_k -= c_{kq} for ascending k
    with kq | h.  Then m_j = c_j / (h/j) in ascending order; every
    division must be exact, otherwise v is not the ghost of any element
    and NotInGhostImage names the first divisor that fails.
    """
    h = v.level
    c = dict(v.values)
    for q, _ in factorize(h):
        for k in c:
            if (h // k) % q == 0:
                c[k] -= c[k * q]
    coeffs = {}
    for j, cj in c.items():
        q, r = divmod(cj, h // j)
        if r:
            raise NotInGhostImage(
                j, f"not a ghost vector: m_{j} = {_show(cj)}/{h // j} is not an integer"
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
