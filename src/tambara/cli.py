"""Command-line front end.

Subcommands: spectrum, contains, member, map, ghost, unghost, gens,
probe, oracle, dress.  Elements are passed as JSON
({"level": h, "coeffs": {"k": m}}) or as the shorthand t<m>@<h> for the
transitive set of order m at level h; a JSON integer may have at most
MAX_INPUT_DIGITS digits.  Exit codes: 0 success, 1 domain
error, 2 usage error, 3 broken internal invariant (InvariantError); codes
1 and 3 write a JSON {"error", "message"} object on stderr.  ``run`` may
be called repeatedly in one process: the argument parser is built once,
on first use, and reused by every later call.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .burnside import (
    BurnsideElement,
    NotInGhostImage,
    element_from_json,
    element_to_json,
    from_t,
    ghost,
    ghost_from_json,
    ghost_to_json,
    integer,
    unghost,
)
from .gsets import (
    NegativeCoefficient,
    decompose,
    fixed_points,
    induce,
    map_set,
    realize,
)
from .ideals import (
    IdealSpec,
    box_terms,
    level_generators,
    member,
    primality_probe,
)
from .lattice import BudgetExceeded, CyclicGroupCtx, InvariantError, divisors, require_divides
from .maps import norm, restrict, transfer
from .spectrum import (
    contains,
    default_primes,
    dress_spectrum,
    enumerate_spectrum,
    export_dot,
    export_json,
    hasse_edges,
    krull_dimension,
)


# The most digits an integer in JSON input may have.  Converting one takes
# time quadratic in its length, about 50 ms at this cap (CPython 3.11 on
# a 2-vCPU host); a norm the CLI prints (level 1 to 20160 from 3) has 9,615.
MAX_INPUT_DIGITS = 100_000
# A JSON level is held to the interpreter's default int-to-str limit, as a
# level on the command line is: its factorization comes before any other
# check, and trial division costs time linear in its length per divisor.
MAX_LEVEL_DIGITS = 4300
_LEVEL_BOUND = 10**MAX_LEVEL_DIGITS


def _any_length(convert, value):
    """convert(value) with the interpreter's int-to-str limit (4,300 digits
    by default) lifted, as a norm or a mark easily exceeds it; the limit is
    restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _json_int(text: str) -> int:
    """A JSON integer, refused with BudgetExceeded before its conversion
    when it has more than MAX_INPUT_DIGITS digits."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_INPUT_DIGITS:
        raise BudgetExceeded(f"JSON integer of {digits} digits, cap is {MAX_INPUT_DIGITS}")
    return int(text)


# Decodes JSON input; built once, since json.loads(text, parse_int=...)
# would build a decoder on every call.
_JSON_INPUT = json.JSONDecoder(parse_int=_json_int)


def _load_json(text: str):
    """Decode an element's or a ghost vector's JSON, whose integers may be
    of any length up to MAX_INPUT_DIGITS digits.  Nesting past the
    interpreter's recursion limit is bad input, a ValueError; a level of
    more than MAX_LEVEL_DIGITS digits raises BudgetExceeded."""
    try:
        obj = _any_length(_JSON_INPUT.decode, text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    level = obj.get("level") if isinstance(obj, dict) else None
    if type(level) is int and abs(level) >= _LEVEL_BOUND:
        raise BudgetExceeded(f"JSON level of more than {MAX_LEVEL_DIGITS} digits")
    return obj


def parse_element(text: str) -> BurnsideElement:
    """Parse an element from JSON or from the shorthand t<m>@<h>."""
    text = text.strip()
    if text.startswith("t") and "@" in text and not text.startswith("{"):
        m_str, _, h_str = text[1:].partition("@")
        try:
            return from_t(integer(h_str), integer(m_str))
        except ValueError as exc:
            raise ValueError(f"bad t-shorthand {text!r}: {exc}") from exc
    try:
        obj = _load_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"element is neither t<m>@<h> nor JSON: {exc}") from exc
    return element_from_json(obj)


def parse_spec(text: str, n: int) -> IdealSpec:
    """Parse an ideal name of the form c=<d>,p=<p>."""
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    if set(fields) != {"c", "p"}:
        raise ValueError(f"spec must look like c=<d>,p=<p>, got {text!r}")
    return IdealSpec(n, integer(fields["c"]), integer(fields["p"]))


def _primes(args) -> list[int]:
    """The comma-separated --primes option, or the default prime set for -n."""
    if not args.primes:
        return default_primes(args.n)
    return [integer(tok) for tok in args.primes.split(",") if tok.strip() != ""]


def _print_json(obj, indent=None) -> None:
    """Print obj as JSON with integers of any length."""
    print(_any_length(partial(json.dumps, indent=indent), obj))


def _print_table(title: str, poset) -> None:
    """Header line with point count and Krull dimension, then one line per point."""
    print(
        f"{title} over primes {list(poset.primes)}: {len(poset.points)} points, "
        f"Krull dimension {krull_dimension(poset)}"
    )
    for pt, merged in zip(poset.points, poset.merged):
        print(f"  {pt.label}  class={list(merged)}")


def cmd_spectrum(args) -> int:
    poset = enumerate_spectrum(CyclicGroupCtx(args.n), _primes(args))
    if args.format == "dot":
        sys.stdout.write(export_dot(poset))
    elif args.format == "json":
        sys.stdout.write(export_json(poset))
    else:
        _print_table(f"Spec of the Burnside functor of C_{poset.n}", poset)
        print("Hasse edges (a -> b means a contained in b):")
        for i, j in hasse_edges(poset):
            print(f"  {poset.points[i].label} -> {poset.points[j].label}")
    return 0


def cmd_contains(args) -> int:
    a = parse_spec(args.a, args.n)
    b = parse_spec(args.b, args.n)
    print("true" if contains(a, b) else "false")
    return 0


def cmd_member(args) -> int:
    spec = parse_spec(args.spec, args.n)
    x = parse_element(args.element)
    print("true" if member(spec, x) else "false")
    return 0


def cmd_map(args) -> int:
    x = parse_element(args.element)
    if x.level != args.src:
        raise ValueError(f"element lives at level {x.level}, not {args.src}")
    if args.n is not None:
        require_divides(args.src, args.n, "source level")
        require_divides(args.dst, args.n, "target level")
    if args.op == "res":
        result = restrict(x, args.dst)
    elif args.op == "tr":
        result = transfer(x, args.dst)
    else:
        result = norm(x, args.dst)
    _print_json(element_to_json(result))
    return 0


def cmd_ghost(args) -> int:
    x = parse_element(args.element)
    _print_json(ghost_to_json(ghost(x)))
    return 0


def cmd_unghost(args) -> int:
    v = ghost_from_json(_load_json(args.vector))
    _print_json(element_to_json(unghost(v)))
    return 0


def cmd_gens(args) -> int:
    spec = parse_spec(args.spec, args.n)
    level = args.level if args.level is not None else args.n
    gens = level_generators(spec, level)
    _print_json([element_to_json(g) for g in gens])
    return 0


def cmd_probe(args) -> int:
    poset = enumerate_spectrum(CyclicGroupCtx(args.n), _primes(args))
    report = {
        "n": args.n,
        "primes": list(poset.primes),
        "bound": args.bound,
        "max_support": args.support,
        "levels": divisors(args.n),
        "specs": [],
    }
    clean = True
    for spec in poset.points:
        pairs = primality_probe(spec, bound=args.bound, max_support=args.support)
        clean = clean and not pairs
        report["specs"].append(
            {
                "c": spec.c,
                "p": spec.p,
                "counterexamples": [
                    [element_to_json(a), element_to_json(b)] for a, b in pairs
                ],
            }
        )
    report["verdict"] = (
        "no counterexample found at this scale (not a proof of primality)"
        if clean
        else "counterexamples found"
    )
    _print_json(report, indent=2)
    return 0


def _box_gsets(level: int, max_support: int):
    """(x, realize(x)) for the G-sets x of the oracle box at a level
    (coefficients 1 or 2 on at most max_support orbits), in box order."""
    for orbits, ms in box_terms(level, (1, 2), max_support):
        x = BurnsideElement(level, dict(zip(orbits, ms)))
        yield x, realize(x)


def cmd_oracle(args) -> int:
    # Each level's box is walked once and each G-set realized once, then
    # checked at every target level h it divides; only one realized set is
    # alive at a time.
    levels = divisors(args.n)
    cases = 0
    if args.check == "marks":
        for h in levels:
            for x, s in _box_gsets(h, 2):
                for i in divisors(h):
                    if fixed_points(s, i) != x.mark(i):
                        raise InvariantError(f"mark mismatch at {x}, C_{i}")
                    cases += 1
    elif args.check == "transfers":
        for k in levels:
            targets = [h for h in levels if h % k == 0]
            for x, s in _box_gsets(k, 2):
                for h in targets:
                    if decompose(induce(s, h)) != transfer(x, h):
                        raise InvariantError(f"transfer mismatch at {x} -> C_{h}")
                    cases += 1
    else:
        for k in levels:
            targets = [h for h in levels if h % k == 0]
            for x, s in _box_gsets(k, 1):
                if s.size > 4:
                    continue
                for h in targets:
                    try:
                        oracle = decompose(map_set(h, k, s))
                    except BudgetExceeded:
                        continue
                    if oracle != norm(x, h):
                        raise InvariantError(f"norm mismatch at {x} -> C_{h}")
                    cases += 1
    print(f"{args.check}: OK ({cases} cases)")
    return 0


def cmd_dress(args) -> int:
    poset = dress_spectrum(CyclicGroupCtx(args.n), _primes(args))
    if args.format == "json":
        doc = {
            "n": poset.n,
            "primes": list(poset.primes),
            "points": [
                {"d": pt.d, "p": pt.p, "merged": list(merged)}
                for pt, merged in zip(poset.points, poset.merged)
            ],
            "krull_dimension": krull_dimension(poset),
        }
        _print_json(doc, indent=2)
    else:
        _print_table(f"Spec of the Burnside ring A(C_{poset.n})", poset)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process and
    shared by every caller, so it must not be modified."""
    parser = argparse.ArgumentParser(
        prog="tambara",
        description="Burnside Tambara functor of a cyclic group: structure "
        "maps, ideals, and the prime spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="enumerate the prime spectrum")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("--primes", help="comma-separated primes (0 allowed)")
    sp.add_argument("--format", choices=["dot", "json", "table"], default="dot")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("contains", help="symbolic ideal containment")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("a", metavar="A", help="spec c=<d>,p=<p>")
    sp.add_argument("b", metavar="B", help="spec c=<d>,p=<p>")
    sp.set_defaults(func=cmd_contains)

    sp = sub.add_parser("member", help="ideal membership of an element")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("--spec", required=True, help="spec c=<d>,p=<p>")
    sp.add_argument("--element", required=True, help="element JSON or t<m>@<h>")
    sp.set_defaults(func=cmd_member)

    sp = sub.add_parser("map", help="apply a structure map")
    sp.add_argument("-n", type=integer, default=None)
    sp.add_argument("--op", choices=["res", "tr", "norm"], required=True)
    sp.add_argument("--from", dest="src", type=integer, required=True)
    sp.add_argument("--to", dest="dst", type=integer, required=True)
    sp.add_argument("--element", required=True)
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("ghost", help="marks of an element")
    sp.add_argument("--element", required=True)
    sp.set_defaults(func=cmd_ghost)

    sp = sub.add_parser("unghost", help="invert the mark embedding")
    sp.add_argument("--vector", required=True, help="ghost JSON")
    sp.set_defaults(func=cmd_unghost)

    sp = sub.add_parser("gens", help="ring-theoretic generators of an ideal level")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("--spec", required=True)
    sp.add_argument("--level", type=integer, default=None)
    sp.set_defaults(func=cmd_gens)

    sp = sub.add_parser("probe", help="search for primality counterexamples")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("--bound", type=integer, default=2)
    sp.add_argument("--support", type=integer, default=2)
    sp.add_argument("--primes")
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("oracle", help="cross-check formulas against G-sets")
    sp.add_argument("--check", choices=["norms", "transfers", "marks"], required=True)
    sp.add_argument("-n", type=integer, required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("dress", help="Dress's spectrum of the Burnside ring")
    sp.add_argument("-n", type=integer, required=True)
    sp.add_argument("--primes")
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.set_defaults(func=cmd_dress)

    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code; stdout/stderr carry the output."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, InvariantError, KeyError,
            NotInGhostImage, NegativeCoefficient, BudgetExceeded) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 3 if isinstance(exc, InvariantError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
