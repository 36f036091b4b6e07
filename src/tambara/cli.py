"""Command-line front end.

Subcommands: spectrum, contains, member, map, ghost, unghost, gens,
probe, oracle, dress, each one entry of the COMMANDS table, which gives
its handler, help line, options and positionals.  ``_parse`` reads a
request against that table once; the same table writes the help and the
usage errors.  Options are --opt value, --opt=value or -n value; a
repeated option keeps its last value, a negative decimal is a value, and
prefixes of an option are not accepted.  Elements are passed as JSON
({"level": h, "coeffs": {"k": m}}) or as the shorthand t<m>@<h> for the
transitive set of order m at level h; a JSON integer may have at most
MAX_INPUT_DIGITS digits.  Exit codes: 0 success (and --help), 1 domain
error, 2 usage error, 3 broken internal invariant (InvariantError); codes
1 and 3 write a JSON {"error", "message"} object on stderr, code 2 the
usage line and the error.  ``run`` keeps no state between calls.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from types import SimpleNamespace

from .burnside import (
    BurnsideElement,
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
    decompose,
    fixed_points,
    induce,
    map_set,
    map_set_size,
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
# The most points of G-sets one oracle run may realize (boxes, induced
# sets and map sets together); n = 120 realizes at most 5.0e5.
ORACLE_POINT_LIMIT = 10**7


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
        x = BurnsideElement._from_box(level, dict(zip(orbits, ms)))
        yield x, realize(x)


def _oracle_points(check: str, n: int) -> int:
    """The points of the G-sets an oracle run at n realizes, counted in
    closed form.  The box at level k (coefficients 1 or 2) realizes
    sigma(k)*(6*d(k) - 3) points on at most two orbits, and 3*sigma(k) on
    one; a transfer induces each set to every level k*q, q | n/k, and a
    norm maps each set of s <= 4 points to s**q points when
    ``map_set_size`` finds that within its budget."""
    total = 0
    for k in divisors(n):
        divs = divisors(k)
        if check == "marks":
            total += sum(divs) * (6 * len(divs) - 3)
        elif check == "transfers":
            total += sum(divs) * (6 * len(divs) - 3) * (1 + sum(divisors(n // k)))
        else:
            total += 3 * sum(divs)
            sizes = [m * j for m in (1, 2) for j in (1, 2, 3, 4) if k % j == 0 and m * j <= 4]
            for q in divisors(n // k):
                total += sum(map_set_size(size, q) or 0 for size in sizes)
    return total


def cmd_oracle(args) -> int:
    # The whole run is counted against ORACLE_POINT_LIMIT first.  Then each
    # level's box is walked once and each G-set realized once, then
    # checked at every target level h it divides; only one realized set is
    # alive at a time.
    points = _oracle_points(args.check, args.n)
    if points > ORACLE_POINT_LIMIT:
        raise BudgetExceeded(
            f"an oracle run realizing {points} points of G-sets exceeds "
            f"ORACLE_POINT_LIMIT = {ORACLE_POINT_LIMIT}"
        )
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


REQUIRED = object()  # the default of an option that must be given
_N, _SPEC, _PRIMES = ("n", integer, REQUIRED), ("spec", str, REQUIRED), ("primes", str, None)
_ELEMENT = ("element", str, REQUIRED)
# name -> (handler, help, options, positional names).  An option maps its flag to
# (dest, converter, default); the converter is integer, str or a tuple of choices.
COMMANDS = {
    "spectrum": (cmd_spectrum, "enumerate the prime spectrum", {"-n": _N, "--primes": _PRIMES,
        "--format": ("format", ("dot", "json", "table"), "dot")}, ()),
    "contains": (cmd_contains, "symbolic ideal containment: is A in B?", {"-n": _N}, ("a", "b")),
    "member": (cmd_member, "ideal membership of an element", {
        "-n": _N, "--spec": _SPEC, "--element": _ELEMENT}, ()),
    "map": (cmd_map, "apply a structure map", {"-n": ("n", integer, None),
        "--op": ("op", ("res", "tr", "norm"), REQUIRED), "--from": ("src", integer, REQUIRED),
        "--to": ("dst", integer, REQUIRED), "--element": _ELEMENT}, ()),
    "ghost": (cmd_ghost, "marks of an element", {"--element": _ELEMENT}, ()),
    "unghost": (cmd_unghost, "invert the mark embedding", {
        "--vector": ("vector", str, REQUIRED)}, ()),
    "gens": (cmd_gens, "ring-theoretic generators of an ideal level", {
        "-n": _N, "--spec": _SPEC, "--level": ("level", integer, None)}, ()),
    "probe": (cmd_probe, "search for primality counterexamples", {"-n": _N,
        "--bound": ("bound", integer, 2), "--support": ("support", integer, 2), "--primes": _PRIMES}, ()),
    "oracle": (cmd_oracle, "cross-check formulas against G-sets", {
        "--check": ("check", ("norms", "transfers", "marks"), REQUIRED), "-n": _N}, ()),
    "dress": (cmd_dress, "Dress's spectrum of the Burnside ring", {"-n": _N, "--primes": _PRIMES,
        "--format": ("format", ("json", "table"), "table")}, ()),
}
_ABOUT = """Burnside Tambara functor of a cyclic group: structure maps, ideals, prime spectrum.
An element is JSON {"level": h, "coeffs": {"k": m}} or t<m>@<h>, a spec (A, B, --spec) is
c=<d>,p=<p>, and --primes a comma-separated list (0 allowed).  Commands:"""


def _stop(name, error=None):
    """Print the help on stdout and exit 0, or, given an error, the usage
    line and the error on stderr and exit 2."""
    prog, usage, about = "tambara", "usage: tambara <command> [options]", _ABOUT
    about += "".join(f"\n  {cmd:<9} {entry[1]}" for cmd, entry in COMMANDS.items())
    if name is not None:
        prog, (_, about, options, positionals) = f"tambara {name}", COMMANDS[name]
        usage = f"usage: {prog}"
        for flag, (_, convert, default) in options.items():
            meta = flag.strip("-").upper() if callable(convert) else "{%s}" % ",".join(convert)
            usage += f" {flag} {meta}" if default is REQUIRED else f" [{flag} {meta}]"
        usage += "".join(f" {a.upper()}" for a in positionals)
    if error is not None:
        print(f"{usage}\n{prog}: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    print(f"{usage}\n\n{about}")
    raise SystemExit(0)


def _is_value(token: str) -> bool:
    """Not an option: a token that does not start with '-', or a negative integer."""
    return token[:1] != "-" or token[1:].isdecimal()


def _parse(argv) -> SimpleNamespace:
    """The handler (as ``func``) and arguments of one request, read against
    COMMANDS; --help and usage errors raise SystemExit, as in argparse."""
    name = argv[0] if argv else None
    if name not in COMMANDS:
        _stop(None, None if name in ("-h", "--help") else f"expected a command, got {name!r}")
    func, _, options, positionals = COMMANDS[name]
    args, rest, tokens = SimpleNamespace(func=func), [], iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            rest.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag in ("-h", "--help"):
            _stop(name)
        if flag not in options:
            _stop(name, f"unrecognized option {token!r}")
        if not eq:
            value = next(tokens, "-")  # "-" stands for a missing value
            if not _is_value(value):
                _stop(name, f"option {flag} expects a value")
        dest, convert, _ = options[flag]
        try:  # a tuple of choices raises ValueError on any other value
            value = convert(value) if callable(convert) else convert[convert.index(value)]
        except ValueError:
            _stop(name, f"option {flag}: invalid value {value!r}")
        setattr(args, dest, value)
    if len(rest) != len(positionals):
        _stop(name, f"expected {len(positionals)} positional arguments, got {len(rest)}")
    for flag, (dest, _, default) in options.items():
        if vars(args).setdefault(dest, default) is REQUIRED:
            _stop(name, f"option {flag} is required")
    vars(args).update(zip(positionals, rest))
    return args


def run(argv=None) -> int:
    """Entry point returning the exit code; stdout/stderr carry the output."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, InvariantError, KeyError, BudgetExceeded) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 3 if isinstance(exc, InvariantError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
