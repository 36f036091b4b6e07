"""The benchmark's three workloads: inputs from a seed, tasks, and checks.

A workload is a fixed list of tasks.  A task calls into tambara through
module attributes looked up at call time, so the traced run sees the
calls through the wrappers of ``spans.Tracer``.  Each task has a time
budget.  ``Workload.check`` judges one answer outside the timed region;
it returns None when the answer is right and a reason otherwise.  The
expected answers come from routes independent of the code under test
wherever one is cheap enough: marks are recomputed here from the
transitive-basis formula, and Q pairs are derived from the marks alone.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd
from pathlib import Path
from typing import Any, Callable

from tambara import burnside, cli, ideals, lattice, maps, spectrum

GOLDEN_DOT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "spectrum_n12.dot"


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    budget_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: list[Task]
    check: Callable[[int, Any], str | None]
    before_rep: Callable[[], None] = lambda: None


# -- arithmetic the checks recompute on their own ---------------------------


@lru_cache(maxsize=None)
def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _marks(level: int, coeffs: dict[int, int]) -> dict[int, int]:
    """Marks of sum m_k C_level/C_k: the C_j-fixed points of each orbit."""
    return {
        j: sum((level // k) * m for k, m in coeffs.items() if k % j == 0)
        for j in _divisors(level)
    }


def _vanishes(value: int, p: int) -> bool:
    return value % p == 0 if p else value == 0


def _in_ideal(marks: dict[int, int], level: int, specs) -> bool:
    """Membership in every ideal of ``specs``, by the marks at level."""
    return all(
        _vanishes(marks[i], s.p) for s in specs for i in _divisors(gcd(level, s.c))
    )


def _key(x) -> tuple:
    return (x.level, tuple(sorted(x.coeffs.items())))


def _point_count(n: int, primes) -> int:
    """Canonical spectrum points: one per divisor, or per p-free divisor if p | n."""
    total = 0
    for p in primes:
        m = n
        while p and m % p == 0:
            m //= p
        total += len(_divisors(m if p else n))
    return total


def _spectrum_points(n: int):
    return spectrum.enumerate_spectrum(
        lattice.CyclicGroupCtx(n), spectrum.default_primes(n)
    ).points


# -- lattice ----------------------------------------------------------------

LATTICE_LEVELS = (60, 90)
LATTICE_BUDGET_S = 30.0


def _span_task(spec, h):
    return (
        ideals.kernel_lattice(spec, h),
        ideals.ring_ideal_lattice(h, ideals.level_generators(spec, h)),
    )


def _containment_task(a, b):
    return spectrum.contains_semantic(a, b), spectrum.contains(a, b)


def lattice_workload(seed: int, levels=LATTICE_LEVELS) -> Workload:
    """Generators vs. kernel at every level, then semantic vs. symbolic
    containment for every ordered pair, over the canonical points at each n.

    The span phase runs first and fills the kernel_lattice cache, so every
    containment task is a cache hit and no task's cost depends on the seed.
    """
    rng = random.Random(seed)
    spans, pairs = [], []
    for n in levels:
        points = _spectrum_points(n)
        spans += [
            Task(f"span {s.label} n={n} h={h}", partial(_span_task, s, h), LATTICE_BUDGET_S)
            for s in points
            for h in _divisors(n)
        ]
        pairs += [
            Task(f"contains {a.label} {b.label} n={n}", partial(_containment_task, a, b), LATTICE_BUDGET_S)
            for a in points
            for b in points
        ]
    rng.shuffle(spans)
    rng.shuffle(pairs)
    tasks = spans + pairs

    def check(index, answer):
        first, second = answer
        if index < len(spans):
            return None if first.same_span(second) else "kernel and generated ideal differ"
        return None if first == second else f"semantic {first} vs symbolic {second}"

    return Workload("lattice", tasks, check, ideals.kernel_lattice.cache_clear)


# -- probe ------------------------------------------------------------------

PROBE_LEVELS = (12, 20)
PROBE_FAMILY = ((12, 1, 2), (12, 1, 3))
PROBE_BUDGET_S = 60.0
Q_SAMPLE = 40


def _probe_task(family, bound, support):
    return ideals.primality_probe(family, bound=bound, max_support=support)


def _box(level: int, bound: int, support: int):
    """Coefficient dicts with at most ``support`` nonzero entries in [-bound, bound]."""
    divs = _divisors(level)
    values = [v for v in range(-bound, bound + 1) if v]
    yield {}
    for size in range(1, support + 1):
        for keys in itertools.combinations(divs, size):
            for ms in itertools.product(values, repeat=size):
                yield dict(zip(keys, ms))


def _q_pairs(specs, n: int, bound: int, support: int) -> tuple[int, int]:
    """Count and hash-sum of the unordered non-member pairs on which Q holds.

    Z/p is an integral domain, so a product's mark vanishes mod p iff one
    factor's does.  Q(a, b) therefore holds iff every condition slot
    (L, spec, i | gcd(L, c)) is covered by a or by b, where a covers the
    slot when mark_j(a) vanishes mod p for every j | gcd(i, level(a)):
    those are the marks at i of all N_K^L res_K a.
    """
    slots = [(L, s, i) for L in _divisors(n) for s in specs for i in _divisors(gcd(L, s.c))]
    full = (1 << len(slots)) - 1
    groups: dict[int, list[tuple]] = {}
    for h in _divisors(n):
        for coeffs in _box(h, bound, support):
            marks = _marks(h, coeffs)
            if _in_ideal(marks, h, specs):
                continue
            mask = 0
            for bit, (_, s, i) in enumerate(slots):
                if all(_vanishes(marks[j], s.p) for j in _divisors(gcd(i, h))):
                    mask |= 1 << bit
            groups.setdefault(mask, []).append((h, tuple(sorted(coeffs.items()))))
    count = digest = 0
    masks = list(groups)
    for x, ma in enumerate(masks):
        for mb in masks[x:]:
            if ma | mb != full:
                continue
            ga, gb = groups[ma], groups[mb]
            for ia, ka in enumerate(ga):
                for kb in ga[ia:] if ma == mb else gb:
                    count += 1
                    digest += hash(tuple(sorted((ka, kb))))
    return count, digest & 0xFFFFFFFFFFFFFFFF


def probe_workload(seed: int, levels=PROBE_LEVELS, family=PROBE_FAMILY, family_bound=3) -> Workload:
    """Primality probes: every canonical point at each n with bound 2 and
    support 2 (all prime, so no pair may turn up), plus one intersection
    of two ideals at a larger bound (not prime, so pairs must turn up)."""
    rng = random.Random(seed)
    cases = [((s,), 2, False) for n in levels for s in _spectrum_points(n)]
    cases.append((tuple(ideals.IdealSpec(*t) for t in family), family_bound, True))
    rng.shuffle(cases)
    tasks = [
        Task(
            f"probe {' & '.join(s.label for s in specs)} n={specs[0].n} bound={bound}",
            partial(_probe_task, list(specs) if len(specs) > 1 else specs[0], bound, 2),
            PROBE_BUDGET_S,
        )
        for specs, bound, _ in cases
    ]
    expected: dict[int, tuple[int, int]] = {}
    check_rng = random.Random(seed + 1)

    def check(index, pairs):
        specs, bound, composite = cases[index]
        n = specs[0].n
        if index not in expected:
            expected[index] = _q_pairs(specs, n, bound, 2)
        count, digest = expected[index]
        if composite != bool(count):
            return f"the marks give {count} Q pairs for a {'non-' * composite}prime family"
        got = sum(hash(tuple(sorted((_key(a), _key(b))))) for a, b in pairs)
        if (len(pairs), got & 0xFFFFFFFFFFFFFFFF) != (count, digest):
            return f"{len(pairs)} pairs reported, the marks give {count}"
        for x in {_key(e): e for pair in pairs for e in pair}.values():
            if _in_ideal(_marks(x.level, x.coeffs), x.level, specs):
                return f"reported element {x} is a member"
        family_arg = list(specs)
        for a, b in check_rng.sample(pairs, min(Q_SAMPLE, len(pairs))):
            if not ideals.q_check(family_arg, a, b, n=n).holds:
                return f"q_check rejects the reported pair ({a}, {b})"
        return None

    return Workload("probe", tasks, check)


# -- cli --------------------------------------------------------------------

# Sized so that no command family takes most of the wall time: one
# spectrum at n = 55440 (cubic hasse_edges) would alone take 40% of it,
# so the largest spectrum is at n = 27720 and n = 55440 is sent to dress.
SPECTRUM_REQUESTS = (
    [(27720, "dot"), (5040, "json"), (2520, "table"), (360, "dot"), (60, "json")]
    + [(720, fmt) for fmt in ("dot", "json", "table")]
    + [(12, "dot"), (12, "dot"), (12, "json"), (12, "table")]
)
DRESS_REQUESTS = [(55440, "table"), (5040, "json"), (720, "table"), (720, "json"), (60, "json")]
# Norm outputs stay under Python's 4,300-digit (14,284-bit) int-to-str
# limit: above it ``tambara map`` exits 1 with a ValueError (level 1 to
# 20160 from 3 gives 32k bits), a defect of the CLI outside this benchmark.
NORM_PAIRS = [(1, 5040), (12, 20160), (2, 5040), (6, 720), (4, 10080)]
RESTRICT_LEVELS = [20160, 5040, 720]
TRANSFER_PAIRS = [(12, 20160), (60, 5040), (720, 5040)]
GHOST_LEVELS = (720, 5040)
SPEC_LEVELS = (720, 5040, 27720, 55440)
GENS_LEVELS = ((720, 720), (5040, 5040), (5040, 2520))
# Fifteen oracle requests of about 10 ms, so that task_p95_ms (the 15th
# slowest of ~300 requests) falls inside a block of requests the seed
# does not change, below the nine largest spectrum and dress requests.
ORACLE_CHECKS = ("norms", "transfers", "marks") * 5
PRIMES = (0, 2, 3, 5, 7, 11, 13)
INVALID_REQUESTS = [
    (["map", "--op", "frob", "--from", "1", "--to", "12", "--element", "t1@1"], 2),
    (["map", "--op", "norm", "--from", "7", "--to", "12", "--element", "t1@7"], 1),
    (["unghost", "--vector", '{"level": 2, "marks": {"1": 2, "2": 1}}'], 1),
    (["ghost", "--element", "t7@720"], 1),
    (["contains", "-n", "12", "c=5,p=0", "c=1,p=0"], 1),
    (["spectrum", "-n", "12", "--primes", "4"], 1),
    (["member", "-n", "12", "--spec", "c=2,p=2"], 2),
    (["member", "-n", "12", "--spec", "c=2,p=2", "--element", "nonsense"], 1),
    (["gens", "-n", "12", "--spec", "c=2"], 1),
    (["dress", "-n", "0"], 1),
]
CLI_BUDGET_S = 10.0


def _cli_task(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _draw(rng: random.Random, level: int, support: int, top: int) -> dict[int, int]:
    divs = _divisors(level)
    keys = rng.sample(divs, min(support, len(divs)))
    return {k: rng.choice([-1, 1]) * rng.randint(1, top) for k in keys}


def _element_json(level: int, coeffs: dict[int, int]) -> str:
    return json.dumps({"level": level, "coeffs": {str(k): m for k, m in sorted(coeffs.items())}})


def _draw_spec(rng: random.Random, n: int) -> tuple[int, int]:
    return rng.choice(_divisors(n)), rng.choice(PRIMES)


def _spec_arg(spec: tuple[int, int]) -> str:
    return f"c={spec[0]},p={spec[1]}"


def _cli_requests(rng: random.Random, spectra, dresses, repeat: int) -> list[tuple[list[str], tuple]]:
    """(argv, expectation) pairs; the expectation's first field names the check.

    The heavy requests (spectrum, dress, oracle) are a fixed list, so the
    seed changes which elements and specs are sent, not how much work.
    """
    reqs = []
    for n, fmt in spectra:
        reqs.append((["spectrum", "-n", str(n), "--format", fmt], ("spectrum", n, fmt)))
    for n, fmt in dresses:
        reqs.append((["dress", "-n", str(n), "--format", fmt], ("dress", n, fmt)))
    for check in ORACLE_CHECKS:
        reqs.append((["oracle", "--check", check, "-n", "12"], ("oracle", check)))
    for _ in range(repeat):
        for src, dst in NORM_PAIRS:
            x = {1: rng.choice([-3, 3])} if src == 1 else _draw(rng, src, 2, 2)
            argv = ["map", "--op", "norm", "--from", str(src), "--to", str(dst), "--element", _element_json(src, x)]
            reqs.append((argv, ("norm", src, x, dst)))
        for h in RESTRICT_LEVELS:
            x = _draw(rng, h, 3, 9)
            j = rng.choice(_divisors(h))
            argv = ["map", "--op", "res", "--from", str(h), "--to", str(j), "--element", _element_json(h, x)]
            reqs.append((argv, ("res", h, x, j)))
        for src, dst in TRANSFER_PAIRS:
            x = _draw(rng, src, 3, 9)
            argv = ["map", "--op", "tr", "--from", str(src), "--to", str(dst), "--element", _element_json(src, x)]
            reqs.append((argv, ("tr", src, x, dst)))
        for h in GHOST_LEVELS:
            x = _draw(rng, h, 3, 9)
            reqs.append((["ghost", "--element", _element_json(h, x)], ("ghost", h, x)))
            y = _draw(rng, h, 3, 9)
            vector = json.dumps({"level": h, "marks": {str(j): v for j, v in _marks(h, y).items()}})
            reqs.append((["unghost", "--vector", vector], ("unghost", h, y)))
        for n in SPEC_LEVELS:
            a, b = _draw_spec(rng, n), _draw_spec(rng, n)
            reqs.append((["contains", "-n", str(n), _spec_arg(a), _spec_arg(b)], ("contains", n, a, b)))
        for n in GHOST_LEVELS * 2:
            spec = _draw_spec(rng, n)
            h = rng.choice(_divisors(n))
            x = _draw(rng, h, 3, 9)
            argv = ["member", "-n", str(n), "--spec", _spec_arg(spec), "--element", _element_json(h, x)]
            reqs.append((argv, ("member", n, spec, h, x)))
        for n, h in GENS_LEVELS:
            spec = _draw_spec(rng, n)
            argv = ["gens", "-n", str(n), "--spec", _spec_arg(spec), "--level", str(h)]
            reqs.append((argv, ("gens", n, spec, h)))
    return reqs


def cli_workload(seed: int, spectra=SPECTRUM_REQUESTS, dresses=DRESS_REQUESTS, repeat=10) -> Workload:
    """One client in a closed loop: each request is sent through
    ``tambara.cli.run`` in process after the previous one has returned."""
    rng = random.Random(seed)
    reqs = _cli_requests(rng, spectra, dresses, repeat)
    reqs += [(argv, ("exit", code)) for argv, code in INVALID_REQUESTS]
    rng.shuffle(reqs)
    tasks = [Task(" ".join(argv)[:120], partial(_cli_task, argv), CLI_BUDGET_S) for argv, _ in reqs]
    return Workload("cli", tasks, lambda i, answer: _judge_cli(reqs[i][1], *answer))


def _judge_cli(expect: tuple, code: int, out: str, err: str) -> str | None:
    kind = expect[0]
    if kind == "exit":
        return None if code == expect[1] and not out else f"exit {code}, expected {expect[1]}"
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    return _CLI_CHECKS[kind](out, *expect[1:])


def _element(out: str):
    return burnside.element_from_json(json.loads(out))


def _check_spectrum(out, n, fmt):
    count = _point_count(n, spectrum.default_primes(n))
    if n == 12 and fmt == "dot":
        return None if out == GOLDEN_DOT.read_text() else "DOT differs from the golden file"
    if fmt == "json":
        poset = spectrum.poset_from_json(out)
        if spectrum.export_json(poset) != out:
            return "JSON does not round-trip through poset_from_json"
        return None if len(poset.points) == count else f"{len(poset.points)} points, expected {count}"
    if fmt == "table":
        return None if f": {count} points," in out.splitlines()[0] else f"table header lacks {count} points"
    nodes = [line for line in out.splitlines() if "[label=" in line]
    return None if len(nodes) == count else f"{len(nodes)} DOT nodes, expected {count}"


def _check_dress(out, n, fmt):
    count = _point_count(n, spectrum.default_primes(n))
    if fmt == "json":
        got = len(json.loads(out)["points"])
    else:
        got = sum(1 for line in out.splitlines() if "class=" in line)
    return None if got == count else f"{got} dress points, expected {count}"


def _check_map(ghost_route):
    def check(out, src, x, dst):
        got = burnside.ghost(_element(out))
        want = ghost_route(burnside.ghost(burnside.BurnsideElement(src, x)), dst)
        return None if got == want else "differs from the ghost-coordinate route"

    return check


def _check_ghost(out, h, x):
    v = burnside.ghost_from_json(json.loads(out))
    if v.values != _marks(h, x):
        return "marks differ from the transitive-basis formula"
    return None if burnside.unghost(v) == burnside.BurnsideElement(h, x) else "unghost(ghost(x)) != x"


def _check_unghost(out, h, x):
    return None if _element(out) == burnside.BurnsideElement(h, x) else "unghost returned another element"


def _check_contains(out, n, a, b):
    want = spectrum.contains(ideals.IdealSpec(n, *a), ideals.IdealSpec(n, *b))
    return None if out.strip() == str(want).lower() else f"printed {out.strip()}, expected {want}"


def _check_member(out, n, spec, h, x):
    want = _in_ideal(_marks(h, x), h, [ideals.IdealSpec(n, *spec)])
    return None if out.strip() == str(want).lower() else f"printed {out.strip()}, expected {want}"


def _check_gens(out, n, spec, h):
    ideal = [ideals.IdealSpec(n, *spec)]
    for g in json.loads(out):
        x = burnside.element_from_json(g)
        if x.level != h or not _in_ideal(_marks(h, x.coeffs), h, ideal):
            return f"generator {x} is not in the ideal at level {h}"
    return None


def _check_oracle(out, check):
    return None if out.startswith(f"{check}: OK (") else f"oracle printed {out.strip()[:80]}"


_CLI_CHECKS = {
    "spectrum": _check_spectrum,
    "dress": _check_dress,
    "norm": _check_map(maps.norm_ghost),
    "res": _check_map(maps.ghost_res),
    "tr": _check_map(maps.ghost_tr),
    "ghost": _check_ghost,
    "unghost": _check_unghost,
    "contains": _check_contains,
    "member": _check_member,
    "gens": _check_gens,
    "oracle": _check_oracle,
}

WORKLOADS = {"lattice": lattice_workload, "probe": probe_workload, "cli": cli_workload}
