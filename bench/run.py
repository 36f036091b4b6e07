"""The tambara benchmark: three workloads, checked answers, optional trace.

Run from the repository root (stdlib only, one process, one thread):

    python3 bench/run.py --workload lattice --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload cli --seed 1 --seconds 40 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the same numbers for a reader, with their sample counts.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run, whose spans are also
written to ``bench/out/trace-<workload>.spans.gz``.  The exit code is 0
when a result was printed; it is not 0, and nothing is printed, when the
tambara sources are not found next to this directory.
With ``--trace 0`` a line above the JSON also gives each task family's
share of wall_s (the family is the command for ``cli``).
``python3 bench/record.py --label <label>`` runs every workload over ten
seeds and writes ``bench/BENCH_<label>.json``.

Workloads (the seed permutes the task order; for ``cli`` it also draws
the elements and ideal specs sent):

``lattice``
    Every canonical spectrum point at n in {60, 90} with default primes.
    At every level, ``kernel_lattice`` must have the same span as
    ``ring_ideal_lattice(level_generators)``; then ``contains_semantic``
    must agree with ``contains`` on every ordered pair.  4,160 tasks; the
    kernel_lattice cache is cleared before each repetition.  Why:
    ``intlattice`` does almost all the work, using HNF as an integer
    kernel (p = 0), as a congruence preimage (p prime) and as the span of
    generator products, and ``in_row_span`` for membership; the probe and
    norm code is not touched.  n = 120 is left out on purpose: single
    specs there take more than 30 s today.
``probe``
    ``primality_probe`` on the 34 canonical points at n in {12, 20}
    (bound 2, support 2; all prime, so no pair may turn up) and on the
    family [(12,1,2), (12,1,3)] at bound 3 (not prime; 75,168 pairs).
    Why: the Q pair search in ``ideals``, ``maps.norm``/``restrict`` and
    ``burnside.mark`` do the work and ``intlattice`` does none.  The prime
    specs take the pair loop's early exit, the family the full Q check, so
    a change that helps one path and hurts the other shows.
``cli``
    One client in a closed loop sends 302 requests through
    ``tambara.cli.run`` in process: spectrum (dot/json/table) up to
    n = 27720 and dress up to n = 55440, map res/tr/norm up to level
    20160 (norm outputs up to ~9k bits: the CLI cannot print integers
    over 4,300 digits, see ``workloads.NORM_PAIRS``), ghost/unghost at
    h in {720, 5040}, contains, member, gens, fifteen oracle requests at
    n = 12, and ten invalid requests with their exit code.
    Why: this is what a CLI user runs.  It covers argument parsing and
    JSON output, the symbolic spectrum and ``hasse_edges``, big-integer
    maps, burnside, lattice and gsets, with no intlattice and no probe.
    The mix is balanced so that no command family is most of the time:
    on the seed, spectrum takes 39% of wall_s, map 17%, dress 11%
    (``bench/BENCH_seed.json`` records every family's share).

Answers are checked outside the timed region (see ``workloads``):
kernel vs. generators and semantic vs. symbolic containment; for the
probe, every reported pair against the pairs the marks alone give, no
reported element a member, and a seeded sample of 40 pairs a
repetition re-verified by the generic ``q_check`` (all 75,168 would not
fit in the run time); for the CLI, norm/res/tr against the ghost-coordinate
maps, ghost against recomputed marks and ``unghost(ghost(x)) == x``,
spectrum JSON round-tripped through ``poset_from_json``, the n = 12 DOT
byte-equal to ``tests/golden/spectrum_n12.dot``, and the exit code of
every invalid request.

End-to-end metrics (``--trace 0``; tracing off):

- ``wall_s``: seconds for the workload's task list once after set-up;
  the median over the repetitions that fit in ``--seconds``.
- ``setup_s``: seconds from starting a fresh interpreter to having
  tambara imported and the workload's inputs generated; the median of
  fifteen fresh interpreters.
- ``task_p50_ms``, ``task_p95_ms``: latency of one task over every task
  of every repetition (the sample count is printed).  On ``probe`` there
  are only 35 tasks a repetition, so p95 there is the slowest few specs.
- ``peak_rss_mib``: peak resident memory (``ru_maxrss``) of the process.
- ``fail_frac`` is ``failed / attempted`` of the JSON line, printed above
  it.  It is 0 when all is well, so it is carried by those two counts and
  not listed as a metric.  A task fails on a wrong answer, an unexpected
  exception, or overrunning its time budget; an overrun is interrupted
  by SIGALRM and recorded by task name, and tasks not started before
  the run deadline fail too, so a run always ends.

Per-layer metrics (``--trace 1``), named ``<module>.<function>.<stat>``,
with the end-to-end metric each should move:

=====================================================  ===========================================
lattice.divisors.calls, lattice.self_s                  wall_s on cli and probe (divisors is
                                                        recomputed by trial division per mark)
burnside.{mark,mul,unghost}.calls, burnside.self_s      wall_s on probe, task_p50_ms on cli
maps.norm.{calls,self_s,max_out_bits},                  wall_s on probe (many small norms);
maps.restrict.calls, maps.self_s                        task_p95_ms, peak_rss_mib on cli
gsets.map_set.calls, gsets.self_s,                      wall_s and task_p95_ms on cli (the
gsets.budget_refusals (BudgetExceeded / map_set calls)  oracle requests sit at p95)
intlattice.{hnf,xgcd,in_row_span}.calls,                wall_s and task_p95_ms on lattice;
intlattice.hnf.self_s, intlattice.xgcd.max_arg_bits,    zero calls on probe and cli
intlattice.self_s
ideals.kernel_lattice.{calls,hit_ratio},                wall_s on lattice (closure check, cache);
ideals.from_rows.self_s, ideals.self_s,                 wall_s on probe (pair-search self time)
ideals.primality_probe.{self_s,pairs_found}
spectrum.contains.calls, spectrum.self_s,               task_p95_ms on cli (hasse_edges is cubic),
spectrum.{contains_semantic,enumerate_spectrum,         wall_s on lattice
hasse_edges}.self_s
cli.run.calls, cli.errors (nonzero exits),              task_p50_ms on cli
cli.self_s (parsing and JSON output)
trace.overhead_frac                                     (traced wall_s - wall_s) / wall_s
trace.spans, trace.span_cost_ns                         (the tracer's own work; see below)
=====================================================  ===========================================

The traced run makes a warm-up repetition, an untraced one and a traced
one; trace.overhead_frac compares the last two.  The tracer (``spans``)
wraps the public functions of the eight modules from outside, so
nothing under ``src/`` changes.  A wrapper costs about 1 us a call
(trace.span_cost_ns, timed on a wrapped no-op just before and just after
the traced repetition); that cost is taken off every self time, so the
eight ``*.self_s`` sum to about the untraced wall_s rather than the
traced one.  trace.spans is the number of spans.  The wrapper cost moves
with the host by 10-20%, so a layer made of calls shorter than a wrapper
(``lattice.o_p`` and ``spectrum.contains`` on cli, about two million
spans) has a self time uncertain by about trace.spans x 0.2 us; counts
do not depend on the tracer's cost.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 15
RUN_DEADLINE_S = 140.0
FAMILY_PREFIX = "family shares of wall_s: "


def import_program() -> None:
    """Put the checkout's ``src`` on sys.path, or exit without a result."""
    src = ROOT / "src"
    if not (src / "tambara" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tambara sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class TaskTimeout(BaseException):
    """Raised by SIGALRM in the task that overran its budget."""


def _alarm(signum, frame):
    raise TaskTimeout


@dataclass
class Rep:
    attempted: int = 0
    wall_s: float = 0.0
    task_s: list[float] = field(default_factory=list)
    family_s: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)


def run_rep(workload, deadline: float, tracer=None) -> Rep:
    """Run every task once, each under its budget, then check the answers."""
    workload.before_rep()
    gc.collect()
    rep = Rep(attempted=len(workload.tasks))
    answers = {}
    previous = signal.signal(signal.SIGALRM, _alarm)
    if tracer:
        tracer.install()
    try:
        begin = time.perf_counter()
        for index, task in enumerate(workload.tasks):
            budget = min(task.budget_s, deadline - time.perf_counter())
            if budget <= 0:
                rep.failures.append(f"{task.name}: not started before the run deadline")
                continue
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    answers[index] = tracer.call(task.run) if tracer else task.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except TaskTimeout:
                rep.failures.append(f"{task.name}: over its {task.budget_s:g} s budget")
            except Exception as exc:
                rep.failures.append(f"{task.name}: raised {type(exc).__name__}: {exc}")
            rep.task_s.append(time.perf_counter() - start)
            rep.family_s[task.name.split()[0]] += rep.task_s[-1]
        rep.wall_s = time.perf_counter() - begin
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if tracer:
            tracer.uninstall()
    for index, answer in answers.items():
        try:
            reason = workload.check(index, answer)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            rep.failures.append(f"{workload.tasks[index].name}: {reason}")
    return rep


def run_reps(workload, seconds: float, deadline: float) -> list[Rep]:
    """Repeat the task list while another repetition fits in ``seconds``."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, deadline))
        spent = time.perf_counter() - start
        mean = spent / len(reps)
        if spent + mean > seconds or time.perf_counter() + mean > deadline:
            return reps


def time_setups(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited {child.returncode}")
        times.append(elapsed)
    return times


def end_to_end(reps: list[Rep], setups: list[float], rss_kib: int) -> dict:
    tasks = [t for rep in reps for t in rep.task_s]
    return {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s", f"median of {len(reps)} repetitions"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "task_p50_ms": (1e3 * statistics.median(tasks), "ms", f"{len(tasks)} task samples"),
        "task_p95_ms": (1e3 * statistics.quantiles(tasks, n=100, method="inclusive")[94], "ms",
                        f"{len(tasks)} task samples"),
        "peak_rss_mib": (rss_kib / 1024, "MiB", "ru_maxrss"),
    }


def traced_run(workload, deadline: float, out_path: Path, meta: dict) -> tuple[list[Rep], dict]:
    """A warm-up, an untraced and a traced repetition; the per-layer metrics.

    The warm-up fills the program's own caches (``lattice.factorize``), so
    the overhead compares two warm repetitions.
    """
    from spans import LAYER_METRICS, LAYERS, Summary, Tracer, wrapper_cost_ns

    warm = run_rep(workload, deadline)
    plain = run_rep(workload, deadline)
    tracer = Tracer()
    before = wrapper_cost_ns()
    traced = run_rep(workload, deadline, tracer)
    cost = tuple(statistics.mean(pair) for pair in zip(before, wrapper_cost_ns()))
    summary = Summary(tracer, cost)
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path, dict(meta, wrapper_cost_ns=cost))
    metrics = {name: (value(summary), unit, "") for name, unit, value in LAYER_METRICS}
    metrics["trace.span_cost_ns"] = (sum(cost), "ns", "wrapper cost taken off every self time")
    overhead = (traced.wall_s - plain.wall_s) / plain.wall_s
    layers = sum(summary.module_self_s(m) for m in LAYERS)
    metrics["trace.overhead_frac"] = (overhead, "ratio", f"traced {traced.wall_s:.3f} s, untraced "
                                      f"{plain.wall_s:.3f} s; layer self times sum to {layers:.3f} s")
    return [warm, plain, traced], metrics


def family_shares(reps: list[Rep]) -> dict[str, float]:
    """Each task family's share of the wall time; a family is the first
    word of a task's name, the command for ``cli``."""
    total = Counter()
    for rep in reps:
        total.update(rep.family_s)
    wall = sum(r.wall_s for r in reps)
    return {family: round(seconds / wall, 4) for family, seconds in total.most_common()}


def result_line(reps: list[Rep], metrics: dict) -> dict:
    failed = sum(len(r.failures) for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def report(name: str, seed: int, reps: list[Rep], metrics: dict, shares: dict | None = None) -> None:
    result = result_line(reps, metrics)
    print(f"workload {name}, seed {seed}: {len(reps)} repetitions")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:38s} {value:14.6g} {unit:6s} {note}")
    if shares is not None:
        print(f"{FAMILY_PREFIX}{json.dumps(shares)}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':38s} {frac:14.6g} {'':6s} {result['failed']} of {result['attempted']} tasks")
    for rep in reps:
        for failure in rep.failures[:20]:
            print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lattice", "probe", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    import_program()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        workload = WORKLOADS[args.workload](args.seed)
        out_path = BENCH_DIR / "out" / f"trace-{args.workload}.spans.gz"
        reps, metrics = traced_run(workload, deadline, out_path, {"workload": args.workload, "seed": args.seed})
    else:
        setups = time_setups(args.workload, args.seed)
        workload = WORKLOADS[args.workload](args.seed)
        reps = run_reps(workload, args.seconds, deadline)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(reps, setups, rss_kib)
    report(args.workload, args.seed, reps, metrics, None if args.trace else family_shares(reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
