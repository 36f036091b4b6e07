"""Outside-in tracing of the eight tambara modules for the traced run.

``Tracer.install`` wraps every public function of each module, and the
public methods and arithmetic operators of its public classes, in a span
recorder.  Each wrapper is rebound under the original name in the
defining module and in every tambara module that imported the name, so
``burnside.divisors`` and ``ideals.divisors`` both go through the
``lattice.divisors`` wrapper, and module-global lookups such as
``intlattice.hnf`` calling ``xgcd`` are seen too.  Nothing under ``src/``
changes; ``Tracer.uninstall`` puts every original back.

A span is (name, parent span, start, end), times in perf_counter ns.
Spans are kept in four compact arrays in memory (22 bytes a span) and
written out by ``Tracer.write`` after the run.  A span's self time is
its duration minus the time its direct child spans cover; a module's
self time sums the self times of its spans.

A wrapper costs about a microsecond a call, which is more than many of
the functions it wraps (``lattice.o_p``, ``spectrum.contains``), so raw
self times would mostly measure the tracer.  ``wrapper_cost_ns`` times
a wrapped no-op to find what a wrapper adds between its two clock reads
(charged to the span itself) and around them (charged to its parent),
and ``Summary`` subtracts both from every span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("lattice", "burnside", "maps", "gsets", "intlattice", "ideals", "spectrum", "cli")
ARITHMETIC = {"__add__": "add", "__sub__": "sub", "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul"}
ROOT_SPAN = "bench.task"
COLUMNS = ("span_name", "parent", "start", "end")
CALIBRATION_CALLS = 20_000
CALIBRATION_TRIALS = 7


def _norm_out_bits(stats, args, result):
    bits = max((abs(m).bit_length() for m in result.coeffs.values()), default=0)
    stats["maps.norm.max_out_bits"] = max(stats["maps.norm.max_out_bits"], bits)


def _xgcd_arg_bits(stats, args, result):
    bits = max(abs(args[0]).bit_length(), abs(args[1]).bit_length())
    stats["intlattice.xgcd.max_arg_bits"] = max(stats["intlattice.xgcd.max_arg_bits"], bits)


def _cli_errors(stats, args, result):
    stats["cli.errors"] += result != 0


def _pairs_found(stats, args, result):
    stats["ideals.primality_probe.pairs_found"] += len(result)


# Counters kept at a span boundary beside the call count and the times.
OBSERVERS = {
    "maps.norm": _norm_out_bits,
    "intlattice.xgcd": _xgcd_arg_bits,
    "cli.run": _cli_errors,
    "ideals.primality_probe": _pairs_found,
}


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """Span recorder for one traced run; install, run, uninstall, summarize."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.stats: Counter = Counter()
        self.raised: Counter = Counter()
        self._caches: dict[str, tuple] = {}
        self.cache_hits: dict[str, tuple[int, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A function that records one span named ``name`` per call to fn."""
        sid = self._span_id(name)
        observe = OBSERVERS.get(name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(tracer.current)
            ends.append(0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if observe is not None:
                observe(tracer.stats, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def call(self, fn):
        """Run fn() as a root span, so the spans of one task share a root."""
        return self.wrap(ROOT_SPAN, fn)()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("tambara")
        modules = {short: importlib.import_module(f"tambara.{short}") for short in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}

        def wrapped(name, fn):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
                if hasattr(fn, "cache_info"):
                    self._caches[name] = (fn, fn.cache_info())
            return wrappers[id(fn)][1]

        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_function(obj):
                    wrapped(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj, wrapped)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_methods(self, short: str, cls: type, wrapped) -> None:
        for attr, raw in list(vars(cls).items()):
            label = ARITHMETIC.get(attr, attr)
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{short}.{cls.__name__}.{label}"
            if isinstance(raw, types.FunctionType):
                self._set(cls, attr, wrapped(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(wrapped(name, raw.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            self.cache_hits[name] = (after.hits - before.hits, after.misses - before.misses)

    def write(self, path, meta: dict) -> None:
        """Write every span: a gzip'd JSON header line, then the raw columns."""
        header = dict(
            meta,
            names=self.names,
            spans=len(self.start),
            byteorder=sys.byteorder,
            columns=[[col, getattr(self, col).typecode] for col in COLUMNS],
        )
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                getattr(self, col).tofile(out)


def read_trace(path) -> tuple[dict, dict[str, array]]:
    """The header and the columns of a file written by ``Tracer.write``."""
    with gzip.open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for col, code in header["columns"]:
            columns[col] = array(code)
            columns[col].frombytes(src.read(columns[col].itemsize * header["spans"]))
            if header["byteorder"] != sys.byteorder:
                columns[col].byteswap()
    return header, columns


def wrapper_cost_ns() -> tuple[float, float]:
    """(inside, outside): ns a wrapper adds to a call between its own
    clock reads, and around them; the median of several timings.
    The no-op takes two arguments, as most of the wrapped functions do."""

    def noop(a, b):
        pass

    def loop(fn):
        for _ in range(CALIBRATION_CALLS):
            fn(1, 2)

    def empty():
        for _ in range(CALIBRATION_CALLS):
            pass

    clock = time.perf_counter_ns
    inside, outside = [], []
    for _ in range(CALIBRATION_TRIALS):
        probe = Tracer()
        wrapped = probe.wrap("noop", noop)
        t0 = clock()
        empty()
        t1 = clock()
        loop(noop)
        t2 = clock()
        probe.call(lambda: loop(wrapped))
        raw_call = (t2 - t1 - (t1 - t0)) / CALIBRATION_CALLS
        traced = probe.end[0] - probe.start[0]
        covered = sum(probe.end[1:]) - sum(probe.start[1:])
        inside.append(covered / CALIBRATION_CALLS - raw_call)
        outside.append((traced - (t2 - t1)) / CALIBRATION_CALLS - inside[-1])
    return statistics.median(inside), statistics.median(outside)


class Summary:
    """Per-span-name call counts and times, and the counters, of one trace.

    Self times have the wrapper's cost taken off (``wrapper_cost_ns``);
    a span name's total is not let below zero.
    """

    def __init__(self, tracer: Tracer, cost_ns: tuple[float, float]):
        starts, ends, parents = tracer.start, tracer.end, tracer.parent
        inside, outside = cost_ns
        child = array("q", bytes(8 * len(starts)))
        children = array("l", bytes(array("l").itemsize * len(starts)))
        for idx, par in enumerate(parents):
            if par >= 0:
                child[par] += ends[idx] - starts[idx]
                children[par] += 1
        calls = [0] * len(tracer.names)
        self_ns = [0.0] * len(tracer.names)
        for idx, sid in enumerate(tracer.span_name):
            calls[sid] += 1
            self_ns[sid] += ends[idx] - starts[idx] - child[idx] - inside - outside * children[idx]
        self.calls = Counter(dict(zip(tracer.names, calls)))
        self.self_ns = Counter({name: max(ns, 0.0) for name, ns in zip(tracer.names, self_ns)})
        self.stats = tracer.stats
        self.raised = tracer.raised
        self.cache_hits = tracer.cache_hits
        self.spans = len(starts)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e9

    def hit_ratio(self, name: str) -> float:
        hits, misses = self.cache_hits.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def refusal_ratio(self, name: str, exc: str) -> float:
        calls = self.calls[name]
        return self.raised[name, exc] / calls if calls else 0.0


def _calls(span):
    return lambda s: s.calls[span]


# (metric, unit, value from a Summary).  The run docstring says which
# end-to-end metric each one should move, and on which workload.
LAYER_METRICS = [
    ("lattice.divisors.calls", "count", _calls("lattice.divisors")),
    ("lattice.self_s", "s", lambda s: s.module_self_s("lattice")),
    ("burnside.mark.calls", "count", _calls("burnside.BurnsideElement.mark")),
    ("burnside.mul.calls", "count", _calls("burnside.BurnsideElement.mul")),
    ("burnside.unghost.calls", "count", _calls("burnside.unghost")),
    ("burnside.self_s", "s", lambda s: s.module_self_s("burnside")),
    ("maps.norm.calls", "count", _calls("maps.norm")),
    ("maps.norm.self_s", "s", lambda s: s.self_s("maps.norm")),
    ("maps.norm.max_out_bits", "bit", lambda s: s.stats["maps.norm.max_out_bits"]),
    ("maps.restrict.calls", "count", _calls("maps.restrict")),
    ("maps.self_s", "s", lambda s: s.module_self_s("maps")),
    ("gsets.map_set.calls", "count", _calls("gsets.map_set")),
    ("gsets.self_s", "s", lambda s: s.module_self_s("gsets")),
    ("gsets.budget_refusals", "ratio", lambda s: s.refusal_ratio("gsets.map_set", "BudgetExceeded")),
    ("intlattice.hnf.calls", "count", _calls("intlattice.hnf")),
    ("intlattice.hnf.self_s", "s", lambda s: s.self_s("intlattice.hnf")),
    ("intlattice.xgcd.calls", "count", _calls("intlattice.xgcd")),
    ("intlattice.xgcd.max_arg_bits", "bit", lambda s: s.stats["intlattice.xgcd.max_arg_bits"]),
    ("intlattice.in_row_span.calls", "count", _calls("intlattice.in_row_span")),
    ("intlattice.self_s", "s", lambda s: s.module_self_s("intlattice")),
    ("ideals.kernel_lattice.calls", "count", _calls("ideals.kernel_lattice")),
    ("ideals.kernel_lattice.hit_ratio", "ratio", lambda s: s.hit_ratio("ideals.kernel_lattice")),
    ("ideals.from_rows.self_s", "s", lambda s: s.self_s("ideals.LevelLattice.from_rows")),
    ("ideals.primality_probe.self_s", "s", lambda s: s.self_s("ideals.primality_probe")),
    ("ideals.primality_probe.pairs_found", "count", lambda s: s.stats["ideals.primality_probe.pairs_found"]),
    ("ideals.self_s", "s", lambda s: s.module_self_s("ideals")),
    ("spectrum.contains.calls", "count", _calls("spectrum.contains")),
    ("spectrum.contains_semantic.self_s", "s", lambda s: s.self_s("spectrum.contains_semantic")),
    ("spectrum.enumerate_spectrum.self_s", "s", lambda s: s.self_s("spectrum.enumerate_spectrum")),
    ("spectrum.hasse_edges.self_s", "s", lambda s: s.self_s("spectrum.hasse_edges")),
    ("spectrum.self_s", "s", lambda s: s.module_self_s("spectrum")),
    ("cli.run.calls", "count", _calls("cli.run")),
    ("cli.errors", "count", lambda s: s.stats["cli.errors"]),
    ("cli.self_s", "s", lambda s: s.module_self_s("cli")),
    ("trace.spans", "count", lambda s: s.spans),
]
