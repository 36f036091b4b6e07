"""Run every workload over ten seeds and record the numbers.

    python3 bench/record.py --label seed

For each workload of ``BENCHMARK.json`` this runs ``bench/run.py
--trace 0`` once per seed (1..10) for the ``run_seconds`` given there,
and ``--trace 1`` once (seed 1), then writes ``bench/BENCH_<label>.json``:
every end-to-end value with its median, quartiles and spread
((q3 - q1) / median, quartiles as ``statistics.quantiles(values, n=4)``
gives them), the median share of wall_s of each task family, the
per-layer values of the traced run, the task counts, the git commit
when there is one, and the Python version, CPU model and ``nproc`` of
the machine.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import FAMILY_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and its family shares (empty when traced)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    shares = [json.loads(line[len(FAMILY_PREFIX):]) for line in lines if line.startswith(FAMILY_PREFIX)]
    return json.loads(lines[-1]), (shares[0] if shares else {})


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=BENCH_DIR.parent,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    doc = {
        "label": args.label,
        "commit": commit(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, shares = zip(*(bench(workload, seed, 0) for seed in SEEDS))
        traced, _ = bench(workload, 1, 1)
        names = runs[0]["metrics"]
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                name: dict(unit=names[name]["unit"], **spread([r["metrics"][name]["value"] for r in runs]))
                for name in names
            },
            "family_shares": {
                family: statistics.median(s.get(family, 0.0) for s in shares) for family in shares[0]
            },
            "per_layer": traced["metrics"],
        }
        for name, row in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:8s} {name:14s} median {row['median']:10.4g} {row['unit']:4s} "
                  f"spread {row['spread']:.3f}", flush=True)
    out = BENCH_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
