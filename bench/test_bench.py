"""Smoke test of the benchmark harness on tiny workloads.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from spans import LAYERS, read_trace  # noqa: E402
from tambara import ideals, lattice, spectrum  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "lattice": partial(workloads.lattice_workload, levels=(6, 12)),
    "probe": partial(workloads.probe_workload, levels=(6,), family=((6, 1, 2), (6, 1, 3)), family_bound=2),
    "cli": partial(workloads.cli_workload, spectra=[(12, "dot"), (12, "json"), (60, "table")],
                   dresses=[(60, "json")], repeat=1),
}


def deadline():
    return time.perf_counter() + 60


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY) == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_is_emitted(name):
    reps = run.run_reps(TINY[name](seed=3), seconds=0.01, deadline=deadline())
    metrics = run.end_to_end(reps, [0.1, 0.2], rss_kib=20480)
    result = run.result_line(reps, metrics)
    assert [f for rep in reps for f in rep.failures] == []
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_every_per_layer_metric_is_emitted(name, tmp_path):
    path = tmp_path / "trace.spans.gz"
    reps, metrics = run.traced_run(TINY[name](seed=5), deadline(), path, {"workload": name})
    result = run.result_line(reps, metrics)
    assert result["correct"], [f for rep in reps for f in rep.failures]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layer_self_s = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0 < layer_self_s <= reps[-1].wall_s
    hnf_calls = result["metrics"]["intlattice.hnf.calls"]["value"]
    assert (hnf_calls > 0) == (name == "lattice")
    header, columns = read_trace(path)
    assert header["workload"] == name and len(columns["start"]) == header["spans"] > 0
    assert all(s <= e for s, e in zip(columns["start"], columns["end"]))
    assert not hasattr(lattice.divisors, "__wrapped__"), "the tracer must restore every original"


def test_wrong_answer_raises_fail_frac(monkeypatch):
    workload = TINY["lattice"](seed=1)
    real = spectrum.contains
    monkeypatch.setattr(spectrum, "contains", lambda a, b: not real(a, b))
    result = run.result_line([run.run_rep(workload, deadline())], {})
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


def test_task_over_budget_is_a_named_failure():
    def spin():
        while True:
            pass

    probe = partial(ideals.primality_probe, ideals.IdealSpec(6, 6, 0), bound=1)
    tasks = [
        workloads.Task("tiny budget", probe, 1e-6),
        workloads.Task("spin", spin, 0.05),
        workloads.Task("fits", probe, 30.0),
    ]
    workload = workloads.Workload("budget", tasks, lambda index, answer: None)
    start = time.perf_counter()
    rep = run.run_rep(workload, deadline())
    assert time.perf_counter() - start < 5
    assert [f.split(":")[0] for f in rep.failures] == ["tiny budget", "spin"]
    assert len(rep.task_s) == 3


def test_setup_is_timed_in_a_fresh_interpreter():
    (elapsed,) = run.time_setups("probe", seed=1, samples=1)
    assert 0 < elapsed < 60


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
