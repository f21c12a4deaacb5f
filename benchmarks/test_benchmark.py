"""Tests of the benchmark itself, with negative controls.

    python3 -m pytest benchmarks -q

They start real benchmark runs, so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import recipes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_STATS = ("calls", "elems", "nodes", "samples")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _bench("--workload", "onoff_search", "--seed", "5", "--seconds", "1",
                  "--trace", "0")


@pytest.fixture(scope="module")
def traced_pair():
    return [_result(_bench("--workload", "mc_replay", "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"))
            for seed in (5, 6)]


def test_spec_names_what_the_benchmark_emits():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.E2E_UNITS[k] for k in run.JSON_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    result = _result(untraced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    for metric in _spec()["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    text = untraced.stdout
    for name, unit in run.E2E_UNITS.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in text.splitlines()), name


def test_every_per_layer_metric_is_emitted_and_counts_repeat(traced_pair):
    first, second = traced_pair
    for metric in _spec()["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    counts = [name for name in tracing.LAYER_METRICS
              if name.rpartition(".")[2] in COUNT_STATS]
    assert first["metrics"]["monte_carlo.simulate_policy.samples"]["value"] > 0
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.coverage"]["value"] > 0.95


def test_corrupted_policy_raises_failed_frac(tmp_path):
    task = recipes.run_recipe("verify_smoke", tmp_path / "verify_smoke",
                              extra_args=["--corrupt-lambda", "2"])
    rnd = {"setup_s": 1.0, "wall_s": task["seconds"], **run.score_recipes([task])}
    assert run.end_to_end("recipes", [rnd], [1.0])["metrics"]["failed_frac"] > 0


def _cheap_grid_round(refs):
    """A knowledge_grid round over its fast points, scored against refs."""
    calls = workloads.build_inputs("knowledge_grid", seed=0)
    names = [n for n in calls if n[0] == "N" or n[:2] == "PN"]
    tasks = [{"name": n, "seconds": 0.001,
              "output": workloads.summarize("knowledge_grid", calls[n]())}
             for n in names]
    raw = {"setup_s": 1.0, "wall_s": 0.1, "peak_rss_mb": 1.0, "tasks": tasks,
           "quad_rel_tol": 1e-7}
    rnd = run.score_worker_round("knowledge_grid", raw, refs)
    return run.end_to_end("knowledge_grid", [rnd], [1.0])["metrics"]["failed_frac"]


def test_nudged_grid_reference_raises_failed_frac():
    refs = {"knowledge_grid": workloads.load_reference("knowledge_grid")}
    assert _cheap_grid_round(refs) == 0
    ref = refs["knowledge_grid"]["PN@0dB"]
    tol = 2 * ref["err"] + max(1e-7 * abs(ref["capacity"]), 1e-12)
    ref["capacity"] += 10 * tol
    assert _cheap_grid_round(refs) > 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "knowledge_grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_self_time_excludes_children_and_handed_off_work():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.02)

    traced_leaf = rec.wrap("leaf", leaf)

    def outer():
        worker = threading.Thread(target=traced_leaf)
        worker.start()
        worker.join()
        traced_leaf()

    traced_outer = rec.wrap("outer", outer)
    with rec.task("t"):
        traced_outer()
    stats = tracing.LayerStats()
    stats.add(rec.spans)
    assert stats.calls["leaf"] == 2
    assert stats.self_s["outer"] < 0.01 < stats.self_s["leaf"]
    assert not stats.poorly_covered
