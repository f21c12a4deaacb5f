"""crcap benchmark: times a workload end to end, checks its outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crcap checkout (the package is imported from
src/, never from an installed copy). The workloads are described in
workloads.py and README.md.

A run is a sequence of rounds. Each round starts fresh processes, visits
every task of the workload once in the seed's order and checks every
output against the committed reference. New rounds start until --seconds
have passed, and the run reports
medians over rounds. With --trace 0 it prints every end-to-end metric;
with --trace 1 it runs one untraced and one traced round and prints
every per-layer metric instead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import recipes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3

# name -> unit of the end-to-end metrics, all printed. The final JSON line
# carries the gated ones: defined and nonzero on every workload, and steady
# enough from run to run on a shared 2-CPU machine (see README.md)
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "task_s.p50": "s", "task_s.max": "s",
    "samples_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "unconverged_frac": "ratio",
}
JSON_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


# ----------------------------------------------------------------------
# rounds

def worker_round(workload: str, seed: int, index: int, trace: bool,
                 out_dir: Path, setup_only: bool = False) -> dict:
    """One fresh worker interpreter: set-up, then (unless setup_only) a pass."""
    stem = f"round{index}" + ("-setup" if setup_only else "")
    result_path = out_dir / f"{stem}.json"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            str(index), "1" if trace else "0", repr(time.monotonic()),
            str(result_path)] + (["--setup-only"] if setup_only else [])
    code, _, _ = recipes.run_process(argv, out_dir / f"{stem}.log")
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with {code}; "
                           f"see {out_dir / (stem + '.log')}")
    with open(result_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if setup_only:
        return raw
    refs = {w: workloads.load_reference(w) for w in ("knowledge_grid", "onoff_search")}
    return score_worker_round(workload, raw, refs)


def score_worker_round(workload: str, raw: dict, refs: dict) -> dict:
    """Check every task output of a worker round against the references."""
    qrt = raw["quad_rel_tol"]
    rnd = {"setup_s": raw["setup_s"], "wall_s": raw["wall_s"],
           "peak_rss_mb": raw["peak_rss_mb"], "tasks": {}, "failures": {},
           "unconverged": [], "points": 0, "spans": raw.get("spans"),
           "verified_samples": 0}
    for task in raw["tasks"]:
        name, out = task["name"], task["output"]
        rnd["tasks"][name] = task["seconds"]
        bad = workloads.check_task(workload, name, out, refs, qrt)
        if bad:
            rnd["failures"][name] = bad
        if workload == "mc_replay":
            rnd["verified_samples"] += out.get("samples", 0)
        if workload == "knowledge_grid" and "error" not in out:
            rnd["points"] += 1
            if not workloads.converged(out["capacity"], out["err"], qrt):
                rnd["unconverged"].append(name)
    return rnd


def recipes_round(seed: int, index: int, trace: bool, out_dir: Path) -> dict:
    round_dir = out_dir / f"round{index}"
    round_dir.mkdir(parents=True)
    rnd = {"setup_s": recipes.import_setup_s(round_dir), "spans": []}
    order = workloads.visit_order("recipes", seed, index, recipes.recipe_names())
    results = []
    t_pass = time.perf_counter()
    for name in order:
        spans = round_dir / f"{name}.spans.json" if trace else None
        results.append(recipes.run_recipe(name, round_dir / name, spans))
        if trace:
            rnd["spans"].append(str(spans))
    rnd["wall_s"] = time.perf_counter() - t_pass
    rnd.update(score_recipes(results))
    return rnd


def score_recipes(results: list) -> dict:
    """Check every recipe's output against its snapshot."""
    rnd = {"tasks": {}, "failures": {}, "unconverged": [], "points": 0,
           "verified_samples": 0, "drift": {}, "peak_rss_mb": 0.0}
    for task in results:
        name = task["name"]
        rnd["tasks"][name] = task["seconds"]
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], task["peak_rss_mb"])
        report = recipes.check_recipe(task)
        if report["failures"]:
            rnd["failures"][name] = report["failures"]
        rnd["drift"][name] = report["drift"]
        rnd["points"] += report["points"]
        rnd["unconverged"] += [f"{name}@{x}" for x in report["unconverged"]]
        rnd["verified_samples"] += recipes.verified_samples(name)
    return rnd


def run_round(workload: str, seed: int, index: int, trace: bool, out_dir: Path) -> dict:
    if workload == "recipes":
        return recipes_round(seed, index, trace, out_dir)
    return worker_round(workload, seed, index, trace, out_dir)


def extra_setup_s(workload: str, seed: int, index: int, out_dir: Path) -> float:
    if workload == "recipes":
        return recipes.import_setup_s(out_dir)
    return worker_round(workload, seed, index, False, out_dir, setup_only=True)["setup_s"]


# ----------------------------------------------------------------------
# aggregation

def end_to_end(workload: str, rounds: list, setups: list) -> dict:
    per_task = {name: statistics.median(r["tasks"][name] for r in rounds)
                for name in rounds[0]["tasks"]}
    slowest = max(per_task, key=per_task.get)
    attempted = sum(len(r["tasks"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    points = sum(r["points"] for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "task_s.p50": statistics.median(per_task.values()),
        "task_s.max": per_task[slowest],
        "samples_per_s": (statistics.median(r["verified_samples"] / r["wall_s"]
                                            for r in rounds)
                          if workload == "mc_replay" else None),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "failed_frac": failed / attempted,
        "unconverged_frac": (sum(len(r["unconverged"]) for r in rounds) / points
                             if points else None),
    }
    return {"metrics": metrics, "slowest": slowest, "attempted": attempted,
            "failed": failed}


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    stats = tracing.LayerStats()
    paths = traced["spans"] if workload == "recipes" else [traced["spans"]]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            stats.add(json.load(fh))
    metrics = tracing.layer_metrics(stats, traced["verified_samples"],
                                    traced["wall_s"] - untraced["wall_s"])
    return {"metrics": metrics, "poorly_covered": stats.poorly_covered}


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": metadata.version("numpy"),
           "scipy": metadata.version("scipy"),
           "openblas_threads": _openblas_threads(),
           "machine": platform.machine()}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            env[f"l{level}_cache"] = size
    return env


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loads, or the env setting."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


# ----------------------------------------------------------------------
# report

def print_end_to_end(agg: dict, rounds: list, setups: list) -> None:
    m = agg["metrics"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "wall_s": f"median of {len(rounds)} rounds",
        "task_s.p50": f"median over {len(rounds[0]['tasks'])} tasks",
        "task_s.max": f"slowest task: {agg['slowest']}",
        "failed_frac": f"{agg['failed']} of {agg['attempted']} tasks attempted",
    }
    if m["unconverged_frac"] is not None:
        names = sorted({n for r in rounds for n in r["unconverged"]})
        notes["unconverged_frac"] = "unconverged: " + (", ".join(names) or "none")
    print("end-to-end metrics:")
    for name, unit in E2E_UNITS.items():
        value = m[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<17} {shown:>12} {unit:<6} {notes.get(name, '')}".rstrip())


def print_failures(rounds: list) -> None:
    for index, rnd in enumerate(rounds):
        for name, reasons in sorted(rnd["failures"].items()):
            for reason in reasons:
                print(f"FAILED round {index} {name}: {reason}")


def print_drift(rounds: list) -> None:
    """Largest absolute and relative drift per recipe column, all rounds."""
    print("recipe drift against the snapshot, per column (max abs / max rel):")
    merged = {}
    for rnd in rounds:
        for name, columns in rnd["drift"].items():
            for column, (dabs, drel) in columns.items():
                old = merged.setdefault(name, {}).get(column, (0.0, 0.0))
                merged[name][column] = (max(old[0], dabs), max(old[1], drel))
    for name, columns in sorted(merged.items()):
        shown = ", ".join(
            f"{c} {int(a)} rows changed" if c == "regime" else f"{c} {a:.3g}/{r:.3g}"
            for c, (a, r) in sorted(columns.items()))
        print(f"  {name}: {shown}")


def print_layers(layers: dict) -> None:
    print("per-layer metrics (traced round):")
    for name, value in layers["metrics"].items():
        print(f"  {name:<58} {value:>14.6g} {tracing.LAYER_METRICS[name]}")
    for label, wall, covered in layers["poorly_covered"]:
        print(f"  note: layer spans cover {covered:.4g} s of task {label} ({wall:.4g} s)")


# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/crcap/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a crcap checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    out_dir = OUT_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment()
    print(f"crcap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    rounds = []
    if args.trace:
        rounds = [run_round(args.workload, args.seed, i, i == 1, out_dir) for i in (0, 1)]
    else:
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start < args.seconds:
            rounds.append(run_round(args.workload, args.seed, len(rounds), False, out_dir))
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(extra_setup_s(args.workload, args.seed, len(setups), out_dir))

    agg = end_to_end(args.workload, rounds, setups)
    print_failures(rounds)
    if args.workload == "recipes":
        print_drift(rounds)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "rounds": len(rounds),
              "task_s": {n: [r["tasks"][n] for r in rounds] for n in rounds[0]["tasks"]}}
    if args.trace:
        layers = per_layer(args.workload, rounds[0], rounds[1])
        print_layers(layers)
        result["per_layer"] = layers["metrics"]
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                   for k, v in layers["metrics"].items()}
    else:
        print_end_to_end(agg, rounds, setups)
        result["end_to_end"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                                for k, v in agg["metrics"].items()}
        result["slowest_task"] = agg["slowest"]
        metrics = {k: result["end_to_end"][k] for k in JSON_METRICS}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": agg["failed"] == 0, "attempted": agg["attempted"],
                      "failed": agg["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
