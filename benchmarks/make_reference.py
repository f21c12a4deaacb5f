"""Regenerate the committed reference outputs under reference/.

    python3 benchmarks/make_reference.py

Writes the knowledge_grid capacities with their error estimates, the
onoff_search thresholds and rates, and a snapshot of every recipe's
output (timings never go into it). Run it only when a change to the
outputs has been explained; the benchmark compares every run against
these files.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import recipes  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ref_dir = workloads.REFERENCE_DIR
    snap_dir = recipes.SNAPSHOT_DIR
    snap_dir.mkdir(parents=True, exist_ok=True)
    for workload in ("knowledge_grid", "onoff_search"):
        calls = workloads.build_inputs(workload, seed=0)
        ref = {}
        for name, call in calls.items():
            out = workloads.summarize(workload, call())
            ref[name] = ({"capacity": out["capacity"], "err": out["err"]}
                         if workload == "knowledge_grid"
                         else {"tau": out["tau"], "rate": out["rate"]})
        with open(ref_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {ref_dir / (workload + '.json')}")

    work = HERE.parent / ".bench_out" / "reference"
    for name in recipes.recipe_names():
        task = recipes.run_recipe(name, work / name)
        if task["exit_code"] != 0:
            print(f"error: recipe {name} exited with {task['exit_code']}", file=sys.stderr)
            return 1
        is_verify = recipes.command_of(name) == "verify"
        produced = "verify.jsonl" if is_verify else f"{recipes.command_of(name)}.csv"
        target = snap_dir / (f"{name}.jsonl" if is_verify else f"{name}.csv")
        shutil.copyfile(work / name / produced, target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
