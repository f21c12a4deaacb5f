"""Every checked-in recipe under configs/ must replay cleanly.

The filename prefix up to the first underscore names the subcommand, so
adding a recipe file is enough to get it exercised here. Each output must
also pass the benchmark's snapshot check (benchmarks/recipes.py).
"""

import json
import os

import pytest
from recipes import check_recipe

from crcap import power_allocation
from crcap.cli import EXIT_OK, main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

RECIPES = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".ini"))


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return header, data[0].split(","), data[1:]


def test_recipe_directory_is_nonempty():
    assert len(RECIPES) >= 5


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_replays(name, tmp_path):
    command = name.split("_", 1)[0]
    cfg = os.path.join(CONFIG_DIR, name)
    out = str(tmp_path)
    rc = main([command, "--config", cfg, "--out", out, "--threads", "4"])
    assert rc == EXIT_OK
    # the benchmark's gate: every checked column against its snapshot
    report = check_recipe({"name": name[:-len(".ini")], "out_dir": out, "exit_code": rc})
    assert report["failures"] == []

    if command == "verify":
        with open(os.path.join(out, "verify.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(ln) for ln in fh if ln.strip()]
        assert records and all(r["pass"] for r in records)
        return

    header, columns, rows = _read_rows(os.path.join(out, f"{command}.csv"))
    assert any("crcap" in h for h in header)
    assert len(rows) >= 1
    for row in rows:
        vals = row.split(",")
        assert len(vals) == len(columns)
        float(vals[0])

    plot = os.path.join(out, f"{command}_plot.py")
    assert os.path.exists(plot)
    with open(plot, encoding="utf-8") as fh:
        compile(fh.read(), plot, "exec")


@pytest.mark.parametrize("name", ["capacity_budget_estimated", "capacity_outage_tolerance",
                                  "verify_smoke"])
def test_recipe_output_bytes_do_not_depend_on_threads(name, tmp_path):
    # from empty memos each time: capacity_budget_estimated's workers read
    # the memos its first point filled, capacity_outage_tolerance builds a
    # cap table per point, and verify_smoke's shards run in workers
    outputs = []
    for threads in ("1", "2"):
        for memo in (power_allocation._sl_grid, power_allocation._budget_series,
                     power_allocation._cap_table):
            memo.cache_clear()
        out = tmp_path / threads
        assert main([name.split("_", 1)[0], "--config", os.path.join(CONFIG_DIR, f"{name}.ini"),
                     "--out", str(out), "--threads", threads]) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.suffix in (".csv", ".jsonl")})
    assert outputs[0] and outputs[0] == outputs[1]
