"""The benchmark's workloads: fixed scenario sets, their inputs and checks.

Every workload is a closed loop with one caller in one process: the next
task starts when the previous one returns. The seed shuffles the order in
which tasks are visited (so an order-dependent cache or warm start shows
up) and sets the Monte Carlo seeds; the scenario set itself is fixed, so
every round does the same work.

The in-process workloads (knowledge_grid, onoff_search, mc_replay) run in
a fresh worker interpreter per round, see worker.py. The recipes workload
starts one CLI process per recipe, see recipes.py.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

I_PEAK = 10.0
EPSILON = 0.05
ALPHA = 0.5
GRID_BUDGETS_DB = (-10.0, 0.0, 10.0, 13.0)
ONOFF_TASKS = (("PN", 0.0), ("PP", 0.0), ("PP", 10.0), ("PE", 0.0))
MC_CODES = ("PP", "PE", "EP", "EE", "EN", "NN")
MC_BUDGET_DB = 0.0
MC_SAMPLES = 1_000_000

# every workload the command runs; BENCHMARK.json lists the ones gated on
# each change (mc_replay runs on demand, see README.md)
WORKLOADS = ("knowledge_grid", "onoff_search", "mc_replay", "recipes")


def tasks(workload: str) -> dict:
    """Task name -> (knowledge code, p_avg in dB) of an in-process workload."""
    if workload == "knowledge_grid":
        points = [(a + b, p) for a in "PEN" for b in "PEN" for p in GRID_BUDGETS_DB]
    elif workload == "onoff_search":
        points = ONOFF_TASKS
    elif workload == "mc_replay":
        points = [(code, MC_BUDGET_DB) for code in MC_CODES]
    else:
        raise ValueError(f"not an in-process workload: {workload!r}")
    return {f"{code}@{p:g}dB": (code, p) for code, p in points}


def visit_order(workload: str, seed: int, round_index: int, names) -> list:
    """The seed's shuffle of the task names for one round."""
    order = list(names)
    random.Random(f"{workload}:{seed}:{round_index}").shuffle(order)
    return order


def mc_seed(seed: int, name: str) -> int:
    """Monte Carlo seed of one mc_replay task under a workload seed."""
    return (seed * 1_000_003 + list(tasks("mc_replay")).index(name)) % 2**32


def scenario(code: str, p_avg_db: float, *, i_peak: float = I_PEAK,
             epsilon: float = EPSILON, alpha_direct: float = ALPHA,
             alpha_cross: float = ALPHA):
    """ScenarioConfig for a knowledge code such as "EP" (direct, cross)."""
    import crcap

    def csi(letter: str, alpha: float):
        if letter == "P":
            return crcap.CsiKnowledge.perfect()
        if letter == "E":
            return crcap.CsiKnowledge.estimated(alpha)
        if letter == "N":
            return crcap.CsiKnowledge.no_csi()
        raise ValueError(f"unknown knowledge letter {letter!r}")

    return crcap.ScenarioConfig(
        sl_csi=csi(code[0], alpha_direct), cl_csi=csi(code[1], alpha_cross),
        p_avg=10.0 ** (p_avg_db / 10.0), i_peak=i_peak, epsilon=epsilon)


def converged(value: float, err: float, quad_rel_tol: float) -> bool:
    return err <= max(quad_rel_tol * abs(value), 1e-12)


def within(value: float, ref: float, tol: float) -> bool:
    """value matches ref to tol; equal infinities match, NaN never does."""
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= tol


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_task(workload: str, name: str, out: dict, refs: dict,
               quad_rel_tol: float) -> list:
    """Reasons the output of one in-process task is wrong; empty if right.

    A value passes when it lies within both reported error estimates plus
    quad_rel_tol * |ref| of its reference. mc_replay applies the CLI verify
    command's tolerances to the Monte Carlo replay and also holds the
    quadrature capacity it replays against to the knowledge_grid reference.
    """
    if "error" in out:
        return [f"raised {out['error']}"]
    values = [v for v in out.values() if isinstance(v, float)]
    if any(math.isnan(v) for v in values):
        return ["returned NaN"]
    bad = []
    if workload in ("knowledge_grid", "mc_replay"):
        ref = refs["knowledge_grid"][name]
        tol = out["err"] + ref["err"] + max(quad_rel_tol * abs(ref["capacity"]), 1e-12)
        if not within(out["capacity"], ref["capacity"], tol):
            bad.append(f"capacity {out['capacity']!r} vs reference "
                       f"{ref['capacity']!r} (tolerance {tol:.3g})")
    if workload == "onoff_search":
        ref = refs["onoff_search"][name]
        tol = max(quad_rel_tol * abs(ref["rate"]), 1e-12)
        if not within(out["rate"], ref["rate"], tol):
            bad.append(f"on-off rate {out['rate']!r} vs reference "
                       f"{ref['rate']!r} (tolerance {tol:.3g})")
    if workload == "mc_replay":
        rate_tol = 3.0 * out["rate_ci"] + out["err"]
        if abs(out["empirical_rate"] - out["capacity"]) > rate_tol:
            bad.append("empirical rate misses the quadrature capacity")
        p_avg = out["p_avg"]
        if out["regime"] == "power_limited":
            power_tol = 3.0 * out["power_ci"] + p_avg * out["lambda_rel_tol"]
            power_ok = abs(out["empirical_avg_power"] - p_avg) <= power_tol
        else:
            power_ok = out["empirical_avg_power"] <= p_avg + 3.0 * out["power_ci"]
        if not power_ok:
            bad.append("average power misses the budget")
        if not out["outage_ok"]:
            bad.append("interference outage exceeds epsilon")
    return bad


# ----------------------------------------------------------------------
# worker side: inputs and the timed calls (crcap is importable here)

def build_inputs(workload: str, seed: int) -> dict:
    """Task name -> zero-argument call. Everything here counts as set-up.

    For mc_replay that includes solving each policy and computing its
    quadrature capacity, in the order the CLI verify command does them.
    The calls look crcap names up when they run, so a tracer installed
    after set-up sees them.
    """
    import crcap

    calls = {}
    for name, (code, p_avg_db) in tasks(workload).items():
        cfg = scenario(code, p_avg_db)
        if workload == "knowledge_grid":
            calls[name] = (lambda c=cfg: crcap.ergodic_capacity(c))
        elif workload == "onoff_search":
            calls[name] = (lambda c=cfg: crcap.optimize_threshold(c))
        else:
            result = crcap.ergodic_capacity(cfg)
            policy = crcap.solve_lambda(cfg)
            calls[name] = _replay_call(cfg, policy, result, mc_seed(seed, name))
    return calls


def _replay_call(cfg, policy, result, seed: int):
    import crcap

    def replay():
        report = crcap.simulate_policy(policy, cfg, MC_SAMPLES, seed, threads=1)
        outage_ok, _ = crcap.verify_outage(policy, cfg, MC_SAMPLES, seed, threads=1)
        return cfg, policy, result, report, outage_ok

    return replay


def summarize(workload: str, raw) -> dict:
    """JSON-ready numbers from what a timed call returned."""
    if workload == "knowledge_grid":
        return {"capacity": float(raw.capacity),
                "err": float(raw.quadrature_error_estimate),
                "regime": raw.regime, "lam": float(raw.lam)}
    if workload == "onoff_search":
        tau, rate = raw
        return {"tau": float(tau), "rate": float(rate)}
    cfg, policy, result, report, outage_ok = raw
    return {"capacity": float(result.capacity),
            "err": float(result.quadrature_error_estimate),
            "regime": policy.regime, "p_avg": float(cfg.p_avg),
            "lambda_rel_tol": float(cfg.numerics.lambda_rel_tol),
            "empirical_rate": float(report.empirical_rate),
            "rate_ci": float(report.rate_ci),
            "empirical_avg_power": float(report.empirical_avg_power),
            "power_ci": float(report.power_ci),
            "outage_ok": bool(outage_ok), "samples": MC_SAMPLES}
