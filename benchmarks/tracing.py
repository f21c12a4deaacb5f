"""Span recorder wrapped around crcap's public functions, from outside.

install() rebinds each traced function in every crcap module namespace
that holds it (the defining module, the modules that imported it by name
and the package itself), so calls between crcap modules pass through the
wrapper too. Nothing under src/ changes. Spans stay in memory until
dump() writes them out.

A span is [id, parent, name, start, end, counts, key]. A span opened in
a thread other than the one running the task (a CLI or Monte Carlo
thread pool) gets as parent the span the task's thread is in at that
moment, i.e. the call that handed the work off and waits for it.

Run as a script, this module is the traced form of `python -m crcap.cli`:

    python tracing.py SPANS_JSON <crcap cli arguments...>
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _bsize(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _nodes(args, kwargs, result):
    return {"nodes": int(np.size(result[0]))} if result is not None else {}


def _elems(first, second=None):
    """Counter for the broadcast size of one or two array arguments."""
    def count(args, kwargs, result):
        arrays = [_arg(args, kwargs, 0, first)]
        if second is not None:
            arrays.append(_arg(args, kwargs, 1, second))
        return {"elems": _bsize(*arrays)}
    return count


def _policy_samples(args, kwargs, result):
    # args[0] is the policy itself
    states = [_arg(args, kwargs, 1, "sl_state"), _arg(args, kwargs, 2, "cl_state")]
    return {"samples": max([int(np.size(s)) for s in states if s is not None] or [1])}


def _cap_key(args, kwargs, result):
    # _CapField(csi, i_peak, epsilon, settings): only estimated cross-link
    # knowledge tabulates a cap table
    csi = _arg(args, kwargs, 1, "csi")
    if getattr(csi, "alpha", None) is None:
        return None
    return "|".join(repr(_arg(args, kwargs, i, n)) for i, n in
                    ((1, "csi"), (2, "i_peak"), (3, "epsilon"), (4, "settings")))


# (module, attribute path, counter); the span name drops the "crcap." prefix
TARGETS = (
    ("crcap.special_functions", "marcum_q1", _elems("a", "b")),
    ("crcap.special_functions", "bessel_i0_log", _elems("x")),
    ("crcap.special_functions", "exp_integral_e1", _elems("x")),
    ("crcap.quadrature", "panel_rule", _nodes),
    ("crcap.quadrature", "panel_rule_batch", _nodes),
    ("crcap.fading", "conditional_power_inv_cdf", _elems("p", "m")),
    ("crcap.fading", "conditional_power_cdf", None),
    ("crcap.fading", "conditional_power_pdf", _elems("g", "m")),
    ("crcap.fading", "sample_channel_pair",
     lambda a, k, r: {"samples": int(_arg(a, k, 2, "n"))}),
    ("crcap.power_allocation", "solve_lambda", None),
    ("crcap.power_allocation", "average_power_threshold", None),
    ("crcap.power_allocation", "PowerPolicy.power", _policy_samples),
    ("crcap.power_allocation", "_CapField.__init__", None),
    ("crcap.capacity", "ergodic_capacity", None),
    ("crcap.capacity", "low_budget_asymptote", None),
    ("crcap.capacity", "high_budget_asymptote", None),
    ("crcap.onoff", "optimize_threshold", None),
    ("crcap.onoff", "onoff_rate", None),
    ("crcap.monte_carlo", "simulate_policy",
     lambda a, k, r: {"samples": int(_arg(a, k, 2, "n_samples"))}),
    ("crcap.monte_carlo", "verify_outage", None),
    ("crcap.cli", "main", None),
    ("crcap.cli", "load_config", None),
)
CAP_SPAN = "power_allocation._CapField"
TASK_SPAN = "task"


class Recorder:
    """Collects spans in memory; one recorder per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_stack = None
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        task = self._task_stack
        if task is None or task is stack:
            return None
        try:
            return task[-1]
        except IndexError:  # the task thread closed its span meanwhile
            return None

    def wrap(self, name: str, fn, counter=None, keyer=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = rec._parent(stack)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter else None
                key = keyer(args, kwargs, result) if keyer else None
                rec.spans.append([sid, parent, name, t0 - rec.origin,
                                  t1 - rec.origin, counts, key])

        return traced

    @contextmanager
    def task(self, label: str):
        """Span around one benchmark task, opened in the calling thread."""
        stack = self._stack()
        self._task_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append([sid, None, TASK_SPAN, t0 - self.origin,
                               t1 - self.origin, None, label])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Wrap every target in every loaded crcap module that binds it.

    A target missing from the code under test is skipped; its metrics
    then read 0.
    """
    import crcap.cli  # noqa: F401  (load every crcap module first)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "crcap" or n.startswith("crcap."))]
    for module_name, path, counter in TARGETS:
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        short = module_name.split(".", 1)[1]
        if path == "_CapField.__init__":
            wrapper = recorder.wrap(CAP_SPAN, original, keyer=_cap_key)
        else:
            wrapper = recorder.wrap(f"{short}.{path}", original, counter)
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


# ----------------------------------------------------------------------
# aggregation

class LayerStats:
    """Per-span-name totals accumulated over one or more span files."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.cap_keys = []
        self.quad_calls_in_solve = 0
        self.task_s = 0.0
        self.covered_s = 0.0
        self.poorly_covered = []

    def add(self, spans) -> None:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        for sid, parent, name, t0, t1, counts, key in spans:
            covered = _union_length(children.get(sid, ()))
            if name == TASK_SPAN:
                self.task_s += t1 - t0
                self.covered_s += covered
                # within each task the layer spans account for its wall time
                if (t1 - t0) - covered > max(0.05 * (t1 - t0), 1e-3):
                    self.poorly_covered.append((key, t1 - t0, covered))
                continue
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += max(t1 - t0 - covered, 0.0)
            for k, v in (counts or {}).items():
                self.counts[name][k] += v
            if name == CAP_SPAN and key is not None:
                self.cap_keys.append(key)
            if name in ("quadrature.panel_rule", "quadrature.panel_rule_batch"):
                up = parent
                while up is not None:
                    if by_id[up][2] == "power_allocation.solve_lambda":
                        self.quad_calls_in_solve += 1
                        break
                    up = by_id[up][1]


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric name -> unit; every traced run emits all of them, 0 where a
# workload never reaches the layer
LAYER_METRICS = {}
for _fn, _stats in (
    ("special_functions.marcum_q1", ("calls", "elems", "self_s")),
    ("special_functions.bessel_i0_log", ("calls", "elems", "self_s")),
    ("special_functions.exp_integral_e1", ("calls", "elems", "self_s")),
    ("quadrature.panel_rule", ("calls", "nodes", "self_s")),
    ("quadrature.panel_rule_batch", ("calls", "nodes", "self_s")),
    ("fading.conditional_power_inv_cdf", ("calls", "elems", "self_s")),
    ("fading.conditional_power_cdf", ("calls", "self_s")),
    ("fading.conditional_power_pdf", ("calls", "elems", "self_s")),
    ("fading.sample_channel_pair", ("calls", "samples", "self_s")),
    ("power_allocation.solve_lambda", ("calls", "self_s", "total_s")),
    ("power_allocation.average_power_threshold", ("calls", "self_s")),
    ("power_allocation.PowerPolicy.power", ("calls", "samples", "self_s")),
    ("capacity.ergodic_capacity", ("calls", "self_s", "total_s")),
    ("capacity.low_budget_asymptote", ("calls", "self_s")),
    ("capacity.high_budget_asymptote", ("calls", "self_s")),
    ("onoff.optimize_threshold", ("calls", "self_s", "total_s")),
    ("onoff.onoff_rate", ("calls", "self_s")),
    ("monte_carlo.simulate_policy", ("calls", "samples", "self_s", "total_s")),
    ("monte_carlo.verify_outage", ("calls", "self_s", "total_s")),
    ("cli.main", ("calls", "self_s", "total_s")),
    ("cli.load_config", ("calls", "self_s")),
):
    for _stat in _stats:
        LAYER_METRICS[f"{_fn}.{_stat}"] = "s" if _stat.endswith("_s") else "count"
LAYER_METRICS.update({
    "power_allocation.solve_lambda.quad_calls_per_solve": "calls/solve",
    "power_allocation.cap_builds_per_config": "builds/config",
    "monte_carlo.drawn_per_verified_sample": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
})


def layer_metrics(stats: LayerStats, verified_samples: int,
                  overhead_s: float) -> dict:
    """Every per-layer metric, by name, from accumulated span stats."""
    out = {}
    for metric in LAYER_METRICS:
        fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = stats.calls[fn]
        elif stat == "self_s":
            out[metric] = stats.self_s[fn]
        elif stat == "total_s":
            out[metric] = stats.total_s[fn]
        elif stat in ("elems", "nodes", "samples"):
            out[metric] = stats.counts[fn][stat]
    solves = stats.calls["power_allocation.solve_lambda"]
    out["power_allocation.solve_lambda.quad_calls_per_solve"] = _ratio(
        stats.quad_calls_in_solve, solves)
    out["power_allocation.cap_builds_per_config"] = _ratio(
        len(stats.cap_keys), len(set(stats.cap_keys)))
    out["monte_carlo.drawn_per_verified_sample"] = _ratio(
        stats.counts["monte_carlo.simulate_policy"]["samples"], verified_samples)
    out["trace.coverage"] = _ratio(stats.covered_s, stats.task_s)
    out["trace.overhead_s"] = overhead_s
    return out


def _traced_cli(spans_path: str, argv) -> int:
    recorder = Recorder()
    install(recorder)
    import crcap.cli

    try:
        with recorder.task(" ".join(argv[:3])):
            return crcap.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
