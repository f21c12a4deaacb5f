"""Command-line front end.

Four subcommands: capacity and onoff sweep a scenario along one axis,
asymptote tabulates the low/high-budget limits next to the finite-budget
capacity, verify runs the Monte Carlo oracle against the quadrature
engine and the two constraints. Scenarios come from a flat INI config
(sections scenario / sweep / numerics / monte_carlo / output); unknown
sections or keys are hard errors since a silently ignored typo in
epsilon or alpha is the worst failure mode a tool like this can have.

Powers in the config are in dB (converted as linear = 10^(dB/10) right
here at the boundary; the library itself is strictly linear). CSV output
is deterministic for a given config: fixed column order, 10 significant
digits, '\\n' line endings, and a header that echoes the effective
config. Plot emission writes a companion matplotlib script next to the
CSV; nothing in this package ever renders an image itself.

Exit codes: 0 success, 1 verification-check failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .capacity import (
    _capacity_of,
    ergodic_capacity,
    high_budget_asymptote,
    low_budget_asymptote,
)
from .fading import CsiKnowledge
from .monte_carlo import verify_outage
from .onoff import optimize_threshold
from .power_allocation import NumericSettings, ScenarioConfig, solve_lambda
from .special_functions import NumericsError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3

_DB_AXES = {"p_avg", "i_peak"}
_AXES = {"p_avg", "i_peak", "epsilon", "alpha_s", "alpha_p"}


class ConfigError(Exception):
    """Anything wrong with the run configuration."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


# ----------------------------------------------------------------------
# config schema and parsing

_SCHEMA: Dict[str, Dict[str, Callable]] = {
    "scenario": {
        "sl_csi": str,
        "cl_csi": str,
        "p_avg_db": float,
        "i_peak_db": float,
        "epsilon": float,
        "rescale_no_csi_budget": bool,
    },
    "sweep": {
        "axis": str,
        "start": float,
        "stop": float,
        "points": int,
        "spacing": str,
    },
    "numerics": {
        "quad_rel_tol": float,
        "quad_points": int,
        "base_panels": int,
        "max_refinements": int,
        "bisect_tol": float,
        "lambda_rel_tol": float,
        "tail_mass": float,
    },
    "monte_carlo": {
        "n_samples": int,
        "seed": int,
    },
    "output": {
        "format": str,
        "include_capacity": bool,
        "plot_script": bool,
    },
}

_REQUIRED = {"scenario": ["sl_csi", "cl_csi", "p_avg_db", "i_peak_db", "epsilon"]}

_DEFAULTS = {
    "monte_carlo": {"n_samples": 1_000_000, "seed": 42},
    "output": {"format": "csv", "include_capacity": True, "plot_script": True},
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_csi(raw: str) -> CsiKnowledge:
    """Knowledge-level syntax: none | perfect | estimated:<alpha>."""
    token = raw.strip().lower()
    if token == "none":
        return CsiKnowledge.no_csi()
    if token == "perfect":
        return CsiKnowledge.perfect()
    if token.startswith("estimated:"):
        try:
            alpha = float(token.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad estimated alpha in {raw!r}") from exc
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"estimated alpha must lie in (0, 1), got {alpha}")
        return CsiKnowledge.estimated(alpha)
    raise ConfigError(
        f"unknown CSI level {raw!r}; use none, perfect, or estimated:<alpha>")


@dataclass
class RunConfig:
    """Fully parsed and validated run description."""

    scenario: ScenarioConfig
    p_avg_db: float
    i_peak_db: float
    sweep_axis: Optional[str]
    sweep_grid: Optional[np.ndarray]  # in config units (dB for dB axes)
    n_samples: int
    seed: int
    include_capacity: bool
    plot_script: bool
    echo: List[Tuple[str, str]]  # effective settings for output headers


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values: Dict[str, Dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            coerce = _SCHEMA[section][key]
            try:
                if coerce is bool:
                    values[section][key] = _parse_bool(raw)
                else:
                    values[section][key] = coerce(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}") from exc

    for section, keys in _REQUIRED.items():
        if section not in values:
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if key not in values[section]:
                raise ConfigError(f"missing required key {section}.{key}")

    scen = values["scenario"]
    sl = parse_csi(str(scen["sl_csi"]))
    cl = parse_csi(str(scen["cl_csi"]))
    p_avg_db = float(scen["p_avg_db"])
    i_peak_db = float(scen["i_peak_db"])
    epsilon = float(scen["epsilon"])
    if not (0.0 < epsilon < 1.0):
        raise ConfigError("scenario.epsilon must lie strictly between 0 and 1")

    num_kwargs = values.get("numerics", {})
    try:
        numerics = NumericSettings(**num_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numerics settings: {exc}") from exc

    try:
        scenario = ScenarioConfig(
            sl_csi=sl, cl_csi=cl,
            p_avg=db_to_linear(p_avg_db),
            i_peak=db_to_linear(i_peak_db),
            epsilon=epsilon,
            numerics=numerics,
            rescale_no_csi_budget=bool(scen.get("rescale_no_csi_budget", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc

    sweep_axis = None
    sweep_grid = None
    if "sweep" in values:
        sw = values["sweep"]
        for key in ("axis", "start", "stop", "points"):
            if key not in sw:
                raise ConfigError(f"missing required key sweep.{key}")
        sweep_axis = str(sw["axis"]).strip().lower()
        if sweep_axis not in _AXES:
            raise ConfigError(
                f"sweep.axis must be one of {sorted(_AXES)}, got {sweep_axis!r}")
        start, stop = float(sw["start"]), float(sw["stop"])
        points = int(sw["points"])
        spacing = str(sw.get("spacing", "linear")).strip().lower()
        if points < 1:
            raise ConfigError("sweep.points must be at least 1")
        if points > 1 and start == stop:
            raise ConfigError("sweep.start and sweep.stop must differ")
        if spacing == "linear":
            sweep_grid = np.linspace(start, stop, points)
        elif spacing == "log":
            if start <= 0.0 or stop <= 0.0:
                raise ConfigError("log spacing needs positive start and stop")
            sweep_grid = np.geomspace(start, stop, points)
        else:
            raise ConfigError(f"sweep.spacing must be linear or log, got {spacing!r}")

    mc = {**_DEFAULTS["monte_carlo"], **values.get("monte_carlo", {})}
    out = {**_DEFAULTS["output"], **values.get("output", {})}
    if str(out["format"]).strip().lower() != "csv":
        raise ConfigError(f"output.format must be csv, got {out['format']!r}")
    n_samples = int(mc["n_samples"])
    if n_samples < 1000:
        raise ConfigError("monte_carlo.n_samples must be at least 1000")

    echo: List[Tuple[str, str]] = [
        ("scenario.sl_csi", sl.describe()),
        ("scenario.cl_csi", cl.describe()),
        ("scenario.p_avg_db", f"{p_avg_db:.10g}"),
        ("scenario.i_peak_db", f"{i_peak_db:.10g}"),
        ("scenario.epsilon", f"{epsilon:.10g}"),
        ("scenario.rescale_no_csi_budget", str(scenario.rescale_no_csi_budget).lower()),
    ]
    if sweep_axis is not None:
        echo.append(("sweep.axis", sweep_axis))
        echo.append(("sweep.grid", ",".join(f"{v:.10g}" for v in sweep_grid)))
    for name in ("quad_rel_tol", "quad_points", "base_panels", "max_refinements",
                 "bisect_tol", "lambda_rel_tol", "tail_mass"):
        echo.append((f"numerics.{name}", f"{getattr(numerics, name):.10g}"))
    echo.append(("monte_carlo.n_samples", str(n_samples)))
    echo.append(("monte_carlo.seed", str(int(mc["seed"]))))

    return RunConfig(
        scenario=scenario,
        p_avg_db=p_avg_db,
        i_peak_db=i_peak_db,
        sweep_axis=sweep_axis,
        sweep_grid=sweep_grid,
        n_samples=n_samples,
        seed=int(mc["seed"]),
        include_capacity=bool(out["include_capacity"]),
        plot_script=bool(out["plot_script"]),
        echo=echo,
    )


# ----------------------------------------------------------------------
# sweep plumbing

def _grid_or_default(run: RunConfig) -> Tuple[str, np.ndarray]:
    """The sweep axis and grid, defaulting to the scenario's single point."""
    if run.sweep_axis is None:
        return "p_avg", np.array([run.p_avg_db])
    return run.sweep_axis, run.sweep_grid


def _scenario_at(run: RunConfig, axis: str, value: float) -> ScenarioConfig:
    """The scenario with the axis set to one grid value (config units)."""
    if axis in _DB_AXES:
        value = db_to_linear(value)
    return run.scenario.with_axis(axis, value)


def _axis_column(axis: str) -> str:
    return f"{axis}_db" if axis in _DB_AXES else axis


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: str, run: RunConfig, command: str, columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    lines = [f"# crcap {command}"]
    lines += [f"# {key} = {val}" for key, val in run.echo]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _map_grid(fn: Callable[[float], tuple], grid: np.ndarray, threads: int,
              strict: bool) -> List[tuple]:
    """Evaluate fn over the grid, preserving order; collect failures.

    Without --strict a failed point becomes a row of NaNs and the sweep
    continues; with --strict the first failure aborts the command.
    """
    def safe(v: float):
        try:
            return ("ok", fn(float(v)))
        except (NumericsError, FloatingPointError) as exc:
            return ("error", exc)

    if threads > 1 and grid.size > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(safe, grid))
    else:
        results = [safe(v) for v in grid]
    out = []
    for v, (status, payload) in zip(grid, results):
        if status == "error":
            record = {"error": type(payload).__name__, "message": str(payload),
                      "grid_value": float(v)}
            if strict:
                raise NumericsError(json.dumps(record, sort_keys=True))
            print(f"warning: {json.dumps(record, sort_keys=True)}",
                  file=sys.stderr)
            out.append(None)
        else:
            out.append(payload)
    return out


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# companion plot script generated by crcap {command}; reads {csv_name}
# run it yourself: this package never renders images.
import csv

import matplotlib.pyplot as plt

xs = []
series = {{name: [] for name in {ycols!r}}}
with open({csv_name!r}, encoding="utf-8") as fh:
    rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
header, data = rows[0], rows[1:]
xi = header.index({xcol!r})
for row in data:
    xs.append(float(row[xi]))
    for name in series:
        series[name].append(float(row[header.index(name)]))
fig, ax = plt.subplots(figsize=(7, 4.5))
for name, ys in series.items():
    ax.plot(xs, ys, marker="o", label=name)
ax.set_xlabel({xcol!r})
ax.set_ylabel("nats per channel use")
ax.legend()
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
"""


def _write_plot_script(out_dir: str, command: str, csv_name: str, xcol: str,
                       ycols: Sequence[str]) -> str:
    path = os.path.join(out_dir, f"{command}_plot.py")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PLOT_TEMPLATE.format(command=command, csv_name=csv_name,
                                       xcol=xcol, ycols=list(ycols),
                                       png_name=f"{command}.png"))
    return path


# ----------------------------------------------------------------------
# subcommands

def cmd_capacity(run: RunConfig, out_dir: str, threads: int, strict: bool) -> int:
    axis, grid = _grid_or_default(run)
    results = _map_grid(lambda v: (ergodic_capacity(_scenario_at(run, axis, v)),),
                        grid, threads, strict)
    columns = [_axis_column(axis), "capacity_npcu", "lambda", "regime",
               "p_avg_star", "quad_error"]
    rows = []
    for v, res in zip(grid, results):
        if res is None:
            rows.append([float(v), math.nan, math.nan, "error", math.nan, math.nan])
            continue
        (r,) = res
        rows.append([float(v), r.capacity, r.lam, r.regime, r.p_avg_star,
                     r.quadrature_error_estimate])
    csv_path = os.path.join(out_dir, "capacity.csv")
    _write_csv(csv_path, run, "capacity", columns, rows)
    print(f"wrote {csv_path}")
    if run.plot_script:
        print(f"wrote {_write_plot_script(out_dir, 'capacity', 'capacity.csv', columns[0], ['capacity_npcu'])}")
    return EXIT_OK


def cmd_asymptote(run: RunConfig, out_dir: str, threads: int, strict: bool) -> int:
    axis, grid = _grid_or_default(run)

    def point(v: float):
        scen = _scenario_at(run, axis, v)
        low = low_budget_asymptote(scen)
        high = high_budget_asymptote(scen)
        cap = ergodic_capacity(scen).capacity if run.include_capacity else math.nan
        return low, high, cap

    results = _map_grid(point, grid, threads, strict)
    columns = [_axis_column(axis), "low_snr_npcu", "high_snr_npcu"]
    if run.include_capacity:
        columns += ["capacity_npcu"]
    rows = []
    for v, res in zip(grid, results):
        if res is None:
            rows.append([float(v)] + [math.nan] * (len(columns) - 1))
            continue
        low, high, cap = res
        row = [float(v), low, high]
        if run.include_capacity:
            row.append(cap)
        rows.append(row)
    csv_path = os.path.join(out_dir, "asymptote.csv")
    _write_csv(csv_path, run, "asymptote", columns, rows)
    print(f"wrote {csv_path}")
    if run.plot_script:
        ycols = columns[1:]
        print(f"wrote {_write_plot_script(out_dir, 'asymptote', 'asymptote.csv', columns[0], ycols)}")
    return EXIT_OK


def cmd_onoff(run: RunConfig, out_dir: str, threads: int, strict: bool) -> int:
    axis, grid = _grid_or_default(run)

    def point(v: float):
        scen = _scenario_at(run, axis, v)
        tau_star, rate_star = optimize_threshold(scen)
        cap = ergodic_capacity(scen).capacity
        gap = (cap - rate_star) / cap if cap > 0 else 0.0
        return tau_star, rate_star, cap, gap

    try:
        results = _map_grid(point, grid, threads, strict)
    except ValueError as exc:
        # the on-off scheme needs perfect direct-link knowledge
        raise ConfigError(str(exc)) from exc
    columns = [_axis_column(axis), "tau_star", "onoff_rate_npcu",
               "capacity_npcu", "gap_rel"]
    rows = []
    for v, res in zip(grid, results):
        if res is None:
            rows.append([float(v)] + [math.nan] * 4)
            continue
        rows.append([float(v)] + list(res))
    csv_path = os.path.join(out_dir, "onoff.csv")
    _write_csv(csv_path, run, "onoff", columns, rows)
    print(f"wrote {csv_path}")
    if run.plot_script:
        print(f"wrote {_write_plot_script(out_dir, 'onoff', 'onoff.csv', columns[0], ['onoff_rate_npcu', 'capacity_npcu'])}")
    return EXIT_OK


def cmd_verify(run: RunConfig, out_dir: str, threads: int, strict: bool,
               corrupt_lambda: Optional[float] = None) -> int:
    scen = run.scenario
    policy = solve_lambda(scen)
    result = _capacity_of(policy)
    if corrupt_lambda is not None and policy.regime == "power_limited" \
            and scen.sl_csi.level.value != "none":
        policy = copy.copy(policy)
        policy.lam = policy.lam * corrupt_lambda
        policy._budget_interp = None

    outage_ok, report = verify_outage(policy, scen, run.n_samples, run.seed,
                                      threads=threads)

    checks = []
    rate_tol = 3.0 * report.rate_ci + result.quadrature_error_estimate
    checks.append({
        "name": "empirical_rate_matches_quadrature",
        "expected": result.capacity,
        "observed": report.empirical_rate,
        "tolerance": rate_tol,
        "pass": abs(report.empirical_rate - result.capacity) <= rate_tol,
    })
    if policy.regime == "power_limited":
        power_tol = 3.0 * report.power_ci + scen.p_avg * scen.numerics.lambda_rel_tol
        checks.append({
            "name": "average_power_meets_budget",
            "expected": scen.p_avg,
            "observed": report.empirical_avg_power,
            "tolerance": power_tol,
            "pass": abs(report.empirical_avg_power - scen.p_avg) <= power_tol,
        })
    else:
        power_tol = 3.0 * report.power_ci
        checks.append({
            "name": "average_power_within_budget",
            "expected": scen.p_avg,
            "observed": report.empirical_avg_power,
            "tolerance": power_tol,
            "pass": report.empirical_avg_power <= scen.p_avg + power_tol,
        })
    worst_bin = max((b.outage_rate for b in report.bins if b.count), default=0.0)
    checks.append({
        "name": "interference_outage_within_epsilon",
        "expected": scen.epsilon,
        "observed": worst_bin,
        "tolerance": 3.0 * math.sqrt(scen.epsilon * (1.0 - scen.epsilon)
                                     / max(run.n_samples // len(report.bins), 1)),
        "pass": bool(outage_ok),
    })

    path = os.path.join(out_dir, "verify.jsonl")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for check in checks:
            fh.write(json.dumps(check, sort_keys=True) + "\n")
    all_pass = all(c["pass"] for c in checks)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: observed {check['observed']:.6g} "
              f"expected {check['expected']:.6g} tol {check['tolerance']:.3g}")
    print(f"wrote {path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcap",
        description=(
            "Ergodic capacity and optimal power control for an underlay "
            "spectrum-sharing link under average-power and interference-"
            "outage constraints. Defaults: quadrature relative tolerance "
            "1e-7, power-multiplier relative tolerance 1e-4, Monte Carlo "
            "1000000 samples with seed 42."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("capacity", "sweep ergodic capacity along the configured axis"),
        ("asymptote", "tabulate low/high-budget capacity limits"),
        ("onoff", "optimize the on-off threshold scheme along the sweep"),
        ("verify", "run the Monte Carlo oracle against the quadrature engine"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads (default: machine parallelism)")
        p.add_argument("--strict", action="store_true",
                       help="abort the whole sweep on any point failure")
        if name == "verify":
            p.add_argument("--corrupt-lambda", type=float, default=None,
                           help=argparse.SUPPRESS)  # test hook
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.threads < 1:
            raise ConfigError("--threads must be positive")
        if args.command == "capacity":
            return cmd_capacity(run, out_dir, args.threads, args.strict)
        if args.command == "asymptote":
            return cmd_asymptote(run, out_dir, args.threads, args.strict)
        if args.command == "onoff":
            return cmd_onoff(run, out_dir, args.threads, args.strict)
        if args.command == "verify":
            return cmd_verify(run, out_dir, args.threads, args.strict,
                              corrupt_lambda=args.corrupt_lambda)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
