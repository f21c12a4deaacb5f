"""Command-line front end.

Four subcommands. Three sweep a scenario along one axis, one row per
grid value (_SWEEPS): capacity, asymptote (the low/high-budget limits
next to the finite-budget capacity) and onoff. verify runs the Monte
Carlo oracle against the quadrature engine and the two constraints.
Scenarios come from a flat INI config (sections scenario / sweep /
numerics / monte_carlo / output); unknown sections or keys are hard
errors since a silently ignored typo in epsilon or alpha is the worst
failure mode a tool like this can have, and so is every sweep value the
scenario rejects.

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
import dataclasses
import json
import math
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._parallel import fork_map
from .capacity import (
    _capacity_of,
    ergodic_capacity,
    high_budget_asymptote,
    low_budget_asymptote,
)
from .fading import CsiKnowledge, CsiLevel
from .monte_carlo import _allowed_outage, _outage_bound, verify_outage
from .onoff import _require_perfect_direct, optimize_threshold
from .power_allocation import NumericSettings, ScenarioConfig, solve_lambda
from .special_functions import NumericsError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3

_DB_AXES = {"p_avg", "i_peak"}


class ConfigError(Exception):
    """Anything wrong with the run configuration."""


def db_to_linear(db):
    """10^(dB/10) of a value or an array; inf past the float range, which
    the scenario rejects."""
    with np.errstate(over="ignore"):
        linear = 10.0 ** (np.float64(db) / 10.0)
    return linear if np.ndim(linear) else float(linear)


# ----------------------------------------------------------------------
# config schema and parsing

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


class _Key(NamedTuple):
    """One INI key: its text's parser and its default, None if required."""

    parse: Callable[[str], object]
    default: object = None


# The only description of the config file, in echo order. Only [scenario]
# must be given; a section left out takes its defaults, but for [sweep].
_SCHEMA: Dict[str, Dict[str, _Key]] = {
    "scenario": {"sl_csi": _Key(parse_csi), "cl_csi": _Key(parse_csi),
                 "p_avg_db": _Key(float), "i_peak_db": _Key(float),
                 "epsilon": _Key(float), "rescale_no_csi_budget": _Key(bool, False)},
    "sweep": {"axis": _Key(str), "start": _Key(float), "stop": _Key(float),
              "points": _Key(int), "spacing": _Key(str, "linear")},
    "numerics": {f.name: _Key(type(f.default), f.default)
                 for f in dataclasses.fields(NumericSettings)},
    "monte_carlo": {"n_samples": _Key(int, 1_000_000), "seed": _Key(int, 42)},
    "output": {"include_capacity": _Key(bool, True), "plot_script": _Key(bool, True)},
}


@dataclasses.dataclass
class RunConfig:
    """Fully parsed and validated run description.

    Without a [sweep] section the grid is the scenario's own p_avg_db.
    """

    scenario: ScenarioConfig
    sweep_axis: str
    sweep_grid: np.ndarray  # in config units (dB for dB axes)
    n_samples: int
    seed: int
    include_capacity: bool
    plot_script: bool
    echo: List[Tuple[str, str]]  # effective settings for output headers


def _read_section(parser: configparser.ConfigParser, section: str) -> Dict[str, object]:
    """One section's values in table order, defaults filled in."""
    values: Dict[str, object] = {}
    for key, (parse, default) in _SCHEMA[section].items():
        if not parser.has_option(section, key):
            if default is None:
                raise ConfigError(f"missing required key {section}.{key}")
            values[key] = default
            continue
        raw = parser.get(section, key)
        try:
            values[key] = parser.getboolean(section, key) if parse is bool else parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def load_config(path: str) -> RunConfig:
    """Read an INI run configuration against _SCHEMA and check all of it.

    Unknown or missing sections and keys, unparsable values and values the
    scenario rejects at any grid point raise ConfigError. The header echo
    lists the effective settings in table order, [sweep] as its axis and
    grid and [output] not at all.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, _ in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if not parser.has_section("scenario"):
        raise ConfigError("missing required section [scenario]")
    values = {section: _read_section(parser, section) for section in _SCHEMA
              if section != "sweep" or parser.has_section(section)}

    try:
        numerics = NumericSettings(**values["numerics"])
    except ValueError as exc:
        raise ConfigError(f"bad numerics settings: {exc}") from exc
    scen = values["scenario"]
    try:
        scenario = ScenarioConfig(
            sl_csi=scen["sl_csi"], cl_csi=scen["cl_csi"], p_avg=db_to_linear(scen["p_avg_db"]),
            i_peak=db_to_linear(scen["i_peak_db"]), epsilon=scen["epsilon"], numerics=numerics,
            rescale_no_csi_budget=scen["rescale_no_csi_budget"])
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc

    sweep_axis, sweep_grid = "p_avg", np.array([scen["p_avg_db"]])
    if "sweep" in values:
        sw = values["sweep"]
        sweep_axis, spacing = sw["axis"].strip().lower(), sw["spacing"].strip().lower()
        start, stop, points = sw["start"], sw["stop"], sw["points"]
        if points < 1:
            raise ConfigError("sweep.points must be at least 1")
        if points > 1 and start == stop:
            raise ConfigError("sweep.start and sweep.stop must differ")
        spaced = {"linear": np.linspace, "log": np.geomspace}.get(spacing)
        if spaced is None:
            raise ConfigError(f"sweep.spacing must be linear or log, got {spacing!r}")
        if spacing == "log" and (start <= 0.0 or stop <= 0.0):
            raise ConfigError("log spacing needs positive start and stop")
        sweep_grid = spaced(start, stop, points)
    for v in sweep_grid:
        try:
            _scenario_at(scenario, sweep_axis, v)
        except ValueError as exc:
            raise ConfigError(f"bad sweep point {sweep_axis} = {v:.10g}: {exc}") from exc

    mc = values["monte_carlo"]
    if mc["n_samples"] < 1000:
        raise ConfigError("monte_carlo.n_samples must be at least 1000")
    if mc["seed"] < 0:
        raise ConfigError("monte_carlo.seed must be nonnegative")

    if "sweep" in values:
        values["sweep"] = {"axis": sweep_axis, "grid": ",".join(map(_fmt, sweep_grid))}
    echo = [(f"{section}.{key}", _fmt(v))
            for section, settings in values.items() if section != "output"
            for key, v in settings.items()]

    # [monte_carlo] and [output] keys are RunConfig fields by name
    return RunConfig(scenario=scenario, sweep_axis=sweep_axis, sweep_grid=sweep_grid,
                     echo=echo, **mc, **values["output"])


# ----------------------------------------------------------------------
# sweep plumbing

def _scenario_at(scenario: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """The scenario with the axis set to one grid value (config units)."""
    if axis in _DB_AXES:
        value = db_to_linear(value)
    return scenario.with_axis(axis, value)


def _fmt(x) -> str:
    """A value as the CSV writes it, in its rows and in its header echo."""
    if isinstance(x, CsiKnowledge):
        return x.describe()
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x).lower() if isinstance(x, bool) else str(x)


def _write_csv(path: str, run: RunConfig, command: str, columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    lines = [f"# crcap {command}", *(f"# {key} = {val}" for key, val in run.echo),
             ",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _map_grid(fn: Callable[[float], tuple], grid: np.ndarray, threads: int,
              strict: bool) -> List[tuple]:
    """Evaluate fn over the grid, preserving order; collect failures.

    The points go to up to `threads` forked worker processes
    (_parallel.fork_map); a point does not depend on which process
    computes it or in what order, so the rows keep their bits. Without
    --strict a failed point becomes a row of NaNs and the sweep
    continues; with --strict the first failure aborts the command.
    """
    def safe(v: float):
        try:
            return fn(float(v))
        except (NumericsError, FloatingPointError) as exc:
            return exc

    results = fork_map(safe, grid, threads)
    for i, (v, res) in enumerate(zip(grid, results)):
        if isinstance(res, Exception):
            record = json.dumps({"error": type(res).__name__, "message": str(res),
                                 "grid_value": float(v)}, sort_keys=True)
            if strict:
                raise NumericsError(record)
            print(f"warning: {record}", file=sys.stderr)
            results[i] = None
    return results


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

# The row functions look the engine up in this module's namespace on every
# call, so whatever rebinds those names (a tracer, a test) sees the calls.

def _capacity_row(run: RunConfig, scen: ScenarioConfig) -> tuple:
    r = ergodic_capacity(scen)
    return r.capacity, r.lam, r.regime, r.p_avg_star, r.quadrature_error_estimate


def _asymptote_row(run: RunConfig, scen: ScenarioConfig) -> tuple:
    row = (low_budget_asymptote(scen), high_budget_asymptote(scen))
    if run.include_capacity:
        row += (ergodic_capacity(scen).capacity,)
    return row


def _onoff_row(run: RunConfig, scen: ScenarioConfig) -> tuple:
    tau_star, rate_star = optimize_threshold(scen)
    cap = ergodic_capacity(scen).capacity
    gap = (cap - rate_star) / cap if cap > 0 else 0.0
    return tau_star, rate_star, cap, gap


# command -> (row function, CSV columns after the axis, plotted columns)
_SWEEPS = {
    "capacity": (_capacity_row,
                 ("capacity_npcu", "lambda", "regime", "p_avg_star", "quad_error"),
                 ("capacity_npcu",)),
    "asymptote": (_asymptote_row,
                  ("low_snr_npcu", "high_snr_npcu", "capacity_npcu"),
                  ("low_snr_npcu", "high_snr_npcu", "capacity_npcu")),
    "onoff": (_onoff_row,
              ("tau_star", "onoff_rate_npcu", "capacity_npcu", "gap_rel"),
              ("onoff_rate_npcu", "capacity_npcu")),
}


def cmd_sweep(command: str, run: RunConfig, out_dir: str, threads: int,
              strict: bool) -> int:
    """One row per grid value into <command>.csv, plus its plot script.

    A failed point's row is NaN in every column but regime, which reads
    error; asymptote drops capacity_npcu unless include_capacity is set.
    """
    row, columns, plotted = _SWEEPS[command]
    if command == "asymptote" and not run.include_capacity:
        columns, plotted = columns[:-1], plotted[:-1]
    axis, grid = run.sweep_axis, run.sweep_grid
    results = _map_grid(lambda v: row(run, _scenario_at(run.scenario, axis, v)),
                        grid, threads, strict)
    failed = ["error" if c == "regime" else math.nan for c in columns]
    rows = [[float(v), *(failed if res is None else res)]
            for v, res in zip(grid, results)]
    columns = [f"{axis}_db" if axis in _DB_AXES else axis, *columns]
    csv_name = f"{command}.csv"
    csv_path = os.path.join(out_dir, csv_name)
    _write_csv(csv_path, run, command, columns, rows)
    print(f"wrote {csv_path}")
    if run.plot_script:
        print(f"wrote {_write_plot_script(out_dir, command, csv_name, columns[0], plotted)}")
    return EXIT_OK


def cmd_verify(run: RunConfig, out_dir: str, threads: int, strict: bool,
               corrupt_lambda: Optional[float] = None) -> int:
    """Monte Carlo against the quadrature: one row per check into verify.jsonl."""
    scen = run.scenario
    policy = solve_lambda(scen)
    result = _capacity_of(policy)
    if corrupt_lambda is not None and policy.regime == "power_limited" \
            and scen.sl_csi.level is not CsiLevel.NONE:
        policy = copy.copy(policy)
        policy.lam = policy.lam * corrupt_lambda

    outage_ok, report = verify_outage(policy, scen, run.n_samples, run.seed,
                                      threads=threads)

    rate, power, p_avg = report.empirical_rate, report.empirical_avg_power, scen.p_avg
    rate_tol = 3.0 * report.rate_ci + result.quadrature_error_estimate
    # an unknown direct link transmits min(p_avg, cap) unless the budget is
    # rescaled, so by design it spends at most p_avg, not all of it
    under_spends = (scen.sl_csi.level is CsiLevel.NONE
                    and not scen.rescale_no_csi_budget)
    if policy.regime == "power_limited" and not under_spends:
        power_tol = 3.0 * report.power_ci + p_avg * scen.numerics.lambda_rel_tol
        power_check = ("average_power_meets_budget", p_avg, power, power_tol,
                       abs(power - p_avg) <= power_tol)
    else:
        power_tol = 3.0 * report.power_ci
        power_check = ("average_power_within_budget", p_avg, power, power_tol,
                       power <= p_avg + power_tol)
    # the bin nearest its own bound
    eps = _allowed_outage(scen)
    worst = max((b for b in report.bins if b.count),
                key=lambda b: b.outage_rate - _outage_bound(eps, b.count))
    checks = [
        ("empirical_rate_matches_quadrature", result.capacity, rate, rate_tol,
         abs(rate - result.capacity) <= rate_tol),
        power_check,
        ("interference_outage_within_epsilon", eps, worst.outage_rate,
         _outage_bound(eps, worst.count) - eps, bool(outage_ok)),
    ]

    path = os.path.join(out_dir, "verify.jsonl")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, expected, observed, tol, ok in checks:
            record = {"name": name, "expected": expected, "observed": observed,
                      "tolerance": tol, "pass": ok}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"{'PASS' if ok else 'FAIL'} {name}: observed {observed:.6g} "
                  f"expected {expected:.6g} tol {tol:.3g}")
    print(f"wrote {path}")
    return EXIT_OK if all(check[-1] for check in checks) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    numerics, mc = NumericSettings(), _SCHEMA["monte_carlo"]
    parser = argparse.ArgumentParser(
        prog="crcap",
        description=(
            "Ergodic capacity and optimal power control for an underlay "
            "spectrum-sharing link under average-power and interference-"
            "outage constraints. Defaults: quadrature relative tolerance "
            f"{numerics.quad_rel_tol:g}, power-multiplier relative tolerance "
            f"{numerics.lambda_rel_tol:g}, Monte Carlo {mc['n_samples'].default} "
            f"samples with seed {mc['seed'].default}."
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
                       help="worker processes, forked where the platform can "
                            "(default: machine parallelism)")
        p.add_argument("--strict", action="store_true",
                       help="abort the whole sweep on any point failure")
        if name == "verify":
            p.add_argument("--corrupt-lambda", type=float, default=None,
                           help=argparse.SUPPRESS)  # test hook
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every argument is checked before anything is created on disk
        run = load_config(args.config)
        if args.threads < 1:
            raise ConfigError("--threads must be positive")
        if args.command == "onoff":
            for v in run.sweep_grid:
                try:
                    _require_perfect_direct(_scenario_at(run.scenario, run.sweep_axis, v))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
        out_dir = args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out {out_dir}: {exc}") from exc
        if args.command == "verify":
            return cmd_verify(run, out_dir, args.threads, args.strict,
                              corrupt_lambda=args.corrupt_lambda)
        return cmd_sweep(args.command, run, out_dir, args.threads, args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
