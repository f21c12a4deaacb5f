"""The recipes workload: every configs/*.ini through the CLI, one process each.

Each recipe runs as `python -m crcap.cli <command> --config <ini>
--threads 2` in a fresh interpreter, the way a user's shell runs it, so
the CLI layer, its thread pool and each process's cold start are all
timed, and no cache can live from one recipe to the next. The outputs
are compared with the snapshot under reference/recipes/.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import converged, within

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_DIR = ROOT / "configs"
SNAPSHOT_DIR = HERE / "reference" / "recipes"
THREADS = 2
TIMEOUT_S = 150.0

# columns held to their reference; every other column's drift is only
# reported (tau_star and lambda: the on-off optimum and the multiplier are
# flat directions; quad_error is itself an estimate; gap_rel derives from
# two checked columns; regime is a label)
CHECKED = ("capacity_npcu", "onoff_rate_npcu", "low_snr_npcu",
           "high_snr_npcu", "p_avg_star")


def recipe_names() -> list:
    return sorted(p.stem for p in CONFIG_DIR.glob("*.ini"))


def command_of(name: str) -> str:
    return name.split("_", 1)[0]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, log_path: Path):
    """Run argv to completion; return (exit code, seconds, peak RSS in MB).

    os.wait4 reaps the child and gives its own resource usage; a timer
    kills a child that outlives TIMEOUT_S (exit code then negative).
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=str(ROOT))
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def import_setup_s(log_dir: Path) -> float:
    """Set-up of this workload: a fresh interpreter importing crcap."""
    code, seconds, _ = run_process([sys.executable, "-c", "import crcap"],
                                   log_dir / "setup.log")
    if code != 0:
        raise RuntimeError(f"import crcap failed, see {log_dir / 'setup.log'}")
    return seconds


def run_recipe(name: str, out_dir: Path, spans_path=None, extra_args=()) -> dict:
    """One recipe through the CLI; traced when spans_path is given."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cli_args = [command_of(name), "--config", str(CONFIG_DIR / f"{name}.ini"),
                "--out", str(out_dir), "--threads", str(THREADS), *extra_args]
    if spans_path is None:
        argv = [sys.executable, "-m", "crcap.cli", *cli_args]
    else:
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *cli_args]
    code, seconds, rss_mb = run_process(argv, out_dir / "cli.log")
    return {"name": name, "seconds": seconds, "exit_code": code,
            "peak_rss_mb": rss_mb, "out_dir": str(out_dir)}


def verified_samples(name: str) -> int:
    """Monte Carlo samples a verify recipe asks for (0 for other commands)."""
    if command_of(name) != "verify":
        return 0
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / f"{name}.ini", encoding="utf-8")
    return parser.getint("monte_carlo", "n_samples", fallback=1_000_000)


def read_csv(path: Path):
    """(echoed settings, header, rows) of a CLI output CSV."""
    settings, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# ") and " = " in line:
                key, value = line[2:].rstrip("\n").split(" = ", 1)
                settings[key] = value
            elif not line.startswith("#") and line.strip():
                lines.append(line)
    rows = list(csv.reader(lines))
    return settings, rows[0], rows[1:]


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_recipe(task: dict) -> dict:
    """Compare one recipe's output with its snapshot.

    Returns {"failures": [...], "drift": {column: (max abs, max rel)},
    "points": n, "unconverged": [x values]}. A checked value passes when it
    lies within both reported error estimates (the quad_error column, where
    the CSV has one) plus quad_rel_tol * |ref| of the snapshot value. A
    CSV without that column borrows the estimates of a sibling snapshot
    at the same point (see sibling_errors).
    """
    name = task["name"]
    out_dir = Path(task["out_dir"])
    report = {"failures": [], "drift": {}, "points": 0, "unconverged": []}
    if task["exit_code"] != 0:
        report["failures"].append(f"exit code {task['exit_code']}")
        return report
    if command_of(name) == "verify":
        return _check_verify(out_dir, SNAPSHOT_DIR / f"{name}.jsonl", report)

    csv_name = f"{command_of(name)}.csv"
    try:
        settings, header, rows = read_csv(out_dir / csv_name)
    except (OSError, IndexError) as exc:
        report["failures"].append(f"unreadable {csv_name}: {exc}")
        return report
    _, ref_header, ref_rows = read_csv(SNAPSHOT_DIR / f"{name}.csv")
    if header != ref_header or len(rows) != len(ref_rows):
        report["failures"].append("columns or row count differ from the snapshot")
        return report
    qrt = float(settings["numerics.quad_rel_tol"])
    err_col = header.index("quad_error") if "quad_error" in header else None
    report["points"] = len(rows) if err_col is not None else 0
    borrowed = sibling_errors(name, settings) if err_col is None else {}
    for row, ref in zip(rows, ref_rows):
        if row[0] != ref[0]:
            report["failures"].append(f"grid value {row[0]} != {ref[0]}")
            continue
        errs = (abs(_num(row[err_col])) + abs(_num(ref[err_col]))
                if err_col is not None else 2.0 * borrowed.get(_num(row[0]), 0.0))
        if err_col is not None and "capacity_npcu" in header:
            cap = _num(row[header.index("capacity_npcu")])
            if not converged(cap, _num(row[err_col]), qrt):
                report["unconverged"].append(row[0])
        for j, column in enumerate(header[1:], start=1):
            new, old = _num(row[j]), _num(ref[j])
            if math.isnan(new) and not math.isnan(old):
                report["failures"].append(f"{column} at {row[0]} is NaN")
                continue
            if column == "regime":
                if row[j] != ref[j]:
                    report["drift"].setdefault("regime", [0, 0])[0] += 1
                continue
            if not (math.isinf(new) or math.isinf(old) or math.isnan(new)):
                drift = report["drift"].setdefault(column, [0.0, 0.0])
                drift[0] = max(drift[0], abs(new - old))
                drift[1] = max(drift[1], abs(new - old) / abs(old) if old else 0.0)
            if column in CHECKED:
                tol = errs + max(qrt * abs(old), 1e-12) if column == "capacity_npcu" \
                    else max(qrt * abs(old), 1e-12)
                if not within(new, old, tol):
                    report["failures"].append(
                        f"{column} at {row[0]}: {row[j]} vs snapshot {ref[j]} "
                        f"(tolerance {tol:.3g})")
    return report


def sibling_errors(name: str, settings: dict) -> dict:
    """{grid value: quad_error} from snapshots of the same scenario.

    The asymptote and on-off CSVs carry capacity_npcu without its error
    estimate. Where another snapshot has the same scenario, numerics and
    sweep axis and a quad_error column, its estimate at a shared grid
    value stands for both the new and the reference estimate, so a
    capacity is held no tighter here than in the capacity recipe. Points
    without a sibling count their estimates as 0.
    """
    def key(s):
        return {k: v for k, v in s.items()
                if k.startswith(("scenario.", "numerics.")) or k == "sweep.axis"}

    errors = {}
    for path in sorted(SNAPSHOT_DIR.glob("*.csv")):
        if path.stem == name:
            continue
        other, header, rows = read_csv(path)
        if "quad_error" in header and key(other) == key(settings):
            col = header.index("quad_error")
            for row in rows:
                errors.setdefault(_num(row[0]), abs(_num(row[col])))
    return errors


def _check_verify(out_dir: Path, snapshot: Path, report: dict) -> dict:
    try:
        with open(out_dir / "verify.jsonl", encoding="utf-8") as fh:
            checks = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        report["failures"].append(f"unreadable verify.jsonl: {exc}")
        return report
    with open(snapshot, encoding="utf-8") as fh:
        ref = {c["name"]: c for c in (json.loads(line) for line in fh if line.strip())}
    for check in checks:
        if not check["pass"]:
            report["failures"].append(f"verify check {check['name']} failed")
        old = ref.get(check["name"])
        if old is None:
            report["failures"].append(f"verify check {check['name']} not in snapshot")
            continue
        for field in ("expected", "observed"):
            drift = report["drift"].setdefault(f"{check['name']}.{field}", [0.0, 0.0])
            diff = abs(check[field] - old[field])
            drift[0] = max(drift[0], diff)
            drift[1] = max(drift[1], diff / abs(old[field]) if old[field] else 0.0)
    if len(checks) != len(ref):
        report["failures"].append("verify checks differ from the snapshot")
    return report

