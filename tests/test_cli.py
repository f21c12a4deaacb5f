"""Command-line front end checks: parsing, determinism, exit codes.

Everything drives crcap.cli.main(argv) in-process; one test exercises
the installed console script end to end, and one checks what a fresh
`import crcap.cli` loads.
"""

import ast
import configparser
import dataclasses
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crcap
from crcap.capacity import ergodic_capacity
from crcap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL,
    EXIT_OK,
    _SCHEMA,
    ConfigError,
    _fmt,
    _map_grid,
    db_to_linear,
    load_config,
    main,
    parse_csi,
)
from crcap.fading import CsiKnowledge, CsiLevel
from crcap.power_allocation import NumericSettings, ScenarioConfig, solve_lambda
from crcap.special_functions import NumericsError

BASE = """\
[scenario]
sl_csi = perfect
cl_csi = none
p_avg_db = 0.0
i_peak_db = 10.0
epsilon = 0.05

[monte_carlo]
n_samples = 60000
seed = 11
"""

SWEEP = BASE + """
[sweep]
axis = p_avg
start = -10
stop = 10
points = 5
spacing = linear
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def rows_of(csv_path):
    lines = [l for l in csv_path.read_text().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


# ----------------------------------------------------------------------
# unit conversions and parsing

def test_db_conversion_roundtrip():
    for db in [-30.0, 0.0, 3.0, 17.5]:
        assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_parse_csi_levels():
    assert parse_csi("perfect").level is CsiLevel.PERFECT
    assert parse_csi("none").level is CsiLevel.NONE
    est = parse_csi("estimated:0.25")
    assert est.level is CsiLevel.ESTIMATED and est.error_variance == 0.25
    with pytest.raises(ConfigError):
        parse_csi("estimated:1.5")
    with pytest.raises(ConfigError):
        parse_csi("oracle")


def test_load_config_applies_db_conversion(tmp_path):
    run = load_config(write(tmp_path, BASE))
    assert run.scenario.p_avg == pytest.approx(1.0, rel=1e-12)
    assert run.scenario.i_peak == pytest.approx(10.0, rel=1e-12)
    assert run.scenario.epsilon == 0.05
    assert run.n_samples == 60000 and run.seed == 11


def test_load_config_rejects_unknown_key(tmp_path):
    bad = BASE.replace("epsilon = 0.05", "epsilon = 0.05\ntypo_key = 3")
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_load_config_rejects_unknown_section(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\n[plotting]\nstyle = dark\n"))


def test_load_config_rejects_missing_required(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE.replace("epsilon = 0.05\n", "")))


def test_load_config_rejects_empty_grid(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, SWEEP.replace("points = 5", "points = 0")))


def test_load_config_without_sweep_is_the_scenario_point(tmp_path):
    run = load_config(write(tmp_path, BASE))
    assert run.sweep_axis == "p_avg" and run.sweep_grid.tolist() == [0.0]
    assert not [key for key, _ in run.echo if key.startswith("sweep.")]


def _sweep_of(axis, start, stop):
    return BASE + f"""
[sweep]
axis = {axis}
start = {start}
stop = {stop}
points = 3
"""


_P_AVG_REASON = "p_avg must be positive and finite"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, reason", [
    (_sweep_of("epsilon", 0.0, 0.1), "epsilon must lie strictly between 0 and 1"),
    (_sweep_of("epsilon", 0.01, 1.0), "epsilon must lie strictly between 0 and 1"),
    (_sweep_of("snr", 0.0, 1.0), "unknown sweep axis 'snr'"),
    (_sweep_of("p_avg", 0.0, 4000.0), "bad sweep point p_avg = 4000: " + _P_AVG_REASON),
    (BASE.replace("p_avg_db = 0.0", "p_avg_db = 4000"), "bad scenario: " + _P_AVG_REASON),
    (BASE.replace("seed = 11", "seed = -1"), "monte_carlo.seed must be nonnegative"),
], ids=["epsilon-start-0", "epsilon-stop-1", "unknown-axis", "p_avg-stop-4000",
        "scenario-p_avg_db-4000", "monte_carlo-seed-negative"])
def test_out_of_domain_sweep_value_is_config_error(tmp_path, capsys, text, reason):
    # every grid value goes through the scenario's own axis map and checks
    # when the config loads, so no sweep dies halfway with a traceback; a
    # dB value past the float range is inf, which the scenario rejects
    # like any other, without a numpy warning
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError, match=reason):
        load_config(cfg)
    assert main(["capacity", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err
    assert err.count("\n") == 1  # nothing else on stderr
    assert not (tmp_path / "o" / "capacity.csv").exists()


@pytest.mark.parametrize("raw, expect", [
    ("true", True), ("YES", True), ("On", True), ("1", True),
    ("false", False), ("No", False), ("OFF", False), ("0", False),
])
def test_booleans_take_every_configparser_spelling(tmp_path, raw, expect):
    run = load_config(write(tmp_path, BASE + f"\n[output]\nplot_script = {raw}\n"))
    assert run.plot_script is expect


def test_boolean_rejects_other_words(tmp_path):
    with pytest.raises(ConfigError, match="output.plot_script"):
        load_config(write(tmp_path, BASE + "\n[output]\nplot_script = maybe\n"))


def test_every_numeric_setting_is_a_config_key_echoed_in_field_order(tmp_path):
    fields = dataclasses.fields(NumericSettings)
    text = BASE + "\n[numerics]\n" + "".join(f"{f.name} = {f.default}\n"
                                           for f in fields)
    run = load_config(write(tmp_path, text))
    assert run.scenario.numerics == NumericSettings()
    assert [key for key, _ in run.echo if key.startswith("numerics.")] == \
        [f"numerics.{f.name}" for f in fields]


# every key of every section, in the looser spellings the parser takes
EVERY_KEY = """\
[scenario]
sl_csi = Estimated:0.25
cl_csi = none
p_avg_db = 2.5
i_peak_db = 10
epsilon = 5e-2
rescale_no_csi_budget = yes

[sweep]
axis = P_AVG
start = -10
stop = 10
points = 3
spacing = Linear

[numerics]
quad_rel_tol = 1e-7
quad_points = 20
base_panels = 8
max_refinements = 4
lambda_rel_tol = 2.5e-5
tail_mass = 1e-10

[monte_carlo]
n_samples = 20000000000
seed = 0

[output]
include_capacity = off
plot_script = false
"""

EVERY_KEY_HEADER = """\
# crcap asymptote
# scenario.sl_csi = estimated(alpha=0.25)
# scenario.cl_csi = none
# scenario.p_avg_db = 2.5
# scenario.i_peak_db = 10
# scenario.epsilon = 0.05
# scenario.rescale_no_csi_budget = true
# sweep.axis = p_avg
# sweep.grid = -10,0,10
# numerics.quad_rel_tol = 1e-07
# numerics.quad_points = 20
# numerics.base_panels = 8
# numerics.max_refinements = 4
# numerics.lambda_rel_tol = 2.5e-05
# numerics.tail_mass = 1e-10
# monte_carlo.n_samples = 20000000000
# monte_carlo.seed = 0
p_avg_db,low_snr_npcu,high_snr_npcu
"""


def test_a_config_setting_every_key_writes_the_pinned_header(tmp_path):
    parsed = configparser.ConfigParser()
    parsed.read_string(EVERY_KEY)
    assert {s: set(parsed[s]) for s in parsed.sections()} == \
        {s: set(keys) for s, keys in _SCHEMA.items()}
    out = tmp_path / "out"
    assert main(["asymptote", "--config", write(tmp_path, EVERY_KEY),
                 "--out", str(out), "--threads", "1"]) == EXIT_OK
    assert (out / "asymptote.csv").read_bytes().startswith(EVERY_KEY_HEADER.encode())
    assert not (out / "asymptote_plot.py").exists()


def test_every_numerics_echo_line_reads_back_as_its_setting(tmp_path):
    # integers past ten digits echo whole (10 digits turned 10000000000
    # into 1e+10, which the int parser rejects), floats at ten digits: a
    # [numerics] section written from the header echo is the same settings
    text = BASE + """
[numerics]
quad_rel_tol = 2.5e-9
quad_points = 12345678901
base_panels = 10000000000
max_refinements = 10000000000
lambda_rel_tol = 0.125
tail_mass = 1e-30
"""
    run = load_config(write(tmp_path, text))
    lines = [f"# {key} = {val}" for key, val in run.echo if key.startswith("numerics.")]
    assert len(lines) == len(_SCHEMA["numerics"])
    echoed = BASE + "\n[numerics]\n" + "\n".join(
        line.removeprefix("# numerics.") for line in lines) + "\n"
    again = load_config(write(tmp_path, echoed, name="echoed.ini"))
    assert again.scenario.numerics == run.scenario.numerics
    assert again.echo == run.echo


def test_readme_config_table_is_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    head = "| section | key | type | default | required |"
    lines = readme[readme.index(head):].splitlines()[2:]
    rows = [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines)]
    assert rows == [
        (section, key, "knowledge" if k.parse is parse_csi else k.parse.__name__,
         "—" if k.default is None else _fmt(k.default), "yes" if k.default is None else "no")
        for section, keys in _SCHEMA.items() for key, k in keys.items()]


def test_load_config_log_spacing(tmp_path):
    text = BASE + """
[sweep]
axis = epsilon
start = 0.01
stop = 0.1
points = 3
spacing = log
"""
    run = load_config(write(tmp_path, text))
    np.testing.assert_allclose(run.sweep_grid, [0.01, 0.0316227766, 0.1],
                               rtol=1e-8)


# ----------------------------------------------------------------------
# capacity command

def test_capacity_single_point_matches_engine(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["capacity", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = rows_of(out / "capacity.csv")
    assert header == ["p_avg_db", "capacity_npcu", "lambda", "regime",
                      "p_avg_star", "quad_error"]
    assert len(rows) == 1
    engine = ergodic_capacity(ScenarioConfig(
        sl_csi=CsiKnowledge.perfect(), cl_csi=CsiKnowledge.no_csi(),
        p_avg=1.0, i_peak=10.0, epsilon=0.05))
    assert float(rows[0][1]) == pytest.approx(engine.capacity, rel=1e-9)
    assert rows[0][3] == "power_limited"


def test_capacity_sweep_deterministic_bytes(tmp_path):
    cfg = write(tmp_path, SWEEP)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["capacity", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == EXIT_OK
    assert main(["capacity", "--config", cfg, "--out", str(out2),
                 "--threads", "4"]) == EXIT_OK
    assert (out1 / "capacity.csv").read_bytes() == \
        (out2 / "capacity.csv").read_bytes()


def test_capacity_csv_format_contract(tmp_path):
    cfg = write(tmp_path, SWEEP)
    out = tmp_path / "out"
    main(["capacity", "--config", cfg, "--out", str(out)])
    raw = (out / "capacity.csv").read_bytes()
    assert b"\r" not in raw  # unix newlines only
    text = raw.decode("utf-8")
    assert "# scenario.epsilon = 0.05" in text
    assert "# monte_carlo.seed = 11" in text
    header, rows = rows_of(out / "capacity.csv")
    assert [r[0] for r in rows] == ["-10", "-5", "0", "5", "10"]
    for r in rows:
        val = r[1]
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) <= 11
        float(val)  # parses


def test_capacity_emits_replayable_plot_script(tmp_path):
    cfg = write(tmp_path, SWEEP)
    out = tmp_path / "out"
    main(["capacity", "--config", cfg, "--out", str(out)])
    script = out / "capacity_plot.py"
    assert script.exists()
    compile(script.read_text(), str(script), "exec")
    proc = subprocess.run([sys.executable, script.name], cwd=out,
                          capture_output=True, text=True,
                          env={"MPLBACKEND": "Agg", "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0, proc.stderr
    assert (out / "capacity.png").exists()


def test_plot_script_suppressed_by_config(tmp_path):
    cfg = write(tmp_path, BASE + "\n[output]\nplot_script = false\n")
    out = tmp_path / "out"
    main(["capacity", "--config", cfg, "--out", str(out)])
    assert not (out / "capacity_plot.py").exists()


# ----------------------------------------------------------------------
# asymptote and onoff commands

def test_asymptote_columns_and_values(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["asymptote", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = rows_of(out / "asymptote.csv")
    assert header == ["p_avg_db", "low_snr_npcu", "high_snr_npcu",
                      "capacity_npcu"]
    low, high, cap = (float(v) for v in rows[0][1:])
    assert high == pytest.approx(1.2234372562888, rel=1e-6)
    # at this point low ~ cap exactly; default-tolerance multiplier
    # residual moves capacity by ~ lam * p_avg * 1e-4
    assert low >= cap - 1e-4
    assert cap <= high + 1e-7


def test_asymptote_capacity_column_optional(tmp_path):
    cfg = write(tmp_path, BASE + "\n[output]\ninclude_capacity = false\n")
    out = tmp_path / "out"
    main(["asymptote", "--config", cfg, "--out", str(out)])
    header, _ = rows_of(out / "asymptote.csv")
    assert header == ["p_avg_db", "low_snr_npcu", "high_snr_npcu"]


def test_onoff_command_gap_nonnegative(tmp_path):
    cfg = write(tmp_path, SWEEP.replace("points = 5", "points = 3"))
    out = tmp_path / "out"
    assert main(["onoff", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = rows_of(out / "onoff.csv")
    assert header == ["p_avg_db", "tau_star", "onoff_rate_npcu",
                      "capacity_npcu", "gap_rel"]
    for r in rows:
        assert float(r[4]) >= -1e-9
        assert float(r[2]) <= float(r[3]) + 1e-8


def test_onoff_rejects_imperfect_direct_knowledge(tmp_path, capsys):
    # every grid point is checked before anything is created on disk, also
    # when the sweep's first point (alpha_s = 0) is perfect knowledge
    for text, got in [
            (BASE.replace("sl_csi = perfect", "sl_csi = estimated:0.5"), "estimated(alpha=0.5)"),
            (_sweep_of("alpha_s", 0.0, 0.5), "estimated(alpha=0.25)")]:
        out = tmp_path / "o"
        assert main(["onoff", "--config", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: the on-off scheme thresholds the true direct gain and needs "
            f"perfect direct-link knowledge; got {got}\n")
        assert not out.exists()


# ----------------------------------------------------------------------
# verify command

def test_verify_passes_and_writes_jsonl(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == EXIT_OK
    records = [json.loads(l) for l in
               (out / "verify.jsonl").read_text().splitlines()]
    assert len(records) == 3
    for rec in records:
        assert set(rec) == {"name", "expected", "observed", "tolerance", "pass"}
        assert rec["pass"] is True
    names = {r["name"] for r in records}
    assert "empirical_rate_matches_quadrature" in names
    assert "interference_outage_within_epsilon" in names


def test_verify_jsonl_deterministic(tmp_path):
    cfg = write(tmp_path, BASE)
    out1, out2 = tmp_path / "x", tmp_path / "y"
    main(["verify", "--config", cfg, "--out", str(out1)])
    main(["verify", "--config", cfg, "--out", str(out2), "--threads", "3"])
    assert (out1 / "verify.jsonl").read_bytes() == \
        (out2 / "verify.jsonl").read_bytes()


def test_verify_solves_the_policy_once(tmp_path, monkeypatch, fresh_grids):
    from crcap import capacity, cli, power_allocation
    calls = []
    builds = []

    def counted(config):
        calls.append(solve_lambda(config))
        return calls[-1]

    class Recorded(power_allocation._SlGrid):
        def __init__(self, csi, settings, panels, lam=None):
            builds.append((panels, lam))
            super().__init__(csi, settings, panels, lam)

    monkeypatch.setattr(cli, "solve_lambda", counted)
    monkeypatch.setattr(capacity, "solve_lambda", counted)
    monkeypatch.setattr(power_allocation, "_SlGrid", Recorded)
    cfg = write(tmp_path, BASE)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1
    # the capacity and the expected power read the search's grids from
    # the memo: no grid is built twice, the final trial's included
    assert len(builds) == len(set(builds))
    assert (2 * NumericSettings().base_panels, calls[0].lam) in builds


def test_threaded_sweep_matches_serial_bit_for_bit(fresh_grids):
    # the CLI's sweep threads share the direct-link grid memo without a
    # lock: threads that miss together build the same bits, so the 2-thread
    # pool gives the serial sweep, from an empty memo and from a full one
    from crcap import power_allocation
    est = CsiKnowledge.estimated(0.5)
    base = ScenarioConfig(sl_csi=est, cl_csi=est, p_avg=1.0, i_peak=10.0,
                          epsilon=0.05)
    grid = db_to_linear(np.array([-10.0, -5.0, 0.0, 5.0]))
    serial = [ergodic_capacity(base.with_axis("p_avg", v)) for v in grid]
    assert {r.regime for r in serial} == {"power_limited"}

    def point(v):
        return (ergodic_capacity(base.with_axis("p_avg", v)),)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            power_allocation._sl_grid.cache_clear()
            threaded = [r for (r,) in _map_grid(point, grid, threads=2, strict=True)]
            assert threaded == serial
        threaded = [r for (r,) in _map_grid(point, grid, threads=2, strict=True)]
        assert threaded == serial
    finally:
        sys.setswitchinterval(interval)


def test_verify_corrupt_lambda_fails_power_check(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--corrupt-lambda", "2.0"]) == EXIT_CHECK_FAILED
    records = [json.loads(l) for l in
               (out / "verify.jsonl").read_text().splitlines()]
    power = next(r for r in records if r["name"] == "average_power_meets_budget")
    assert power["pass"] is False
    assert power["observed"] < power["expected"]


def test_verify_perfect_cross_link_expects_no_outage(tmp_path):
    # the cap holds pointwise, so the check passes only at zero outages:
    # the record says so instead of showing epsilon and a 3-sigma band
    cfg = write(tmp_path, BASE.replace("cl_csi = none", "cl_csi = perfect")
                .replace("n_samples = 60000", "n_samples = 20000"))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    records = {r["name"]: r for r in map(
        json.loads, (out / "verify.jsonl").read_text().splitlines())}
    outage = records["interference_outage_within_epsilon"]
    assert outage == {"name": "interference_outage_within_epsilon", "expected": 0.0,
                      "observed": 0.0, "tolerance": 0.0, "pass": True}


def test_verify_unknown_direct_link_may_spend_below_budget(tmp_path):
    # without rescaling, an unknown direct link transmits min(p_avg, cap):
    # at 20 dB it spends about 28 of 100 by design, which passes the
    # within-budget inequality and would fail a meets-budget equality
    cfg = write(tmp_path, BASE.replace("sl_csi = perfect", "sl_csi = none")
                .replace("cl_csi = none", "cl_csi = perfect")
                .replace("p_avg_db = 0.0", "p_avg_db = 20.0")
                .replace("n_samples = 60000", "n_samples = 20000")
                .replace("seed = 11", "seed = 7"))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    records = {r["name"]: r for r in map(
        json.loads, (out / "verify.jsonl").read_text().splitlines())}
    power = records["average_power_within_budget"]
    assert power["pass"] is True
    assert power["expected"] == 100.0 and power["observed"] < 50.0
    assert "average_power_meets_budget" not in records


def test_corrupt_lambda_hidden_from_help():
    from crcap.cli import _build_parser
    parser = _build_parser()
    sub = parser._subparsers._group_actions[0].choices["verify"]
    assert "--corrupt-lambda" not in sub.format_help()


# ----------------------------------------------------------------------
# exit codes and failure plumbing

def test_missing_config_is_config_error(tmp_path):
    assert main(["capacity", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("section, line", [
    ("numerics", "foo = 1"),
    ("numerics", "bisect_tol = 1e-10"),
    ("output", "format = csv"),
], ids=["foo", "bisect_tol", "format"])
def test_unknown_key_is_config_error(tmp_path, capsys, section, line):
    cfg = write(tmp_path, BASE + f"\n[{section}]\n{line}\n")
    assert main(["capacity", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert "config error: unknown key" in capsys.readouterr().err


def test_bad_threads_is_config_error(tmp_path):
    cfg = write(tmp_path, BASE)
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path),
                 "--threads", "0"]) == EXIT_CONFIG_ERROR


def test_rejected_run_creates_no_output_directory(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "new"
    assert main(["capacity", "--config", cfg, "--out", str(out),
                 "--threads", "0"]) == EXIT_CONFIG_ERROR
    assert not out.exists()


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["verify", "--config", cfg, "--out", cfg]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use --out ") and err.count("\n") == 1


def test_map_grid_strict_aborts_with_machine_readable_record():
    def boom(v):
        raise NumericsError("refinement stalled")

    with pytest.raises(NumericsError) as err:
        _map_grid(boom, np.array([1.0]), threads=1, strict=True)
    record = json.loads(str(err.value))
    assert record["error"] == "NumericsError"
    assert record["grid_value"] == 1.0


def test_map_grid_nonstrict_marks_point_and_continues(capsys):
    def sometimes(v):
        if v == 2.0:
            raise NumericsError("bad point")
        return (v * 10.0,)

    out = _map_grid(sometimes, np.array([1.0, 2.0, 3.0]), threads=1,
                    strict=False)
    assert out[0] == (10.0,) and out[1] is None and out[2] == (30.0,)
    assert "bad point" in capsys.readouterr().err


@pytest.mark.parametrize("command, failed", [
    ("capacity", ["nan", "nan", "error", "nan", "nan"]),
    ("asymptote", ["nan"] * 3),
    ("onoff", ["nan"] * 4),
])
def test_sweep_writes_a_failed_point_as_its_failure_row(tmp_path, monkeypatch, capsys,
                                                        command, failed):
    from crcap import cli
    engine = cli.ergodic_capacity

    def flaky(scen):
        if scen.p_avg == 1.0:
            raise NumericsError("refinement stalled")
        return engine(scen)

    monkeypatch.setattr(cli, "ergodic_capacity", flaky)
    cfg = write(tmp_path, SWEEP.replace("points = 5", "points = 3"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == EXIT_OK
    assert "refinement stalled" in capsys.readouterr().err
    header, rows = rows_of(out / f"{command}.csv")
    assert [r[0] for r in rows] == ["-10", "0", "10"]
    assert rows[1][1:] == failed
    for r in (rows[0], rows[2]):
        assert len(r) == len(header) and "nan" not in r and "error" not in r
    assert main([command, "--config", cfg, "--out", str(out),
                 "--strict"]) == EXIT_NUMERICAL


def test_console_script_entry_point(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    proc = subprocess.run(["crcap", "capacity", "--config", cfg,
                           "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "capacity.csv").exists()
    assert "wrote" in proc.stdout


@pytest.mark.parametrize("runs", [[], [("capacity", "capacity_budget_estimated.ini"),
                                       ("onoff", "onoff_gap_none.ini"),
                                       ("verify", "verify_smoke.ini")]],
                         ids=["import", "recipes"])
def test_cli_loads_no_scipy_module(runs, tmp_path):
    # every CLI run is a fresh process that pays for what it loads: scipy
    # cost about 0.25 s of each start and doubled its peak RSS. Not one
    # scipy module may load, at `import crcap.cli` or lazily in a
    # capacity (estimated cross link), onoff or verify run
    src = str(Path(crcap.__file__).resolve().parent.parent)
    configs = Path(src).parent / "configs"
    calls = [[command, "--config", str(configs / ini), "--out", str(tmp_path / command)]
             for command, ini in runs]
    code = ("import sys; sys.path.insert(0, %r); import crcap.cli\n"
            "assert all(crcap.cli.main(argv) == 0 for argv in %r)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            % (src, calls))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.strip().splitlines()[-1]) == []
