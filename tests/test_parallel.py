"""fork_map: the worker processes behind --threads and simulate_policy's threads.

A map over forked workers must give the serial map's results, in item
order and to the bit, re-raise what a worker raised, and leave no child
behind, whether it succeeds or fails. At most 3 workers here.
"""

import os
import threading

import numpy as np
import pytest

from crcap import power_allocation
from crcap._parallel import fork_map
from crcap.capacity import ergodic_capacity
from crcap.cli import EXIT_OK, main
from crcap.fading import CsiKnowledge
from crcap.monte_carlo import simulate_policy
from crcap.power_allocation import ScenarioConfig, solve_lambda

EST = CsiKnowledge.estimated(0.5)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cold():
    for memo in (power_allocation._sl_grid, power_allocation._budget_series,
                 power_allocation._cap_table):
        memo.cache_clear()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_estimated_direct_sweep_keeps_order_and_bits(workers, fresh_grids):
    # each run starts from empty memos, so item 0's warm-up is the only
    # thing the workers inherit
    base = ScenarioConfig(sl_csi=EST, cl_csi=EST, p_avg=1.0, i_peak=10.0, epsilon=0.05)
    grid = 10.0 ** (np.array([-10.0, -5.0, 0.0, 5.0, 10.0]) / 10.0)

    def point(v):
        r = ergodic_capacity(base.with_axis("p_avg", v))
        return r.capacity.hex(), r.lam.hex(), r.regime, r.quadrature_error_estimate.hex()

    _cold()
    serial = [point(v) for v in grid]
    _cold()
    assert fork_map(point, grid, workers) == serial
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_policy_keeps_its_bits(workers):
    cfg = ScenarioConfig(sl_csi=EST, cl_csi=EST, p_avg=1.0, i_peak=10.0, epsilon=0.05)
    pol = solve_lambda(cfg)
    serial = simulate_policy(pol, cfg, 300_001, seed=3, threads=1)
    report = simulate_policy(pol, cfg, 300_001, seed=3, threads=workers)
    assert report == serial
    assert [v.hex() for v in vars(report).values() if isinstance(v, float)] == \
        [v.hex() for v in vars(serial).values() if isinstance(v, float)]
    assert_no_child()


def test_item_zero_runs_in_the_caller_and_others_in_workers():
    pids = fork_map(lambda i: os.getpid(), range(5), 3)
    assert pids[0] == os.getpid()
    assert any(pid != os.getpid() for pid in pids[1:])
    # the caller's share is the last, dealt round-robin after item 0
    assert pids[3] == os.getpid() and len(set(pids)) == 3
    assert_no_child()


def test_a_worker_exception_is_raised_in_the_caller():
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            raise ValueError(f"item {i} failed in a worker")
        return i

    with pytest.raises(ValueError, match=r"^item 1 failed in a worker$"):
        fork_map(fn, range(4), 2)
    assert_no_child()


def test_a_worker_that_dies_without_a_result_is_an_error():
    caller = os.getpid()

    def fn(i):
        if i == 1 and os.getpid() != caller:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="without a result"):
        fork_map(fn, range(4), 2)
    assert_no_child()


def test_workers_are_reaped_when_the_caller_fails():
    caller = os.getpid()

    def fn(i):
        if i > 0 and os.getpid() == caller:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        fork_map(fn, range(6), 3)
    assert_no_child()


def test_a_sweep_writes_its_lines_once(tmp_path, capfd):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nsl_csi = perfect\ncl_csi = none\np_avg_db = 0.0\n"
                   "i_peak_db = 10.0\nepsilon = 0.05\n\n[sweep]\naxis = p_avg\n"
                   "start = -10\nstop = 10\npoints = 5\nspacing = linear\n",
                   encoding="utf-8")
    print("pending", end="")  # left in the buffer when the workers fork
    assert main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--threads", "3"]) == EXIT_OK
    out = capfd.readouterr().out
    assert out.count("pending") == 1
    assert out.count(f"wrote {tmp_path / 'out' / 'capacity.csv'}\n") == 1
    assert out.count("wrote ") == 2  # the CSV and its plot script
    assert_no_child()


def test_the_map_is_serial_inside_a_running_thread():
    pids = []
    worker = threading.Thread(target=lambda: pids.extend(fork_map(lambda i: os.getpid(),
                                                                  range(4), 3)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert pids == [os.getpid()] * 4
