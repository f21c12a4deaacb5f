"""Fixtures shared by the test modules.

The benchmark's own checks (benchmarks/recipes.py, workloads.py) are
importable here, read-only, so tier-1 applies the same gates to the
recipe outputs and the on-off search.

Every test must reap the child processes it starts (no_child_left): the
forked workers of crcap._parallel.fork_map, and any subprocess.
"""

import os
import sys

import pytest

from crcap import power_allocation

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))


@pytest.fixture
def fresh_grids():
    """Empty direct-link memos (power_allocation._sl_grid and
    _budget_series), emptied again afterwards: counts of the work a
    solve does start cold, and entries built under a patch never reach
    another test."""
    memos = (power_allocation._sl_grid, power_allocation._budget_series)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
