"""Fixtures shared by the test modules.

The benchmark's own checks (benchmarks/recipes.py, workloads.py) are
importable here, read-only, so tier-1 applies the same gates to the
recipe outputs and the on-off search.
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
