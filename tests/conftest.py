"""Fixtures shared by the test modules."""

import pytest

from crcap import power_allocation


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
