"""Fixtures shared by the test modules."""

import pytest

from crcap import power_allocation


@pytest.fixture
def fresh_grids():
    """An empty direct-link grid memo (power_allocation._sl_grid), emptied
    again afterwards: counts of the work a solve does start cold, and
    grids built under a patch never reach another test."""
    power_allocation._sl_grid.cache_clear()
    yield
    power_allocation._sl_grid.cache_clear()
