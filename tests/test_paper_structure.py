"""The paper's structure, checked without an oracle.

On-off transmission, the paper's baseline, is a feasible policy under the
same average-power budget and interference-outage constraint as the
optimal one. So the optimal policy's ergodic capacity is at least the best
on-off rate: C >= optimize_threshold's rate - err, err the capacity's
reported quadrature error.
"""

import numpy as np
import pytest

from crcap.capacity import ergodic_capacity
from crcap.fading import CsiKnowledge
from crcap.onoff import optimize_threshold
from crcap.power_allocation import ScenarioConfig

CROSS = {"P": CsiKnowledge.perfect(), "E": CsiKnowledge.estimated(0.5),
         "N": CsiKnowledge.no_csi()}
BUDGETS_DB = np.linspace(-10.0, 30.0, 6)


@pytest.mark.parametrize("p_avg_db", BUDGETS_DB, ids=[f"{p:g}dB" for p in BUDGETS_DB])
@pytest.mark.parametrize("code", ["PP", "PE", "PN"])
def test_capacity_is_at_least_the_best_onoff_rate(code, p_avg_db):
    cfg = ScenarioConfig(sl_csi=CsiKnowledge.perfect(), cl_csi=CROSS[code[1]],
                         p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05)
    res = ergodic_capacity(cfg)
    _, onoff = optimize_threshold(cfg)
    assert res.capacity >= onoff - res.quadrature_error_estimate
