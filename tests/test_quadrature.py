"""Quadrature checks: panel rules against exact integrals, and the
panel-doubling driver with the values it feeds."""

import math

import numpy as np
import pytest

from crcap.capacity import high_budget_asymptote
from crcap.fading import CsiKnowledge
from crcap.onoff import onoff_rate
from crcap.power_allocation import (
    NumericSettings,
    ScenarioConfig,
    average_power_threshold,
)
from crcap.quadrature import _refine, panel_rule, panel_rule_batch


def test_panel_rule_polynomial_exactness():
    # an n-point Gauss rule is exact through degree 2n-1 on each panel
    nodes, weights = panel_rule([0.0, 1.3, 2.0, 5.0], points=8)
    for k in range(0, 16):
        exact = 5.0 ** (k + 1) / (k + 1)
        assert weights @ nodes**k == pytest.approx(exact, rel=1e-13)


def test_panel_rule_weights_sum_to_length():
    nodes, weights = panel_rule([2.0, 3.0, 10.0], points=6)
    assert weights.sum() == pytest.approx(8.0, rel=1e-14)
    assert nodes.min() > 2.0 and nodes.max() < 10.0


def test_panel_rule_batch_matches_single():
    lo = np.array([0.0, 1.0])
    hi = np.array([2.0, 4.0])
    nodes, weights = panel_rule_batch(lo, hi, n_panels=5, points=7)
    assert nodes.shape == weights.shape == (2, 35)
    for i in range(2):
        edges = np.linspace(lo[i], hi[i], 6)
        n1, w1 = panel_rule(edges, points=7)
        np.testing.assert_allclose(nodes[i], n1, rtol=1e-14)
        np.testing.assert_allclose(weights[i], w1, rtol=1e-14)


def test_panel_rule_batch_empty_rows_get_zero_weight():
    nodes, weights = panel_rule_batch(np.array([1.0, 3.0]), np.array([2.0, 3.0]),
                                      n_panels=3, points=4)
    assert weights[1].sum() == 0.0
    f = nodes**2
    assert weights[0] @ f[0] == pytest.approx((8.0 - 1.0) / 3.0, rel=1e-13)


# ----------------------------------------------------------------------
# the panel-doubling driver

def _recorded(levels):
    """evaluate(panels) returning levels[k] at call k, and its call log."""
    calls = []

    def evaluate(panels):
        calls.append(panels)
        return levels[len(calls) - 1]

    return evaluate, calls


def test_refine_stops_at_first_agreeing_pair():
    evaluate, calls = _recorded([1.0, 2.0, 2.0 + 1e-8, 2.0 + 2e-8, 5.0])
    ns = NumericSettings(quad_rel_tol=1e-7, base_panels=3, max_refinements=4)
    val, err = _refine(evaluate, ns)
    assert calls == [3, 6, 12]
    assert val == 2.0 + 1e-8
    assert err == abs((2.0 + 1e-8) - 2.0)


def test_refine_absolute_floor_stops_tiny_values():
    # 5e-13 is far above 1e-7 of 1e-9, but within the 1e-12 floor
    evaluate, calls = _recorded([1e-9, 1e-9 + 5e-13, 0.0])
    val, err = _refine(evaluate, NumericSettings())
    assert calls == [8, 16]
    assert val == 1e-9 + 5e-13


def test_refine_budget_exhausted_returns_last_level_and_change():
    evaluate, calls = _recorded([1.0, 0.5, 0.25])
    ns = NumericSettings(base_panels=2, max_refinements=2)
    val, err = _refine(evaluate, ns)
    assert calls == [2, 4, 8]
    assert (val, err) == (0.25, 0.25)


def test_refine_without_refinements_has_no_error_estimate():
    evaluate, calls = _recorded([0.7])
    val, err = _refine(evaluate, NumericSettings(max_refinements=0))
    assert calls == [8]
    assert val == 0.7 and err == math.inf


def test_refine_array_elements_stop_at_their_own_level():
    # element 0 agrees at the second level, element 1 at the third, and
    # element 2 never: each keeps its own stopping level's value and change
    levels = [np.array([1.0, 1.0, 1.0]),
              np.array([1.0 + 1e-9, 2.0, 2.0]),
              np.array([7.0, 2.0 + 1e-8, 3.0]),
              np.array([9.0, 9.0, 4.0])]
    evaluate, calls = _recorded(levels)
    ns = NumericSettings(quad_rel_tol=1e-7, base_panels=2, max_refinements=3)
    val, err = _refine(evaluate, ns)
    assert calls == [2, 4, 8, 16]
    np.testing.assert_array_equal(val, [1.0 + 1e-9, 2.0 + 1e-8, 4.0])
    np.testing.assert_array_equal(err, [abs((1.0 + 1e-9) - 1.0),
                                        abs((2.0 + 1e-8) - 2.0), 1.0])


def test_refine_array_stops_when_every_element_agrees():
    evaluate, calls = _recorded([np.array([1.0, 3.0]), np.array([1.0, 3.0]), None])
    val, err = _refine(evaluate, NumericSettings(base_panels=4))
    assert calls == [4, 8]
    np.testing.assert_array_equal(val, [1.0, 3.0])
    np.testing.assert_array_equal(err, [0.0, 0.0])


# values keyed by (epsilon, i_peak): the average-power threshold (the cap
# table's mean cap, within 3.7e-16 of an 8192-panel Gauss-Legendre rule of
# the same cap; the refined rule it replaced stopped 1.2e-8 to 5.4e-8
# high), and, from the refinement loops that _refine replaced, the
# high-budget asymptote (_refine itself) and onoff_rate at tau = 0.7 under
# a perfect direct link (a 1e-13 floor). The tiny i_peak puts values near
# 1e-5, where the driver's 1e-12 floor could stop earlier; it must not
# move a bit.
_FROZEN_REFINED = {
    (1e-6, 1e-4): (1.0720978406153099e-05, 1.0720860273722073e-05,
                   9.050482372428152e-06),
    (1e-6, 10.0): (1.0720978406153099, 0.6211587093423998,
                   0.48396059027378496),
    (0.3, 1e-4): (9.720551337147696e-05, 9.719469923007448e-05,
                  8.204996495830189e-05),
    (0.3, 10.0): (9.720551337147699, 1.9377943066671555,
                  0.6984006456967599),
}
_KNOWLEDGE = {"P": CsiKnowledge.perfect(), "E": CsiKnowledge.estimated(0.5),
              "N": CsiKnowledge.no_csi()}


@pytest.mark.parametrize("code", ["PE", "EE", "NE"])
@pytest.mark.parametrize("eps, i_peak", list(_FROZEN_REFINED),
                         ids=[f"eps{e:g}-ipeak{i:g}" for e, i in _FROZEN_REFINED])
def test_refined_values_frozen_bit_for_bit(code, eps, i_peak):
    cfg = ScenarioConfig(sl_csi=_KNOWLEDGE[code[0]], cl_csi=_KNOWLEDGE[code[1]],
                         p_avg=1.0, i_peak=i_peak, epsilon=eps)
    threshold, high, onoff = _FROZEN_REFINED[eps, i_peak]
    assert average_power_threshold(cfg) == threshold
    assert high_budget_asymptote(cfg) == high
    if code[0] == "P":
        assert onoff_rate(0.7, cfg) == onoff
