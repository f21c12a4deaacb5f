"""On-off transmission checks: burst level, rate, threshold search.

Anchors come from a scipy route (bounded minimize_scalar over the
closed-form burst rate) run outside this package.
"""

import math

import numpy as np
import pytest
from scipy import special

from crcap.capacity import ergodic_capacity
from crcap.fading import CsiKnowledge
from crcap.onoff import OnOffPolicy, on_level, onoff_rate, optimize_threshold
from crcap import power_allocation
from crcap.power_allocation import NumericSettings, ScenarioConfig

TIGHT = NumericSettings(lambda_rel_tol=1e-7)
PERFECT = CsiKnowledge.perfect()
NONE = CsiKnowledge.no_csi()
EST = CsiKnowledge.estimated(0.5)


def scenario(cl, p_avg=1.0, i_peak=10.0, eps=0.05, sl=PERFECT):
    return ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=p_avg, i_peak=i_peak,
                          epsilon=eps, numerics=TIGHT)


def test_on_level_no_knowledge_is_capped_burst():
    cfg = scenario(NONE)
    # burst budget below the cap
    assert on_level(0.2, None, cfg) == pytest.approx(math.exp(0.2), rel=1e-12)
    # far above: clipped to the constant cap
    assert on_level(5.0, None, cfg) == pytest.approx(3.338082006953341,
                                                     rel=1e-12)


def test_on_level_perfect_cross_tracks_state():
    cfg = scenario(PERFECT)
    gp = np.array([0.5, 2.0, 100.0])
    lvl = on_level(1.0, gp, cfg)
    np.testing.assert_allclose(lvl, np.minimum(math.e, 10.0 / gp), rtol=1e-12)


def test_policy_needs_true_direct_gain():
    with pytest.raises(ValueError):
        OnOffPolicy(tau=0.5, config=scenario(NONE, sl=EST))
    with pytest.raises(ValueError):
        OnOffPolicy(tau=0.5, config=scenario(NONE, sl=NONE))
    with pytest.raises(ValueError):
        optimize_threshold(scenario(NONE, sl=NONE))


def test_policy_power_thresholds_gain():
    pol = OnOffPolicy(tau=0.5, config=scenario(NONE))
    g = np.array([0.1, 0.5, 2.0])
    p = pol.power(sl_state=g)
    assert p[0] == 0.0
    lvl = min(math.exp(0.5), 3.338082006953341)
    assert p[1] == pytest.approx(lvl)  # threshold is inclusive
    assert p[2] == pytest.approx(lvl)
    assert pol.budget_level == pytest.approx(math.exp(0.5), rel=1e-12)
    assert pol.sl_state_kind == "gain" and pol.cl_state_kind == "none"


def test_rate_at_zero_threshold_constant_power():
    # tau = 0 transmits always at min(p_avg, cap): closed form e E1(1)
    cfg = scenario(NONE)
    assert onoff_rate(0.0, cfg) == pytest.approx(
        math.e * special.exp1(1.0), rel=1e-9)


def test_rate_closed_form_none_cross():
    # for the constant cap the burst rate has a closed form:
    # e^-tau ln(1+P tau) + e^{1/P} E1(tau + 1/P), P = min(p e^tau, cap)
    cfg = scenario(NONE)
    for tau in [0.3, 1.0, 2.5]:
        p0 = min(math.exp(tau), 3.338082006953341)
        x = tau + 1.0 / p0
        closed = math.exp(-tau) * math.log1p(p0 * tau) \
            + math.exp(1.0 / p0) * special.exp1(x) * math.exp(tau) * math.exp(-tau)
        # regroup to avoid overflow: e^{-tau} ln(...) + e^{x} E1(x) e^{-tau}
        closed = math.exp(-tau) * (math.log1p(p0 * tau)
                                   + math.exp(x) * special.exp1(x))
        assert onoff_rate(tau, cfg) == pytest.approx(closed, rel=1e-9)


def test_optimum_none_cross_frozen():
    tau, rate = optimize_threshold(scenario(NONE))
    assert tau == pytest.approx(0.56372252, abs=2e-6)
    assert rate == pytest.approx(0.70334931, abs=1e-7)


def test_optimum_none_cross_low_budget_frozen():
    tau, rate = optimize_threshold(scenario(NONE, p_avg=0.01))
    assert tau == pytest.approx(2.80307181, abs=2e-5)
    assert rate == pytest.approx(0.02924002, abs=1e-7)


def test_optimum_saturates_at_zero_threshold():
    # budget can afford the cap outright: always-on at the cap is optimal
    cfg = scenario(NONE, p_avg=5.0)
    tau, rate = optimize_threshold(cfg)
    assert tau == 0.0
    assert rate == pytest.approx(1.2234372562888, rel=1e-9)


def test_optimum_perfect_cross_positive_threshold():
    cfg = scenario(PERFECT)
    tau, rate = optimize_threshold(cfg)
    assert tau > 0.0
    assert rate > onoff_rate(0.0, cfg)
    # a neighborhood scan cannot beat the returned optimum
    for t in np.linspace(max(tau - 0.2, 0.0), tau + 0.2, 9):
        assert onoff_rate(float(t), cfg) <= rate + 1e-9


def test_onoff_never_beats_capacity():
    # the optimal policy dominates the on-off scheme everywhere; equal
    # values can order either way within quadrature error at saturation
    for cl in [PERFECT, EST, NONE]:
        for p_avg in [0.1, 1.0, 5.0]:
            cfg = scenario(cl, p_avg=p_avg)
            _, rate = optimize_threshold(cfg)
            cap = ergodic_capacity(cfg).capacity
            assert rate <= cap + 1e-8, (cl.describe(), p_avg)


def test_onoff_gap_shrinks_with_budget():
    # the scheme approaches optimal at high budget, where both hit the cap
    gaps = []
    for p_avg in [0.01, 1.0, 5.0]:
        cfg = scenario(NONE, p_avg=p_avg)
        _, rate = optimize_threshold(cfg)
        cap = ergodic_capacity(cfg).capacity
        gaps.append((cap - rate) / cap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-8


def test_cross_knowledge_rate_ordering_not_monotone():
    # cross-link knowledge is NOT monotone-beneficial under an outage
    # constraint: with no knowledge the cap gets to spend the epsilon
    # outage allowance, while perfect knowledge must respect the peak in
    # every state. At these parameters the frozen ordering is
    # none > perfect > estimated, and all three sit within 7e-4.
    rates = {}
    for name, cl in [("p", PERFECT), ("e", EST), ("n", NONE)]:
        rates[name] = optimize_threshold(scenario(cl))[1]
    assert rates["n"] > rates["p"] > rates["e"]
    assert rates["n"] - rates["e"] < 7e-4


def test_rate_rejects_negative_threshold():
    with pytest.raises(ValueError):
        onoff_rate(-0.1, scenario(NONE))


def test_threshold_search_builds_the_cap_table_once(monkeypatch):
    fast = NumericSettings(quad_points=8, base_panels=4, max_refinements=2)
    cfg = ScenarioConfig(sl_csi=PERFECT, cl_csi=EST, p_avg=1.0, i_peak=10.0,
                         epsilon=0.05, numerics=fast)
    builds = []
    init = power_allocation._CapField.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(power_allocation._CapField, "__init__", counting_init)
    power_allocation._cap_table.cache_clear()
    optimize_threshold(cfg)
    assert len(builds) == 1
