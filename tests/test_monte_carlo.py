"""Simulator checks: reproducibility, agreement with quadrature, outage.

The simulator is a deliberately independent route: it draws channel
states, evaluates the policy per sample, and averages. Agreement is
asserted at 3 binomial/CLT sigmas so these tests are deterministic for
the pinned seeds yet sensitive to real defects.
"""

import math

import numpy as np
import pytest
from scipy import special

from crcap.capacity import ergodic_capacity
from crcap.fading import CsiKnowledge, sample_channel_pair
from crcap.monte_carlo import (
    SHARD_SIZE,
    SimReport,
    simulate_policy,
    verify_outage,
)
from crcap.power_allocation import NumericSettings, ScenarioConfig, solve_lambda
from oracles import OnOffPolicy

TIGHT = NumericSettings(lambda_rel_tol=1e-7)
PERFECT = CsiKnowledge.perfect()
NONE = CsiKnowledge.no_csi()
EST = CsiKnowledge.estimated(0.5)


def scenario(sl, cl, p_avg=1.0, i_peak=10.0, eps=0.05):
    return ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=p_avg, i_peak=i_peak,
                          epsilon=eps, numerics=TIGHT)


class ConstantPolicy:
    """Minimal external policy: transmit a fixed level regardless of state."""

    def __init__(self, level: float):
        self.level = level
        self.sl_state_kind = "none"
        self.cl_state_kind = "none"

    def power(self, sl_state=None, cl_state=None):
        if sl_state is None:
            return self.level
        return np.full(np.asarray(sl_state).shape[0], self.level)


def test_same_seed_same_report():
    cfg = scenario(PERFECT, NONE)
    pol = solve_lambda(cfg)
    r1 = simulate_policy(pol, cfg, 120_000, seed=5)
    r2 = simulate_policy(pol, cfg, 120_000, seed=5)
    assert r1 == r2


def test_threads_do_not_change_the_report():
    cfg = scenario(PERFECT, EST)
    pol = solve_lambda(cfg)
    serial = simulate_policy(pol, cfg, 200_000, seed=9, threads=1)
    threaded = simulate_policy(pol, cfg, 200_000, seed=9, threads=4)
    assert serial == threaded


def test_different_seed_different_samples():
    cfg = scenario(PERFECT, NONE)
    pol = solve_lambda(cfg)
    r1 = simulate_policy(pol, cfg, 50_000, seed=1)
    r2 = simulate_policy(pol, cfg, 50_000, seed=2)
    assert r1.empirical_rate != r2.empirical_rate


def test_sample_count_not_multiple_of_shard():
    cfg = scenario(PERFECT, NONE)
    pol = solve_lambda(cfg)
    n = SHARD_SIZE + 12_345
    r = simulate_policy(pol, cfg, n, seed=3)
    assert r.n_samples == n


def test_zero_power_policy_exact():
    cfg = scenario(PERFECT, NONE)
    r = simulate_policy(ConstantPolicy(0.0), cfg, 10_000, seed=4)
    assert r.empirical_rate == 0.0
    assert r.empirical_avg_power == 0.0
    assert r.outage_fraction == 0.0


def test_constant_power_matches_closed_form_rate():
    # E log(1+g) = e E1(1) for unit power on Rayleigh
    cfg = scenario(NONE, NONE)
    r = simulate_policy(ConstantPolicy(1.0), cfg, 1_000_000, seed=6)
    closed = math.e * special.exp1(1.0)
    assert abs(r.empirical_rate - closed) <= 3.0 * r.rate_ci
    assert r.empirical_avg_power == pytest.approx(1.0, abs=1e-12)


def test_optimal_policy_rate_matches_quadrature():
    cfg = scenario(PERFECT, PERFECT)
    pol = solve_lambda(cfg)
    res = ergodic_capacity(cfg)
    r = simulate_policy(pol, cfg, 1_000_000, seed=7)
    assert abs(r.empirical_rate - res.capacity) <= 3.0 * r.rate_ci
    assert abs(r.empirical_avg_power - cfg.p_avg) <= 3.0 * r.power_ci


def test_estimated_both_links_matches_quadrature():
    cfg = scenario(EST, EST)
    pol = solve_lambda(cfg)
    res = ergodic_capacity(cfg)
    r = simulate_policy(pol, cfg, 1_000_000, seed=8)
    assert abs(r.empirical_rate - res.capacity) <= 3.0 * r.rate_ci
    assert abs(r.empirical_avg_power - cfg.p_avg) <= 3.0 * r.power_ci


def test_paired_draws_resolve_the_knowledge_gap():
    # common random numbers: PP and EP (alpha_s 1e-4) at 10 dB read one
    # draw, the true gain and its estimate, so the per-sample rate
    # difference has a CI about 100 times narrower than either rate and
    # resolves their 3.8e-5 capacity gap; the PCHIP budget table that
    # EP's per-sample rule once read lost 6.4e-5 more, 7.6 sigma here
    ns = NumericSettings(lambda_rel_tol=1e-12, base_panels=32)
    est = CsiKnowledge.estimated(1e-4)
    cfgs = [ScenarioConfig(sl_csi=sl, cl_csi=PERFECT, p_avg=10.0, i_peak=10.0,
                           epsilon=0.05, numerics=ns) for sl in (PERFECT, est)]
    pp, ep = (solve_lambda(c) for c in cfgs)
    c_pp, c_ep = (ergodic_capacity(c) for c in cfgs)
    rng = np.random.Generator(np.random.Philox(1))
    sl = sample_channel_pair(est, rng, 1_000_000)
    cl = sample_channel_pair(PERFECT, rng, 1_000_000)
    diff = (np.log1p(pp.power(sl.gain, cl.gain) * sl.gain)
            - np.log1p(ep.power(sl.estimate, cl.gain) * sl.gain))
    sigma = diff.std() / math.sqrt(diff.size)
    assert abs(diff.mean() - (c_pp.capacity - c_ep.capacity)) <= 4.0 * sigma \
        + c_pp.quadrature_error_estimate + c_ep.quadrature_error_estimate


def test_saturated_policy_spends_mean_cap():
    cfg = scenario(PERFECT, EST, p_avg=6.0)
    pol = solve_lambda(cfg)
    assert pol.regime == "saturated"
    r = simulate_policy(pol, cfg, 500_000, seed=10)
    assert abs(r.empirical_avg_power - pol.p_avg_star) <= 3.0 * r.power_ci


def test_perfect_cross_knowledge_zero_outage():
    cfg = scenario(PERFECT, PERFECT)
    pol = solve_lambda(cfg)
    ok, report = verify_outage(pol, cfg, 500_000, seed=11)
    assert ok
    assert report.outage_fraction == 0.0


def test_saturated_estimated_cross_outage_near_epsilon():
    # at saturation the cap binds in every state, so each conditioning
    # decile runs at the full epsilon outage allowance
    cfg = scenario(PERFECT, EST, p_avg=6.0)
    pol = solve_lambda(cfg)
    ok, report = verify_outage(pol, cfg, 1_000_000, seed=12)
    assert ok
    for b in report.bins:
        assert b.count > 50_000
        sigma = math.sqrt(0.05 * 0.95 / b.count)
        assert abs(b.outage_rate - 0.05) <= 4.0 * sigma


def test_no_cross_knowledge_outage_near_epsilon_when_cap_binds():
    # saturated none-cross policy transmits the constant cap, which was
    # built to exceed i_peak/gp with probability exactly epsilon
    cfg = scenario(PERFECT, NONE, p_avg=5.0)
    pol = solve_lambda(cfg)
    ok, report = verify_outage(pol, cfg, 1_000_000, seed=13)
    assert ok
    assert report.outage_fraction == pytest.approx(0.05, abs=3.0 * report.outage_ci)


def test_power_limited_outage_below_epsilon():
    # when the budget component often sits under the cap, realized outage
    # drops strictly below the allowance
    cfg = scenario(PERFECT, NONE, p_avg=1.0)
    pol = solve_lambda(cfg)
    ok, report = verify_outage(pol, cfg, 400_000, seed=14)
    assert ok
    assert report.outage_fraction < 0.05


def test_onoff_policy_through_simulator():
    cfg = scenario(PERFECT, NONE)
    pol = OnOffPolicy(tau=0.56372252, config=cfg)
    r = simulate_policy(pol, cfg, 1_000_000, seed=15)
    assert abs(r.empirical_rate - 0.70334931) <= 3.0 * r.rate_ci
    assert abs(r.empirical_avg_power - 1.0) <= 3.0 * r.power_ci


def test_interface_guard_rejects_mismatched_policy():
    cfg = scenario(PERFECT, PERFECT)

    class WrongKind(ConstantPolicy):
        def __init__(self):
            super().__init__(1.0)
            self.cl_state_kind = "estimate"  # scenario provides a true gain

    with pytest.raises(ValueError):
        simulate_policy(WrongKind(), cfg, 10_000, seed=1)


def test_policy_output_validation():
    cfg = scenario(PERFECT, NONE)

    class Negative(ConstantPolicy):
        def power(self, sl_state=None, cl_state=None):
            return np.full(np.asarray(sl_state).shape[0], -1.0)

    neg = Negative(0.0)
    neg.sl_state_kind = "gain"
    with pytest.raises(ValueError):
        simulate_policy(neg, cfg, 10_000, seed=1)


def test_minimum_sample_count_enforced():
    cfg = scenario(PERFECT, NONE)
    pol = solve_lambda(cfg)
    with pytest.raises(ValueError):
        simulate_policy(pol, cfg, 500, seed=1)


def test_ci_shrinks_like_root_n():
    cfg = scenario(PERFECT, NONE)
    pol = solve_lambda(cfg)
    small = simulate_policy(pol, cfg, 100_000, seed=16)
    large = simulate_policy(pol, cfg, 400_000, seed=16)
    ratio = small.rate_ci / large.rate_ci
    assert ratio == pytest.approx(2.0, abs=0.2)


def test_report_carries_samples_seed_and_ten_bins():
    cfg = scenario(PERFECT, EST)
    pol = solve_lambda(cfg)
    r = simulate_policy(pol, cfg, 50_000, seed=17)
    assert isinstance(r, SimReport)
    assert r.n_samples == 50_000 and r.seed == 17
    assert len(r.bins) == 10
    assert sum(b.count for b in r.bins) == 50_000


# float.hex of (empirical_rate, rate_ci, empirical_avg_power, power_ci,
# outage_fraction, outage_ci), then the bins' counts and outages, of
# 300,001 samples at seed 19 (five shards, the last one short). EE's
# rate and power rose by 1.4e-8 and 2.3e-8 relative when its budget rule
# became the Chebyshev series of the row inversion: inverting every
# sample with _mgf_invert_rate gives this rate within 1 ulp, this power
# and these counts and outages exactly. Its power_ci moved by 8 ulps
# (0x1.abf9f369194a8p-10 before) when the series' top estimate became the
# grid's -(1 - alpha) ln(tail_mass); the per-sample inversion gives
# 0x1.abf9f369194a0p-10, the half-width's cancellation magnifying the
# rounding of the squared powers
FROZEN_REPORTS = {
    "EE": (
        ("0x1.3d6482e5c2083p-1", "0x1.fbbef7ffdeca9p-10", "0x1.0055c38cf0174p+0",
         "0x1.abf9f369194b0p-10", "0x1.450eb6c73cc05p-11", "0x1.7599a64c179e8p-14"),
        [29994, 29563, 30266, 29972, 30110, 29943, 30059, 30221, 29744, 30129],
        [0, 1, 1, 0, 1, 3, 7, 11, 22, 140]),
    "PN": (
        ("0x1.6e131e4d12a89p-1", "0x1.4fa1fd88b5aedp-9", "0x1.00a74f7dde31ap+0",
         "0x1.9080681039fe3p-9", "0x1.34e4590b17aa6p-9", "0x1.6be0182b00a0ap-13"),
        [300001],
        [707]),
    "NN": (
        ("0x1.32140baf056b8p-1", "0x1.8ac5f62dddad7p-10", "0x1.0000000000000p+0",
         "0x0.0p+0", "0x1.f75096e1ea741p-16", "0x1.48d244d387d51p-16"),
        [300001],
        [9]),
    "onoff PE": (
        ("0x1.683d8ed6ec3aep-1", "0x1.2e91b63aad71bp-9", "0x1.004132e8477fdp+0",
         "0x1.7966b9db0ee97p-9", "0x1.3b7210575e0d3p-10", "0x1.042a055724886p-13"),
        [29994, 29563, 30266, 29972, 30110, 29943, 30059, 30221, 29744, 30129],
        [0, 2, 1, 0, 3, 6, 11, 12, 47, 279]),
}
_FROZEN_FIELDS = ("empirical_rate", "rate_ci", "empirical_avg_power", "power_ci",
                  "outage_fraction", "outage_ci")


def _assert_frozen(key, report):
    floats, counts, outages = FROZEN_REPORTS[key]
    assert tuple(float(getattr(report, f)).hex() for f in _FROZEN_FIELDS) == floats
    assert [b.count for b in report.bins] == counts
    assert [b.outages for b in report.bins] == outages


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("code", ["EE", "PN", "NN"])
def test_reports_are_frozen_bit_for_bit(code, threads):
    # the simulator's draws, policy reads, sums and tallies may be
    # rearranged, but not one bit of a report may move
    levels = {"P": PERFECT, "E": EST, "N": NONE}
    cfg = scenario(levels[code[0]], levels[code[1]])
    report = simulate_policy(solve_lambda(cfg), cfg, 300_001, seed=19, threads=threads)
    _assert_frozen(code, report)


def test_onoff_report_is_frozen_bit_for_bit():
    cfg = scenario(PERFECT, EST)
    report = simulate_policy(OnOffPolicy(tau=0.5, config=cfg), cfg, 300_001,
                             seed=19, threads=3)
    _assert_frozen("onoff PE", report)
