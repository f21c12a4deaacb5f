"""End-to-end acceptance gate: nine numbered criteria, one test each.

Run with -v to get one pass/fail line per criterion; each test also
prints an ACCEPTANCE line with the measured numbers (visible with -s).
Tolerances are part of the contract and must not be loosened to make a
failing build green.
"""

import math

import numpy as np
import pytest

from crcap.capacity import ergodic_capacity, high_budget_asymptote
from crcap.fading import CsiKnowledge, conditional_power_inv_cdf
from crcap.monte_carlo import simulate_policy, verify_outage
from crcap.onoff import optimize_threshold
from crcap.power_allocation import (
    NumericSettings,
    ScenarioConfig,
    average_power_threshold,
    solve_lambda,
)
from oracles import (
    conditional_power_cdf,
    conditional_power_pdf,
    conditional_support_bound,
    invert_rate_integral,
    marcum_q1,
    rate_integral,
)

PERFECT = CsiKnowledge.perfect()
NONE = CsiKnowledge.no_csi()


def est(alpha):
    return CsiKnowledge.estimated(alpha)


def scenario(sl, cl, p_avg=1.0, i_peak=10.0, eps=0.05, **kw):
    return ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=p_avg, i_peak=i_peak,
                          epsilon=eps, **kw)


def capacities(cfg, axis, grid):
    return [ergodic_capacity(cfg.with_axis(axis, v)).capacity for v in grid]


def report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    return ok


def test_acceptance_1_perfect_cl_plateau():
    i_peak = 10.0
    closed = i_peak * math.log(i_peak) / (i_peak - 1.0)
    plateau = high_budget_asymptote(scenario(PERFECT, PERFECT))
    cap_30db = ergodic_capacity(scenario(PERFECT, PERFECT, p_avg=1000.0)).capacity
    ok = abs(plateau - closed) < 1e-6 and abs(cap_30db - plateau) <= 0.03
    assert report(1, ok,
                  f"plateau {plateau:.7f} vs closed {closed:.7f}, "
                  f"capacity(30 dB) {cap_30db:.7f}")


def test_acceptance_2_estimated_cl_plateau():
    cfg = scenario(est(0.5), est(0.5), p_avg=1000.0)
    cap = ergodic_capacity(cfg).capacity
    ok = abs(cap - 1.36) <= 0.05
    assert report(2, ok, f"capacity(30 dB, alpha 0.5 both links) {cap:.6f}")


def test_acceptance_3_low_snr_cross_independence():
    caps = [ergodic_capacity(scenario(PERFECT, CsiKnowledge.from_alpha(a),
                                      p_avg=0.01)).capacity
            for a in (0.0, 0.5, 1.0)]
    spread = (max(caps) - min(caps)) / min(caps)
    ok = spread < 0.01
    assert report(3, ok,
                  f"capacities at -20 dB {['%.7f' % c for c in caps]}, "
                  f"relative spread {spread:.2e}")


def test_acceptance_4_saturation():
    ok = True
    details = []
    for cl in (est(0.5), NONE):
        cfg = scenario(PERFECT, cl)
        p_star = average_power_threshold(cfg)
        caps = [ergodic_capacity(cfg.replace(p_avg=p)).capacity
                for p in (p_star * 1.001, p_star * 2.0, p_star * 10.0, 1000.0)]
        span = max(caps) - min(caps)
        ok = ok and span < 1e-3
        details.append(f"{cl.describe()}: span {span:.2e}")
    exact = average_power_threshold(scenario(PERFECT, NONE))
    expect = 10.0 / (-math.log(0.05))
    ok = ok and abs(exact - expect) < 1e-12
    details.append(f"p_avg*(none) {exact:.12f} == i/(-ln eps) {expect:.12f}")
    assert report(4, ok, "; ".join(details))


# the 12-configuration oracle matrix: all nine knowledge combinations at
# the base operating point, plus a saturated, a reshaped, and a
# low-budget variant. No-knowledge direct rows 7 and 8 use the rescaled
# constant so the budget is spent exactly; row 9 keeps the literal
# constant (it is never capped there, so the budget is met anyway).
MATRIX = [
    (PERFECT, PERFECT, dict()),
    (PERFECT, est(0.5), dict()),
    (PERFECT, NONE, dict()),
    (est(0.5), PERFECT, dict()),
    (est(0.5), est(0.5), dict()),
    (est(0.5), NONE, dict()),
    (NONE, PERFECT, dict(rescale_no_csi_budget=True)),
    (NONE, est(0.5), dict(rescale_no_csi_budget=True)),
    (NONE, NONE, dict()),
    (PERFECT, est(0.5), dict(p_avg=6.0)),
    (est(0.3), est(0.7), dict(p_avg=0.5, i_peak=5.0, eps=0.1)),
    (PERFECT, PERFECT, dict(p_avg=0.1)),
]


def test_acceptance_5_oracle_equivalence():
    ok = True
    worst_rate = 0.0
    for k, (sl, cl, kw) in enumerate(MATRIX):
        cfg = scenario(sl, cl, **kw)
        res = ergodic_capacity(cfg)
        pol = solve_lambda(cfg)
        sim = simulate_policy(pol, cfg, 1_000_000, seed=1000 + k, threads=4)
        rel = abs(sim.empirical_rate - res.capacity) / res.capacity
        worst_rate = max(worst_rate, rel)
        if rel > 0.02:
            ok = False
        if pol.regime == "power_limited":
            if abs(sim.empirical_avg_power - cfg.p_avg) > 3.0 * sim.power_ci:
                ok = False
    assert report(5, ok,
                  f"12 configs, worst rate disagreement {worst_rate:.2%}, "
                  f"power within 3 CI where power-limited")


def test_acceptance_6_constraint_compliance():
    ok = True
    details = []
    # estimated cross link at saturation: every decile runs at epsilon
    cfg_e = scenario(PERFECT, est(0.5), p_avg=6.0)
    ok_e, rep_e = verify_outage(solve_lambda(cfg_e), cfg_e, 1_000_000, seed=21)
    ok = ok and ok_e
    worst = max(b.outage_rate for b in rep_e.bins if b.count)
    details.append(f"estimated worst bin {worst:.4f}")
    # perfect cross link: zero violations
    cfg_p = scenario(PERFECT, PERFECT)
    ok_p, rep_p = verify_outage(solve_lambda(cfg_p), cfg_p, 1_000_000, seed=22)
    ok = ok and ok_p and rep_p.outage_fraction == 0.0
    details.append(f"perfect fraction {rep_p.outage_fraction}")
    # no knowledge: unconditional bound at the saturated cap
    cfg_n = scenario(PERFECT, NONE, p_avg=5.0)
    ok_n, rep_n = verify_outage(solve_lambda(cfg_n), cfg_n, 1_000_000, seed=23)
    ok = ok and ok_n
    details.append(f"none fraction {rep_n.outage_fraction:.4f}")
    assert report(6, ok, "; ".join(details))


def test_acceptance_7_onoff_fidelity():
    cl = NONE
    ok = True
    gaps = {}
    grid_db = [-20.0, -10.0, 0.0, 4.0, 6.0, 8.0, 15.0, 30.0]
    for p_db in grid_db:
        cfg = scenario(PERFECT, cl, p_avg=10.0 ** (p_db / 10.0))
        _, rate = optimize_threshold(cfg)
        cap = ergodic_capacity(cfg).capacity
        if rate > cap + 1e-8:
            ok = False
        gaps[p_db] = (cap - rate) / cap
    if not (gaps[-20.0] < 0.03 and gaps[30.0] < 0.03):
        ok = False
    if not any(gaps[p] > 1e-4 for p in (4.0, 6.0, 8.0)):
        ok = False
    assert report(7, ok,
                  f"gap(-20 dB) {gaps[-20.0]:.3%}, gap(30 dB) {gaps[30.0]:.3%}, "
                  f"mid-range gaps {[f'{gaps[p]:.3%}' for p in (4.0, 6.0, 8.0)]}")


def test_acceptance_8_numerical_kernel_properties():
    from scipy import integrate

    ok = True
    # conditional pdf normalization and mean
    for m, alpha in [(0.5, 0.3), (2.0, 0.5), (8.0, 0.8)]:
        hi = conditional_support_bound(m, alpha, tail_mass=1e-12)
        mass, _ = integrate.quad(lambda g: conditional_power_pdf(g, m, alpha),
                                 0, hi, limit=300)
        mean, _ = integrate.quad(lambda g: g * conditional_power_pdf(g, m, alpha),
                                 0, hi, limit=300)
        if abs(mass - 1.0) > 1e-6 or abs(mean - (m + alpha)) > 1e-6:
            ok = False
    # inverse-cdf roundtrip
    for m, alpha, p in [(1.0, 0.5, 0.95), (0.0, 0.4, 0.5), (6.0, 0.7, 0.99)]:
        g = conditional_power_inv_cdf(p, m, alpha)
        if abs(conditional_power_cdf(g, m, alpha) - p) > 1e-8:
            ok = False
    # rate roundtrip
    for m, alpha, lam in [(1.0, 0.5, 0.4), (0.0, 0.5, 0.3), (3.0, 0.2, 1.1)]:
        P = invert_rate_integral(lam, m, alpha)
        if P > 0 and abs(rate_integral(P, m, alpha) - lam) > 1e-8:
            ok = False
    # Marcum limits
    for b in (0.5, 1.0, 3.0):
        if abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)) > 1e-12:
            ok = False
    for a in (0.0, 1.0, 5.0):
        if abs(marcum_q1(a, 0.0) - 1.0) > 1e-12:
            ok = False
    assert report(8, ok, "pdf norm/mean 1e-6, inv-cdf 1e-8, rate 1e-8, "
                         "Marcum limits 1e-12")


def test_acceptance_9_monotonicity_suite():
    # the multiplier is solved tightly here so its residual (up to
    # p_avg * lambda_rel_tol in capacity) cannot fake a non-monotone step
    tight = NumericSettings(lambda_rel_tol=1e-7)
    slack = 1e-6
    ok = True
    details = []

    grid = np.linspace(0.0, 1.0, 10)
    caps = capacities(scenario(PERFECT, NONE, numerics=tight), "alpha_s", grid)
    mono = all(b <= a + slack for a, b in zip(caps, caps[1:]))
    ok = ok and mono
    details.append(f"alpha_s nonincreasing {mono}")

    i_grid = np.linspace(0.5, 20.0, 10)
    caps = capacities(scenario(PERFECT, PERFECT, numerics=tight), "i_peak", i_grid)
    mono = all(b >= a - slack for a, b in zip(caps, caps[1:]))
    ok = ok and mono
    details.append(f"i_peak nondecreasing {mono}")

    e_grid = np.linspace(0.01, 0.3, 10)
    caps = capacities(scenario(PERFECT, est(0.5), p_avg=3.0, numerics=tight),
                      "epsilon", e_grid)
    mono = all(b >= a - slack for a, b in zip(caps, caps[1:]))
    ok = ok and mono
    details.append(f"epsilon nondecreasing {mono}")

    a_grid = np.linspace(0.0, 1.0, 10)
    caps = capacities(scenario(PERFECT, PERFECT, p_avg=1000.0, numerics=tight),
                      "alpha_p", a_grid)
    mono = all(b <= a + slack for a, b in zip(caps, caps[1:]))
    ok = ok and mono
    details.append(f"alpha_p (30 dB) nonincreasing {mono}")

    assert report(9, ok, "; ".join(details))
