"""The paper's structure, checked without an oracle.

On-off transmission, the paper's baseline, is a feasible policy under the
same average-power budget and interference-outage constraint as the
optimal one. So the optimal policy's ergodic capacity is at least the best
on-off rate: C >= optimize_threshold's rate - err, err the capacity's
reported quadrature error. Dropping a constraint cannot lower capacity:
C <= low_budget_asymptote + err without the cap, and
C <= high_budget_asymptote + err without the budget. Knowing the direct
link better cannot lower capacity either: C(P) >= C(E, 1e-4) >=
C(E, 0.5) >= C(E, 0.999) >= C(N), each step within the two errs.
"""

import numpy as np
import pytest

from crcap.capacity import ergodic_capacity, high_budget_asymptote, low_budget_asymptote
from crcap.fading import CsiKnowledge
from crcap.onoff import optimize_threshold
from crcap.power_allocation import NumericSettings, ScenarioConfig

KNOWLEDGE = {"P": CsiKnowledge.perfect(), "E": CsiKnowledge.estimated(0.5),
             "N": CsiKnowledge.no_csi()}
BUDGETS_DB = np.linspace(-10.0, 30.0, 6)


@pytest.mark.parametrize("p_avg_db", BUDGETS_DB, ids=[f"{p:g}dB" for p in BUDGETS_DB])
@pytest.mark.parametrize("code", ["PP", "PE", "PN"])
def test_capacity_is_at_least_the_best_onoff_rate(code, p_avg_db):
    cfg = ScenarioConfig(sl_csi=CsiKnowledge.perfect(), cl_csi=KNOWLEDGE[code[1]],
                         p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05)
    res = ergodic_capacity(cfg)
    _, onoff = optimize_threshold(cfg)
    assert res.capacity >= onoff - res.quadrature_error_estimate


BOUND_POINTS = [(a + b, p) for a in "PEN" for b in "PEN"
                for p in np.linspace(-10.0, 30.0, 5)]

# capless bounds broken at the default numerics, by their measured excess
# C - low_budget_asymptote - err (rounded up in the third digit), where
# err <= 1.9e-14: the multiplier meets the budget within lambda_rel_tol =
# 1e-4 only, and a budget met high lifts C above the capless limit. An
# entry that gets worse than its record fails, and so does one that passes.
KNOWN_WRONG = {
    ("PP", -10.0): 1.33e-6, ("PE", -10.0): 1.33e-6, ("PN", -10.0): 1.33e-6,
    ("PN", 0.0): 9.49e-6, ("EP", -10.0): 6.78e-7, ("EP", 0.0): 7.01e-6,
    ("EE", -10.0): 6.78e-7, ("EN", -10.0): 6.78e-7, ("EN", 0.0): 2.09e-5,
}


def _excess_over_the_asymptotes(code, p_avg_db, numerics, search_tol=0.0):
    """C minus each asymptote, minus err and the capless search's budget
    tolerance search_tol carried through the envelope theorem
    (dC/dp_avg = lam): (low-budget excess, high-budget excess)."""
    cfg = ScenarioConfig(sl_csi=KNOWLEDGE[code[0]], cl_csi=KNOWLEDGE[code[1]],
                         p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05,
                         numerics=numerics)
    res = ergodic_capacity(cfg)
    allowance = res.quadrature_error_estimate + search_tol * cfg.p_avg * res.lam
    return (res.capacity - low_budget_asymptote(cfg) - allowance,
            res.capacity - high_budget_asymptote(cfg) - allowance)


@pytest.mark.parametrize("code, p_avg_db", BOUND_POINTS,
                         ids=[f"{c}-{p:g}dB" for c, p in BOUND_POINTS])
def test_capacity_is_at_most_either_asymptote(code, p_avg_db):
    low, high = _excess_over_the_asymptotes(code, p_avg_db, NumericSettings())
    assert high <= 0.0
    record = KNOWN_WRONG.get((code, p_avg_db))
    if record is None:
        assert low <= 0.0
    else:
        assert 0.0 < low <= record


@pytest.mark.parametrize("code, p_avg_db", BOUND_POINTS,
                         ids=[f"{c}-{p:g}dB" for c, p in BOUND_POINTS])
def test_asymptote_bounds_hold_at_a_tight_multiplier(code, p_avg_db):
    # solved to 1e-12 the known-wrong list is empty: the checks are sound,
    # what breaks them at the default numerics is the multiplier tolerance
    low, high = _excess_over_the_asymptotes(
        code, p_avg_db, NumericSettings(lambda_rel_tol=1e-12), search_tol=1e-9)
    assert low <= 0.0
    assert high <= 0.0


# direct-link knowledge from best to worst; without it the budget is
# rescaled, so the policy spends it all and the ordering is a fair one
DIRECT_LEVELS = [("P", CsiKnowledge.perfect()), ("E(1e-4)", CsiKnowledge.estimated(1e-4)),
                 ("E(0.5)", CsiKnowledge.estimated(0.5)),
                 ("E(0.999)", CsiKnowledge.estimated(0.999)), ("N", CsiKnowledge.no_csi())]
ORDER_POINTS = [(cross, p) for cross in "PEN" for p in (0.0, 10.0)]

# ordering steps broken at the default numerics, keyed (cross link, dB,
# better level, worse level), by the measured excess C(worse) - C(better)
# - both errs (rounded up in the third digit). As with KNOWN_WRONG, the
# multiplier meets the budget within lambda_rel_tol only; an entry that
# gets worse than its record fails, and so does one that passes.
KNOWN_WRONG_ORDERING = {
    ("P", 0.0, "P", "E(1e-4)"): 1.08e-5, ("P", 0.0, "E(0.999)", "N"): 8.01e-6,
    ("E", 0.0, "E(0.999)", "N"): 7.12e-6, ("N", 0.0, "E(0.999)", "N"): 6.47e-6,
}


def _ordering_excess(cross, p_avg_db, numerics):
    """{(better, worse): C(worse) - C(better) - both errs} down the levels."""
    results = []
    for name, sl in DIRECT_LEVELS:
        cfg = ScenarioConfig(sl_csi=sl, cl_csi=KNOWLEDGE[cross],
                             p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05,
                             numerics=numerics, rescale_no_csi_budget=name == "N")
        res = ergodic_capacity(cfg)
        results.append((name, res.capacity, res.quadrature_error_estimate))
    return {(b, w): cw - cb - eb - ew
            for (b, cb, eb), (w, cw, ew) in zip(results, results[1:])}


@pytest.mark.parametrize("cross, p_avg_db", ORDER_POINTS,
                         ids=[f"cross{c}-{p:g}dB" for c, p in ORDER_POINTS])
def test_better_direct_knowledge_never_lowers_capacity(cross, p_avg_db):
    excess = _ordering_excess(cross, p_avg_db, NumericSettings())
    for (better, worse), value in excess.items():
        record = KNOWN_WRONG_ORDERING.get((cross, p_avg_db, better, worse))
        if record is None:
            assert value <= 0.0, (better, worse, value)
        else:
            assert 0.0 < value <= record, (better, worse, value)


@pytest.mark.parametrize("cross, p_avg_db", ORDER_POINTS,
                         ids=[f"cross{c}-{p:g}dB" for c, p in ORDER_POINTS])
def test_direct_knowledge_ordering_holds_at_a_tight_multiplier(cross, p_avg_db):
    # solved to 1e-12 the ordering's known-wrong list is empty as well
    excess = _ordering_excess(cross, p_avg_db, NumericSettings(lambda_rel_tol=1e-12))
    assert all(value <= 0.0 for value in excess.values()), excess
