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

The paper's two headline claims are checked at a tight multiplier: at low
SNR the cross link's knowledge leaves C alone, and once the policy
saturates the direct link's knowledge does; there, on-off loses nothing
unless the cross link is known perfectly, and then its gap falls as
1/p_avg. At low SNR, against closed forms in tests/oracles.py, on-off
keeps a gap that shrinks only like 1/ln(1/p_avg). So are the unified
expression's limits: an estimate at alpha -> 1 is no knowledge, with a gap
that closes as (1 - alpha)^2, and at alpha -> 0 perfect knowledge, with a
gap that closes as alpha on the direct link and as sqrt(alpha) on the
cross link.
"""

import math

import numpy as np
import pytest
from oracles import best_onoff_rate_constant_cap, water_filling

from crcap import power_allocation
from crcap.capacity import ergodic_capacity, high_budget_asymptote, low_budget_asymptote
from crcap.fading import CsiKnowledge
from crcap.onoff import optimize_threshold
from crcap.power_allocation import NumericSettings, ScenarioConfig, solve_lambda

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


TIGHT = NumericSettings(lambda_rel_tol=1e-12)


def _capacity(sl, cl, p_avg_db):
    # rescaling only touches an unknown direct link, which then spends the
    # whole budget like every other policy here
    return ergodic_capacity(ScenarioConfig(
        sl_csi=sl, cl_csi=cl, p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05,
        numerics=TIGHT, rescale_no_csi_budget=sl == KNOWLEDGE["N"]))


LOW_SNR_POINTS = [(direct, p) for direct in "PEN" for p in (-40.0, -30.0, -20.0, -10.0)]


@pytest.mark.parametrize("direct, p_avg_db", LOW_SNR_POINTS,
                         ids=[f"direct{d}-{p:g}dB" for d, p in LOW_SNR_POINTS])
def test_at_low_snr_only_the_direct_link_knowledge_matters(direct, p_avg_db):
    # the paper's low-SNR claim: the cross link's knowledge leaves C alone.
    # The relative spread over P, E(0.5) and N cross links is the
    # cross-state truncation's level (tail_mass 1e-10), not the cap's
    # binding mass: measured 1.0e-11 to 2.33e-10 (3.4e-14 to 7.8e-12 for
    # the unknown direct link, its budget rescaled)
    caps = [_capacity(KNOWLEDGE[direct], KNOWLEDGE[cross], p_avg_db).capacity
            for cross in "PEN"]
    assert (max(caps) - min(caps)) / max(caps) <= 5e-10, caps


SATURATED_POINTS = [("P", 25.0), ("P", 30.0), ("E", 10.0), ("E", 20.0), ("N", 10.0),
                    ("N", 20.0)]


@pytest.mark.parametrize("cross, p_avg_db", SATURATED_POINTS,
                         ids=[f"cross{c}-{p:g}dB" for c, p in SATURATED_POINTS])
def test_at_high_snr_only_the_cross_link_knowledge_matters(cross, p_avg_db):
    # the paper's high-SNR claim: a saturated policy reads no direct state,
    # so the three direct links give the same C to the last bit; each runs
    # on a fresh cap table, so each integrates its own plateau
    results = []
    for direct in "PEN":
        power_allocation._cap_table.cache_clear()
        results.append(_capacity(KNOWLEDGE[direct], KNOWLEDGE[cross], p_avg_db))
    assert [r.regime for r in results] == ["saturated"] * 3
    assert len({r.capacity.hex() for r in results}) == 1


def _onoff_gap(cross, p_avg_db):
    """(C - R) / C of the best on-off rate R on a perfect direct link."""
    cfg = ScenarioConfig(sl_csi=KNOWLEDGE["P"], cl_csi=KNOWLEDGE[cross],
                         p_avg=10.0 ** (p_avg_db / 10.0), i_peak=10.0, epsilon=0.05,
                         numerics=TIGHT)
    cap = ergodic_capacity(cfg).capacity
    return (cap - optimize_threshold(cfg)[1]) / cap


@pytest.mark.parametrize("cross", ["E", "N"])
@pytest.mark.parametrize("p_avg_db", [10.0, 20.0, 30.0, 40.0])
def test_at_high_snr_onoff_is_optimal_without_perfect_cross_knowledge(cross, p_avg_db):
    # a saturated policy sends at the cap whatever the direct link, which
    # is on-off with every direct state on: measured gap exactly 0 under an
    # unknown cross link, -1.64e-16 under an estimated one (R one ulp above C)
    assert abs(_onoff_gap(cross, p_avg_db)) <= 1e-15


def test_at_high_snr_the_onoff_gap_under_a_perfect_cross_link_falls_with_the_budget():
    # a perfect cross link never saturates the policy; the gap falls about
    # tenfold per decade of p_avg: measured 3.718e-2, 3.885e-3 and 3.906e-4
    # at 20, 30 and 40 dB
    gaps = [_onoff_gap("P", p_avg_db) for p_avg_db in (20.0, 30.0, 40.0)]
    assert all(9.0 <= a / b <= 11.0 for a, b in zip(gaps, gaps[1:])), gaps


def test_at_low_snr_the_onoff_gap_shrinks_like_one_over_the_log_budget():
    # an unknown cross link's constant cap (3.34) never binds at these
    # budgets, so C is water-filling's E1(lam) and the best on-off rate is
    # the closed-form burst rate maximised over tau (tests/oracles.py);
    # tail_mass 1e-30 keeps the direct link's truncation out of the way.
    # Measured: C within 3.5e-13 of E1, R equal to rounding, and
    # gap ln(1/p_avg) 0.112, 0.199 and 0.244 at -20, -40 and -60 dB
    cfg = ScenarioConfig(sl_csi=KNOWLEDGE["P"], cl_csi=KNOWLEDGE["N"], p_avg=1.0,
                         i_peak=10.0, epsilon=0.05,
                         numerics=NumericSettings(lambda_rel_tol=1e-12, tail_mass=1e-30))
    cap = 10.0 / math.log(1.0 / 0.05)
    scaled_gaps = []
    for p_avg_db in (-20.0, -40.0, -60.0):
        p_avg = 10.0 ** (p_avg_db / 10.0)
        point = cfg.replace(p_avg=p_avg)
        res = ergodic_capacity(point)
        assert res.regime == "power_limited"
        assert res.capacity == pytest.approx(water_filling(p_avg)[1], rel=1e-11, abs=0.0)
        rate = optimize_threshold(point)[1]
        assert rate == pytest.approx(best_onoff_rate_constant_cap(p_avg, cap),
                                     rel=1e-12, abs=0.0)
        scaled_gaps.append((res.capacity - rate) / res.capacity * math.log(1.0 / p_avg))
    assert all(0.1 <= g <= 0.32 for g in scaled_gaps), scaled_gaps
    assert scaled_gaps == sorted(scaled_gaps) and len(set(scaled_gaps)) == 3


# an estimate at alpha -> 1 tends to no knowledge: each code's limit is the
# code with E read as N, its unknown direct link's budget rescaled
LIMIT_CODES = ["EP", "PE", "EE"]


def _gaps_to_no_knowledge(code, p_avg_db, distances):
    """C(no knowledge) and C(code at alpha = 1 - d) - C(no knowledge) per d."""
    def csi(letter, alpha):
        return CsiKnowledge.estimated(alpha) if letter == "E" else KNOWLEDGE[letter]

    limit = _capacity(*(KNOWLEDGE[c.replace("E", "N")] for c in code), p_avg_db).capacity
    return limit, [_capacity(csi(code[0], 1.0 - d), csi(code[1], 1.0 - d), p_avg_db).capacity
                   - limit for d in distances]


@pytest.mark.parametrize("code", LIMIT_CODES)
@pytest.mark.parametrize("p_avg_db", [-10.0, 0.0, 10.0])
def test_an_estimate_at_alpha_near_one_is_no_knowledge(code, p_avg_db):
    # measured at most 2.21e-10 relative, the tight multiplier's residual
    limit, (gap,) = _gaps_to_no_knowledge(code, p_avg_db, [1e-5])
    assert abs(gap) <= 1e-9 * limit


@pytest.mark.parametrize("code", LIMIT_CODES)
def test_the_gap_to_no_knowledge_closes_as_the_square_of_one_minus_alpha(code):
    # O((1 - alpha)^2): a gap past 1e-8 falls 100x a decade closer to
    # alpha = 1 (measured 98-105). Below 1e-8 the next gap nears the
    # multiplier residual; the PE gap at -10 and 0 dB never leaves it,
    # since there a cross-link estimate leaves C alone (the low-SNR claim)
    ratios = []
    for p_avg_db in (-10.0, 0.0, 10.0):
        _, gaps = _gaps_to_no_knowledge(code, p_avg_db, [1e-2, 1e-3, 1e-4])
        ratios += [far / near for far, near in zip(gaps, gaps[1:]) if far > 1e-8]
    assert ratios and all(90.0 <= r <= 110.0 for r in ratios), ratios


# an estimate at alpha -> 0 tends to perfect knowledge: EP - PP is O(alpha_s)
# and PE - PP is O(sqrt(alpha_p)), so a gap falls 10x, or sqrt(10) = 3.16x,
# a decade of alpha nearer 0. Per code: the alphas, and the band of the
# ratio of one gap to the next (measured at a tight multiplier 9.956-10.000
# and 3.172-3.199). At -10 dB the PE gap stays below 1e-11: there a
# cross-link estimate leaves C alone (the low-SNR claim)
TO_PERFECT = {"EP": ([1e-3, 1e-4, 1e-5], (9.5, 10.5)), "PE": ([1e-4, 1e-5, 1e-6], (3.1, 3.4))}
TO_PERFECT_POINTS = [("EP", -10.0), ("EP", 0.0), ("EP", 10.0), ("PE", 0.0), ("PE", 10.0)]

# rates broken at the default numerics, keyed (code, dB, the nearer gap's
# alpha), by how far the ratio lies outside its band (rounded up in the
# third digit): each capacity carries its own multiplier residual, up to
# lambda_rel_tol = 1e-4 of the budget, and at these alphas the gaps are
# about as small. As with KNOWN_WRONG, an entry that gets worse than its
# record fails, and so does one that passes.
KNOWN_WRONG_RATES = {
    ("EP", -10.0, 1e-4): 4.88, ("EP", -10.0, 1e-5): 6.79, ("EP", 0.0, 1e-4): 28.7,
    ("EP", 0.0, 1e-5): 12.1, ("EP", 10.0, 1e-4): 3.21, ("PE", 0.0, 1e-5): 8.79,
    ("PE", 10.0, 1e-5): 0.141, ("PE", 10.0, 1e-6): 0.433,
}


def _rate_excess(code, p_avg_db, numerics):
    """{alpha: how far the ratio of the gap to PP at 10 alpha to the one at
    alpha lies outside the code's band}, for every policy having met its
    budget within lambda_rel_tol (so a gap is one of capacities)."""
    alphas, (lo, hi) = TO_PERFECT[code]

    def capacity(sl, cl):
        cfg = ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=10.0 ** (p_avg_db / 10.0),
                             i_peak=10.0, epsilon=0.05, numerics=numerics)
        spent = solve_lambda(cfg).expected_power()
        assert abs(spent - cfg.p_avg) <= numerics.lambda_rel_tol * cfg.p_avg
        return ergodic_capacity(cfg).capacity

    perfect = KNOWLEDGE["P"]
    at_perfect = capacity(perfect, perfect)
    gaps = [capacity(*((CsiKnowledge.estimated(a), perfect) if code == "EP"
                       else (perfect, CsiKnowledge.estimated(a)))) - at_perfect
            for a in alphas]
    return {near: max(lo - far / gap, far / gap - hi)
            for near, far, gap in zip(alphas[1:], gaps, gaps[1:])}


@pytest.mark.parametrize("code, p_avg_db", TO_PERFECT_POINTS,
                         ids=[f"{c}-{p:g}dB" for c, p in TO_PERFECT_POINTS])
def test_an_estimate_at_alpha_near_zero_closes_on_perfect_knowledge(code, p_avg_db):
    for alpha, excess in _rate_excess(code, p_avg_db, NumericSettings()).items():
        record = KNOWN_WRONG_RATES.get((code, p_avg_db, alpha))
        if record is None:
            assert excess <= 0.0, (alpha, excess)
        else:
            assert 0.0 < excess <= record, (alpha, excess)


@pytest.mark.parametrize("code, p_avg_db", TO_PERFECT_POINTS,
                         ids=[f"{c}-{p:g}dB" for c, p in TO_PERFECT_POINTS])
def test_the_rate_to_perfect_knowledge_holds_at_a_tight_multiplier(code, p_avg_db):
    # solved to 1e-12 the rates' known-wrong list is empty
    excess = _rate_excess(code, p_avg_db, TIGHT)
    assert all(value <= 0.0 for value in excess.values()), excess
