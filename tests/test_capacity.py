"""Ergodic-capacity checks across knowledge levels and regimes.

Anchors were produced by a standalone scipy pipeline (nested adaptive
quadrature over both fading states, brentq on the budget equation) that
shares no code with this package; agreement was confirmed before
freezing. Tight-multiplier settings pin the anchors because the
residual in the budget equation shifts capacity by about
lam * p_avg * lambda_rel_tol (envelope argument), which at the default
tolerance dwarfs the quadrature error.
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from crcap import capacity, power_allocation
from crcap.capacity import (
    CapacityResult,
    ergodic_capacity,
    high_budget_asymptote,
    low_budget_asymptote,
)
from crcap.fading import CsiKnowledge, CsiLevel
from crcap.power_allocation import NumericSettings, ScenarioConfig, solve_lambda
from crcap.special_functions import NumericsError
from oracles import perfect_cross_rate_tail

TIGHT = NumericSettings(lambda_rel_tol=1e-7)


def scenario(sl, cl, p_avg=1.0, i_peak=10.0, eps=0.05, ns=TIGHT):
    return ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=p_avg, i_peak=i_peak,
                          epsilon=eps, numerics=ns)


PERFECT = CsiKnowledge.perfect()
NONE = CsiKnowledge.no_csi()
EST = CsiKnowledge.estimated(0.5)


def test_capacity_perfect_perfect():
    res = ergodic_capacity(scenario(PERFECT, PERFECT))
    assert res.capacity == pytest.approx(0.71289231, abs=5e-7)
    assert res.lam == pytest.approx(0.3936003275, rel=2e-6)
    assert res.regime == "power_limited"
    assert res.p_avg_star == math.inf


def test_capacity_perfect_estimated():
    res = ergodic_capacity(scenario(PERFECT, EST))
    assert res.capacity == pytest.approx(0.71282229, abs=5e-7)
    assert res.lam == pytest.approx(0.3931649041, rel=2e-6)


def test_capacity_estimated_perfect():
    res = ergodic_capacity(scenario(EST, PERFECT))
    assert res.capacity == pytest.approx(0.61750418, abs=2e-6)
    assert res.lam == pytest.approx(0.3918221362, rel=1e-5)


# capacities of the benchmark's knowledge_grid reference (default numerics,
# i_peak 10, epsilon 0.05, alpha 0.5) with their error estimates
@pytest.mark.parametrize("cross, p_avg_db, value, err", [
    (PERFECT, 13.0, 2.3487034307843544, 1.1086582185626526e-07),
    (EST, 0.0, 0.6175059774038829, 1.7075230118734908e-13),
    (NONE, 0.0, 0.6175319480109409, 1.5765166949677223e-13),
], ids=["EP@13dB", "EE@0dB", "EN@0dB"])
def test_capacity_estimated_direct_matches_reference(cross, p_avg_db, value, err):
    cfg = scenario(EST, cross, p_avg=10.0 ** (p_avg_db / 10.0),
                   ns=NumericSettings())
    res = ergodic_capacity(cfg)
    assert abs(res.capacity - value) <= err + cfg.numerics.quad_rel_tol * value


def test_capacity_none_none():
    # constant power 1 capped at 3.338 never binds: closed form e E1(1),
    # from mpmath at 40 digits
    res = ergodic_capacity(scenario(NONE, NONE))
    assert res.capacity == pytest.approx(0.5963473623231940743410785, rel=1e-14)
    assert res.regime == "power_limited"


def test_capacity_perfect_none():
    res = ergodic_capacity(scenario(PERFECT, NONE))
    assert res.capacity == pytest.approx(0.71292886, abs=5e-7)


def test_capacity_perfect_none_low_budget():
    res = ergodic_capacity(scenario(PERFECT, NONE, p_avg=0.01))
    assert res.capacity == pytest.approx(0.02996620, abs=2e-7)


def test_capacity_knowledge_ordering_on_direct_link():
    # more direct-link knowledge can only help
    c_p = ergodic_capacity(scenario(PERFECT, NONE)).capacity
    c_e = ergodic_capacity(scenario(EST, NONE)).capacity
    c_n = ergodic_capacity(scenario(NONE, NONE)).capacity
    assert c_p > c_e > c_n


def test_capacity_saturated_regime_reports_plateau():
    cfg = scenario(PERFECT, EST, p_avg=6.0)
    res = ergodic_capacity(cfg)
    assert res.regime == "saturated"
    assert res.lam == 0.0
    plateau = high_budget_asymptote(cfg)
    assert res.capacity == pytest.approx(plateau, rel=1e-8)
    # frozen from the independent ncx2 route (acceptance target 1.36 +- 0.05)
    assert res.capacity == pytest.approx(1.355770, abs=2e-4)


def test_capacity_error_estimate_is_honest():
    cfg = scenario(PERFECT, PERFECT)
    res = ergodic_capacity(cfg)
    assert abs(res.capacity - 0.71289231) <= 10 * res.quadrature_error_estimate \
        + cfg.p_avg * res.lam * cfg.numerics.lambda_rel_tol + 5e-8


def test_capacity_monotone_in_budget():
    caps = [ergodic_capacity(scenario(PERFECT, NONE, p_avg=p)).capacity
            for p in [0.1, 0.5, 1.0, 2.0, 3.0]]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_high_budget_asymptote_perfect_cross_closed_form():
    # saturated perfect-cross rate E ln(1 + i g/gp) = i ln i/(i-1) at i=10
    cfg = scenario(PERFECT, PERFECT)
    assert high_budget_asymptote(cfg) == pytest.approx(2.558427881104, rel=1e-8)


def test_high_budget_asymptote_unit_interference_limit():
    # i -> 1 limit of i ln i/(i - 1) is 1
    cfg = scenario(PERFECT, PERFECT, i_peak=1.0)
    assert high_budget_asymptote(cfg) == pytest.approx(1.0, rel=1e-8)


def test_high_budget_asymptote_none_cross_closed_form():
    # constant cap c: plateau is e^{1/c} E1(1/c)
    cfg = scenario(PERFECT, NONE)
    assert high_budget_asymptote(cfg) == pytest.approx(1.2234372562888, rel=1e-9)


def test_high_budget_asymptote_matches_saturated_capacity():
    # the plateau is the saturated policy's capacity, read on the same level;
    # a fresh cap table for each, so each integrates its own plateau
    for cross in (PERFECT, EST, NONE):
        cfg = scenario(PERFECT, cross, p_avg=1e6)
        power_allocation._cap_table.cache_clear()
        res = ergodic_capacity(cfg)
        assert res.regime == "saturated"
        power_allocation._cap_table.cache_clear()
        assert high_budget_asymptote(cfg).hex() == res.capacity.hex()


def test_low_budget_asymptote_perfect_direct():
    # capless water-filling: E1(lambda) at the budget root, frozen 0.712928856
    cfg = scenario(PERFECT, PERFECT)
    assert low_budget_asymptote(cfg) == pytest.approx(0.712928856209, abs=3e-7)


def test_low_budget_asymptote_none_direct_closed_form():
    cfg = scenario(NONE, NONE, p_avg=0.1)
    # constant-power rate e^{1/p} E1(1/p) at p = 0.1
    assert low_budget_asymptote(cfg) == pytest.approx(0.0915633339397881,
                                                      rel=1e-9)


def test_low_budget_asymptote_tight_at_small_budget():
    cfg = scenario(PERFECT, NONE, p_avg=0.01)
    low = low_budget_asymptote(cfg)
    cap = ergodic_capacity(cfg).capacity
    # the cap is irrelevant at this budget: asymptote matches capacity up
    # to the two solves' multiplier residuals (envelope bound ~ lam p tol)
    assert low == pytest.approx(cap, rel=1e-5)
    assert low >= cap - 1e-8


def test_low_budget_asymptote_upper_bounds_capacity():
    for cl in [PERFECT, EST, NONE]:
        cfg = scenario(PERFECT, cl, p_avg=1.0)
        assert low_budget_asymptote(cfg) >= ergodic_capacity(cfg).capacity - 1e-7


def test_capacity_sweep_budget_axis():
    cfg = scenario(PERFECT, NONE)
    grid = [0.5, 1.0, 2.0]
    results = [ergodic_capacity(cfg.with_axis("p_avg", v)) for v in grid]
    assert len(results) == 3
    assert all(isinstance(r, CapacityResult) for r in results)
    caps = [r.capacity for r in results]
    assert caps[0] < caps[1] < caps[2]
    solo = ergodic_capacity(cfg.replace(p_avg=2.0)).capacity
    assert caps[2] == pytest.approx(solo, rel=1e-12)


def test_capacity_sweep_alpha_endpoints():
    cfg = scenario(PERFECT, NONE)
    r0, r_mid, r1 = [ergodic_capacity(cfg.with_axis("alpha_s", v))
                     for v in [0.0, 0.5, 1.0]]
    assert r0.capacity == pytest.approx(
        ergodic_capacity(scenario(PERFECT, NONE)).capacity, rel=1e-10)
    assert r1.capacity == pytest.approx(
        ergodic_capacity(scenario(NONE, NONE)).capacity, rel=1e-10)
    assert r0.capacity > r_mid.capacity > r1.capacity


def test_capacity_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        scenario(PERFECT, NONE).with_axis("bandwidth", 1.0)


def test_capacity_nearly_continuous_at_saturation_threshold():
    # lambda-based direct-link variants transition smoothly at p_avg*
    cfg = scenario(PERFECT, NONE)
    thr = 3.338082006953341
    below = ergodic_capacity(cfg.replace(p_avg=thr * (1 - 1e-4))).capacity
    above = ergodic_capacity(cfg.replace(p_avg=thr * (1 + 1e-4))).capacity
    assert above >= below - 1e-9
    assert above - below < 5e-4


# ----------------------------------------------------------------------
# row-blocked quadrature

KNOWLEDGE = {"P": PERFECT, "E": EST, "N": NONE}
RATE_CELLS = power_allocation._SlGrid.rate_cells
RATE_SUMS = power_allocation._SlGrid.rate_sums


def _grid_point(code, p_avg_db):
    return scenario(KNOWLEDGE[code[0]], KNOWLEDGE[code[1]],
                    p_avg=10.0 ** (p_avg_db / 10.0), ns=NumericSettings())


def _solved(monkeypatch, code, p_avg_db):
    """Capacity, error, multiplier and expected power, plus every tail
    rate and rate sum the capacity quadrature computed, flattened in call
    order. Levels and cap tables are built afresh, so a saturated point
    integrates its plateau instead of reading a table's memo."""
    tails = []

    def recorded(self, power, rows=slice(None)):
        out = RATE_CELLS(self, power, rows)
        if out.ndim == 2:
            tails.append(out.ravel())
        return out

    def recorded_sums(self, shared, own, rows):
        out = RATE_SUMS(self, shared, own, rows)
        tails.extend(a.ravel() for a in out)
        return out

    monkeypatch.setattr(power_allocation._SlGrid, "rate_cells", recorded)
    monkeypatch.setattr(power_allocation._SlGrid, "rate_sums", recorded_sums)
    power_allocation._sl_grid.cache_clear()
    power_allocation._cap_table.cache_clear()
    pol = solve_lambda(_grid_point(code, p_avg_db))
    res = capacity._capacity_of(pol)
    values = (res.capacity, res.quadrature_error_estimate, res.lam,
              pol.expected_power())
    return values, np.concatenate(tails) if tails else np.empty(0)


@pytest.mark.parametrize("p_avg_db", [0.0, 13.0])
@pytest.mark.parametrize("code", ["PP", "PE", "EP", "EE", "NP", "PN"])
def test_row_block_size_leaves_every_bit_unchanged(monkeypatch, code, p_avg_db):
    # per-row sums do not depend on how rows are grouped: one block for
    # everything and blocks of a row or less must agree exactly, down to
    # each cell's rate at each cross node (where a per-block interpolant
    # degree would show even when the sums happen to round alike)
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", 10 ** 12)
    values, tails = _solved(monkeypatch, code, p_avg_db)
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", 5000)
    blocked_values, blocked_tails = _solved(monkeypatch, code, p_avg_db)
    assert blocked_values == values
    assert np.array_equal(blocked_tails, tails)


def _mgf_node_terms(monkeypatch, cfg):
    """MGF node terms (cells x nodes, times powers per cell for the
    per-row trapezoid sum; the rate's head nodes plus its tail terms) that
    ergodic_capacity(cfg) evaluates from an empty grid memo."""
    terms = []
    log_rate = power_allocation._mgf_log_rate
    shared = power_allocation._mgf_log_rate_shared
    rate = power_allocation._mgf_rate

    def counted_log_rate(m, alpha, P):
        top = float(P.max()) * (float(m.max()) + alpha)
        terms.append(P.size * power_allocation._mgf_rule(top)[0].size)
        return log_rate(m, alpha, P)

    def counted_shared(m, alpha, P):
        terms.append(m.size * power_allocation._mgf_lattice(m, alpha, P)[0].size)
        return shared(m, alpha, P)

    def counted_rate(P, m, alpha, s, w, T):
        terms.append(P.size * (s.size + T.shape[1]))
        return rate(P, m, alpha, s, w, T)

    monkeypatch.setattr(power_allocation, "_mgf_log_rate", counted_log_rate)
    monkeypatch.setattr(power_allocation, "_mgf_log_rate_shared", counted_shared)
    monkeypatch.setattr(power_allocation, "_mgf_rate", counted_rate)
    power_allocation._sl_grid.cache_clear()
    ergodic_capacity(cfg)
    return sum(terms)


# the counts with the log-rate samples on one shared lattice and the
# rate's small-s tail in closed form; the rate on every node took the
# full_rule counts, and before that, sampling each row's Chebyshev powers
# with a trapezoid sum of their own and stepping on r instead of 1 / r,
# 7,538,060 and 6,172,639. These were 1,405,031 and 1,308,104 (1,081,895
# and 859,904 once the bisection was replayed); the rows each level
# inverted are now one budget series per evaluated multiplier
TAIL_IN_CLOSED_FORM = {"EP": 585_623, "EE": 482_644}


@pytest.mark.parametrize("code, p_avg_db, full_rule", [("EP", 13.0, 3_539_930),
                                                       ("EE", 0.0, 3_595_470)])
def test_estimated_direct_capacity_mgf_work_stays_bounded(monkeypatch, code,
                                                          p_avg_db, full_rule):
    measured = TAIL_IN_CLOSED_FORM[code]
    assert 1.05 * measured < full_rule
    assert _mgf_node_terms(monkeypatch, _grid_point(code, p_avg_db)) <= 1.05 * measured


ESTIMATED_GRID = [(code, p) for code in ("EP", "EE", "EN") for p in (-10.0, 0.0, 10.0, 13.0)]


@pytest.mark.parametrize("order", [ESTIMATED_GRID, ESTIMATED_GRID[::-1]],
                         ids=["forward", "reverse"])
def test_estimated_direct_grid_inverts_each_row_set_once(monkeypatch, fresh_grids,
                                                         order):
    # the estimated-direct points of the benchmark's knowledge grid in one
    # process: every search evaluates only the midpoints that decide its
    # answer, and each evaluated multiplier builds one budget series, the
    # row inversion of _BUDGET_SERIES_POINTS estimates, that every level
    # at every panel count reads; so the round inverts 32 row sets, 4,128
    # rows (38 sets of a level's cells, 11,200 rows, when each level
    # inverted its own), and the series memo runs each once, in any order
    keys = []
    invert = power_allocation._mgf_invert_rate

    def counted(m, alpha, lam):
        keys.append((m.tobytes(), alpha, lam))
        return invert(m, alpha, lam)

    monkeypatch.setattr(power_allocation, "_mgf_invert_rate", counted)
    for code, p_avg_db in order:
        ergodic_capacity(_grid_point(code, p_avg_db))
    assert len(keys) == len(set(keys)) <= 32
    assert len(keys) * power_allocation._BUDGET_SERIES_POINTS <= 4128


KNOWLEDGE_GRID = [(a + b, p) for a in "PEN" for b in "PEN" for p in (-10.0, 0.0, 10.0, 13.0)]


@pytest.mark.parametrize("order", [KNOWLEDGE_GRID, KNOWLEDGE_GRID[::-1]],
                         ids=["forward", "reverse"])
def test_grid_memo_holds_a_whole_knowledge_grid(fresh_grids, order):
    # the benchmark's 36 knowledge-grid points in one process: every
    # direct-link grid key is built once, so none is evicted and built
    # again while the round runs, in any visit order; the hit count pins
    # the lookups, so a change that adds or drops one fails here (165 and
    # 132 when every bisection midpoint was evaluated; 105 and 91 while
    # levels without direct-link knowledge were built outside the memo)
    for code, p_avg_db in order:
        ergodic_capacity(_grid_point(code, p_avg_db))
    info = power_allocation._sl_grid.cache_info()
    assert info.misses == info.currsize
    assert (info.hits, info.misses) == (135, 101)


def test_knowledge_grid_searches_evaluate_few_levels(monkeypatch, fresh_grids):
    # the round's 16 multiplier searches replay their bisections: they
    # evaluate spent() at the midpoints that decide the answer, 158 times,
    # where evaluating every midpoint took 259
    calls = []
    spent = power_allocation._SlGrid.spent

    def counted(self, capf):
        calls.append(capf)
        return spent(self, capf)

    monkeypatch.setattr(power_allocation._SlGrid, "spent", counted)
    for code, p_avg_db in KNOWLEDGE_GRID:
        ergodic_capacity(_grid_point(code, p_avg_db))
    assert len(calls) <= 158


def test_knowledge_grid_integrates_each_level_spend_once(monkeypatch, fresh_grids):
    # 33 of those 158 spent() calls come back to a (level, cap table) pair
    # already evaluated, a bisection point that budgets share; the level
    # keeps each table's spend, so capped_mean runs once per pair
    pairs, calls = set(), []
    spent = power_allocation._SlGrid.spent
    capped_mean = power_allocation._CapField.capped_mean

    def recorded(self, capf):
        pairs.add((self, capf))
        return spent(self, capf)

    def counted(self, a):
        calls.append(self)
        return capped_mean(self, a)

    monkeypatch.setattr(power_allocation._SlGrid, "spent", recorded)
    monkeypatch.setattr(power_allocation._CapField, "capped_mean", counted)
    for code, p_avg_db in KNOWLEDGE_GRID:
        ergodic_capacity(_grid_point(code, p_avg_db))
    assert len(calls) == len(pairs) == 125


SATURATED_GRID = [(code, p) for code in ("PE", "EE", "NE") for p in (10.0, 13.0)]


def test_the_plateau_is_integrated_once_per_cap_table(monkeypatch):
    # a saturated policy reads no budget and no direct-link state, so the
    # six saturated points under the estimated cross link share one level
    # per panel count (_sl_grid at A = inf): the first point integrates
    # each level's rate and the level keeps it per cap table, the other
    # five and the high-budget limit read it; a rebuilt table integrates
    # it again, to the same bits
    integrated = []
    expect = power_allocation._CapField.expect

    def counted(self, A, f, tail):
        level = getattr(f, "__self__", None)   # the level whose rate_cells these are
        if isinstance(level, power_allocation._SlGrid):
            integrated.append((self, level.panels))
        return expect(self, A, f, tail)

    monkeypatch.setattr(power_allocation._CapField, "expect", counted)
    power_allocation._cap_table.cache_clear()
    results = [ergodic_capacity(_grid_point(code, p)) for code, p in SATURATED_GRID]
    assert {r.regime for r in results} == {"saturated"}
    assert len(set(results)) == 1
    once = [panels for _, panels in integrated]
    assert len({capf for capf, _ in integrated}) == 1
    assert once == sorted(set(once)) and len(once) >= 2
    assert high_budget_asymptote(_grid_point("EE", 0.0)) == results[0].capacity
    assert len(integrated) == len(once)
    power_allocation._cap_table.cache_clear()
    assert ergodic_capacity(_grid_point("NE", 13.0)) == results[0]
    assert [panels for _, panels in integrated] == once * 2


def test_memos_shared_between_threads(fresh_grids):
    # threads share both memos: threads that miss together store
    # the same bits, so every capacity and spend equals the serial one
    points = [_grid_point(code, p) for code, p in
              [("EE", 0.0), ("PE", 10.0), ("NE", 13.0), ("PP", 0.0)]]

    def run(cfg):
        pol = solve_lambda(cfg)
        return capacity._capacity_of(pol), pol.expected_power()

    power_allocation._cap_table.cache_clear()
    expected = [run(cfg) for cfg in points]
    power_allocation._cap_table.cache_clear()
    power_allocation._sl_grid.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, points[i % 4]) for i in range(16)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 4


def test_capless_limit_set_builds_few_levels(fresh_grids):
    # the low-budget limit re-solves its capless multiplier to 1e-9 at
    # every refinement level; with its bisection replayed the 8-point set
    # (P and E direct, perfect cross) builds 161 levels and reads 72 again,
    # so the 256-entry memo holds them all (548 and 74, and a flushed memo,
    # when every midpoint was evaluated)
    for code in ("PP", "EP"):
        for p_avg_db in (-10.0, 0.0, 10.0, 13.0):
            low_budget_asymptote(_grid_point(code, p_avg_db))
    info = power_allocation._sl_grid.cache_info()
    assert info.misses == info.currsize <= 161


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_capacity_working_set_follows_the_block_budget():
    # a block temporary is 2**18 float64s (2 MiB). PE at 0 dB integrates
    # 2560 cells x 2560 cross nodes at 128 panels, 50 MiB per full-size
    # temporary: 104 MiB traced with the tail in one block, 10.5 MiB blocked
    assert power_allocation._CHUNK_ELEMS <= 2 ** 18
    pol = solve_lambda(_grid_point("PE", 0.0))
    assert _traced_peak_mb(lambda: capacity._capacity_at(pol, 128)) < 32.0
    # an estimated direct link sums its tail rates through cells x
    # Chebyshev points x panels; EP at 13 dB stops at 16 panels and traced
    # 4 MiB with 2 MiB chunks and with 32 MiB ones
    assert _traced_peak_mb(lambda: ergodic_capacity(_grid_point("EP", 13.0))) < 48.0


def test_estimated_grid_and_row_inversion_build_in_row_blocks(fresh_grids):
    # 128 panels: 2560 cells, and the MGF inversion at lam = 0.05 runs on
    # 206 trapezoid nodes a cell, 4 MiB per full-size temporary. The grid
    # keeps only its states and weights; inverting every one of its rows
    # traced 6.3 MiB in blocks of _CHUNK_ELEMS node values, 11.8 MiB in
    # one block. The level reads the budget series instead: building it,
    # series and all, traced 0.33 MiB
    def invert():
        grid = power_allocation._SlGrid(EST, NumericSettings(), 128, 0.05)
        assert grid.state.size == 2560
        power_allocation._mgf_invert_rate(grid.state, EST.alpha, 0.05)

    assert _traced_peak_mb(invert) < 9.0
    assert _traced_peak_mb(
        lambda: power_allocation._sl_grid(EST, NumericSettings(), 128, 0.05)) < 1.0


def test_estimated_direct_capacity_stays_under_its_plateau():
    # near saturation (p_avg 250 needs lam ~ 1e-13) and at 20 dB the
    # estimated direct link converges and stays at or below the saturated
    # capacity, where Gauss-Legendre rows in g once reported 2.5584280728,
    # 1.9e-7 above the plateau, with err 5.8e-7
    ns = NumericSettings()
    for p_avg in (250.0, 100.0):
        cfg = scenario(EST, PERFECT, p_avg=p_avg, ns=ns)
        res = ergodic_capacity(cfg)
        assert res.regime == "power_limited"
        assert res.quadrature_error_estimate <= ns.quad_rel_tol * res.capacity
        plateau = high_budget_asymptote(cfg)
        assert res.capacity <= plateau + res.quadrature_error_estimate
    # an estimated direct link without cross-link knowledge at 40 dB and a
    # loose interference cap (err 1.6e-4 with the Gauss-Legendre rows)
    res = ergodic_capacity(scenario(EST, NONE, p_avg=1e4, i_peak=1e5, ns=ns))
    assert res.regime == "power_limited"
    assert res.quadrature_error_estimate <= ns.quad_rel_tol * res.capacity


# ----------------------------------------------------------------------
# closed-form cross-link tail under perfect cross-link knowledge

# (t*, g, T) at i_peak = 10: T = integral of log(1 + 10 g / max(t, 1e-12))
# e^{-t} over [max(t*, 1e-13), upper], upper = -log(1e-10). Frozen from
# 320-digit mpmath through the primitive in E1 and confirmed to 1e-40 by
# a 40-digit mpmath.quad split at the decades:
#     c = mpf(10.0 * g); a = max(mpf(t), mpf(1e-13)); b = max(a, mpf(1e-12))
#     Q = lambda x: exp(-x) * log1p(c / x) + exp(c) * e1(x + c) - e1(x)
#     T = Q(b) - Q(upper) + log1p(c / mpf(1e-12)) * (exp(-a) - exp(-b))
RATE_TAIL_MPMATH = [
    (0.0, 0.1, 1.1735630272168796215),
    (1e-300, 1e7, 18.997896417324055606),
    (1e-20, 1e3, 9.7876560262715874953),
    (0.0, 1e-20, 2.7953805356023355451e-18),
    (1e-13, 1e-5, 0.00096336313523296977009),
    (3e-13, 1e2, 7.4859699454910131446),
    (5e-13, 0.5, 2.3570757535858140661),
    (5e-13, 1e-251, 2.7553805451023472968e-249),
    (1e-6, 1e-251, 1.3238295893058323116e-249),
    (1e-6, 1e-3, 0.050546711984310552181),
    (0.3, 2.0, 2.2514220541530718264),
    (2.5, 1e7, 1.4119329135320954209),
    (10.0, 60.0, 0.00018255039448022733703),
    (20.0, 0.05, 4.6536056488536221518e-11),
]


def test_rate_tail_matches_40_digit_mpmath():
    # t* below the 1e-13 floor, between it and the 1e-12 gain floor, and
    # above; c = i_peak g from 1e-250 to 1e8, past the 500 cutoff of the
    # scaled E1 both at t* and at upper
    capf = power_allocation._cap_field(PERFECT, 10.0, 0.05, NumericSettings())
    t, g, want = (np.array(col) for col in zip(*RATE_TAIL_MPMATH))
    got = capf.rate_tail(t, g)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert np.array_equal([capf.rate_tail(t[k], g[k]) for k in range(t.size)], got)
    # nothing is left above the truncation point
    beyond = capf.rate_tail(np.array([capf.upper, 30.0]), np.array([1.0, 1e7]))
    assert np.array_equal(beyond, [0.0, 0.0])


@pytest.mark.parametrize("t_star, g", [(0.0, 1e300), (5e-13, 1e299), (0.3, 1e300)])
def test_rate_tail_stays_finite_when_the_cap_ratio_overflows(t_star, g):
    # c / t = i_peak g / t overflows for these gains at t near the 1e-13
    # floor (and c / _GAIN_FLOOR at every t*), where the integral is about
    # ln c; the value must stay finite, without a warning, and match the
    # quadrature oracle
    capf = power_allocation._cap_field(PERFECT, 10.0, 0.05, NumericSettings())
    got = capf.rate_tail(np.array([t_star]), np.array([g]))
    want = perfect_cross_rate_tail(t_star, 10.0 * g, capf.upper)
    np.testing.assert_allclose(got, [want], rtol=1e-14, atol=0.0)


def _geometric_tail(capf, sl, t_star, rows, panels):
    """Each row's tail by a Gauss-Legendre rule of its own: panels panels
    from max(t*, 1e-13) to upper with edges in geometric progression,
    which resolves the 1/t cap of a perfect cross link, in blocks of rows
    of 2**18 node values."""
    x, w = np.polynomial.legendre.leggauss(capf.settings.quad_points)
    out = np.empty(rows.size)
    step = max(1, 2 ** 18 // (panels * x.size))
    for s in range(0, rows.size, step):
        lo = np.maximum(t_star[s:s + step], 1e-13)[:, None]
        edges = lo * (capf.upper / lo) ** np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * np.diff(edges)[:, :, None]
        nodes = (edges[:, :-1, None] + half * (x + 1.0)).reshape(lo.size, -1)
        wt = (half * w).reshape(lo.size, -1) * capf.pdf(nodes)
        out[s:s + step] = (wt * sl.rate_cells(capf.cap(nodes), rows[s:s + step])).sum(axis=1)
    return out


def _cross_state_rule(capf, sl, A, panels):
    """The capacity at panels with the cross state above each crossing
    integrated by a rule of its own per cell: geometric panels under a
    perfect cross link (_geometric_tail), _CapField.tail_sum's linear ones
    under an estimated one."""
    def tail(t_star, rows):
        if capf.level is CsiLevel.PERFECT:
            return _geometric_tail(capf, sl, t_star, rows, panels)
        return capf.tail_sum(t_star, rows, sl.rate_cells, panels)
    return float(sl.w @ capf.expect(A, sl.rate_cells, tail))


@pytest.mark.parametrize("code, p_avg_db", [("PP", 0.0), ("PP", 13.0), ("PP", 22.5),
                                           ("NP", 0.0), ("NP", 13.0), ("NP", 20.0)])
def test_closed_form_tail_matches_the_cross_state_rule(code, p_avg_db):
    # the closed form (rate_tail for a known direct gain, burst_tail at
    # tau = 0 for an unknown one) against the cells x cross nodes rule it
    # replaced, at every refinement level where that rule has resolved the
    # 1/t cap
    cfg = _grid_point(code, p_avg_db)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    ns = cfg.numerics
    for level in range(1, ns.max_refinements + 1):
        panels = ns.base_panels * 2 ** level
        sl = pol._grid(panels)
        rule = _cross_state_rule(pol._capf, sl, sl.A, panels)
        assert capacity._capacity_at(pol, panels) == pytest.approx(rule, rel=0.0,
                                                                   abs=1e-13)


# E[log(1 + min(p_avg, i_peak / t) g)] for exponential g and t, the cross
# state truncated at -ln(tail_mass) like the engine's: the rate
# e^{1/P} E1(1/P) integrated by mpmath at 40 digits, rounded to 22
NP_MPMATH = [
    (0.0, 0.5963457516739560348345),
    (13.0, 2.146491538676744115919),
    (20.0, 2.463083685617660425496),
]


@pytest.mark.parametrize("p_avg_db, want", NP_MPMATH,
                         ids=[f"NP@{p:g}dB" for p, _ in NP_MPMATH])
def test_no_direct_knowledge_perfect_cross_matches_40_digit_mpmath(p_avg_db, want):
    # the one cell's closed-form rate through the cross-state rule
    res = ergodic_capacity(_grid_point("NP", p_avg_db))
    assert res.regime == "power_limited"
    assert res.capacity == pytest.approx(want, rel=1e-14)
    assert res.quadrature_error_estimate <= 1e-14 * want


@pytest.mark.parametrize("code, p_avg_db", [("EP", 13.0), ("PE", 0.0), ("EE", 0.0)])
def test_estimated_links_keep_the_cross_state_rule(code, p_avg_db):
    # an estimated link integrates the cross state on one grid shared by
    # every cell: against the rule of its own per cell that it replaced,
    # at the levels where both have resolved the tail
    cfg = _grid_point(code, p_avg_db)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    ns = cfg.numerics
    for panels in (2 * ns.base_panels, 4 * ns.base_panels):
        sl = power_allocation._sl_grid(cfg.sl_csi, ns, panels, pol.lam)
        rule = _cross_state_rule(pol._capf, sl, sl.A, panels)
        assert capacity._capacity_at(pol, panels) == pytest.approx(rule, rel=1e-12,
                                                                   abs=0.0)


@pytest.mark.parametrize("code, p_avg_db", [("EP", 13.0), ("PE", 0.0), ("EE", 0.0)])
def test_shared_tail_does_not_depend_on_the_block_size(monkeypatch, code, p_avg_db):
    # blocks of one cell and one panel give every level the same bits as
    # the default blocks
    pol = solve_lambda(_grid_point(code, p_avg_db))
    levels = (8, 16, 32)
    want = [capacity._capacity_at(pol, panels).hex() for panels in levels]
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", 64)
    assert [capacity._capacity_at(pol, panels).hex() for panels in levels] == want


def test_low_budget_asymptote_raises_when_bisection_runs_out(monkeypatch, fresh_grids):
    # a spent-power curve that jumps across the budget at lam = 0.5 can
    # be bracketed but never met: the bisection must not hand back its
    # last midpoint as if it had converged (budget p_avg = 1; a level's
    # weights sum to about e^-lam, so it spends 2 e^-lam, then 0.5 e^-lam)
    def jump(csi, settings, lam, state):
        return np.full(state.size, 2.0 if lam < 0.5 else 0.5)

    monkeypatch.setattr(power_allocation, "_budget_component", jump)
    with pytest.raises(NumericsError, match="capless multiplier bisection"):
        low_budget_asymptote(scenario(PERFECT, PERFECT))
