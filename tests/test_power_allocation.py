"""Power-policy checks: caps, components, multiplier search, regimes.

Frozen anchors come from an independent scipy implementation (nested
adaptive quadrature plus brentq on the budget equation) kept outside
this package; both routes agreed before the digits were pinned.
"""

import copy
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from crcap import capacity, power_allocation
from crcap.fading import CsiKnowledge, conditional_power_pdf
from crcap.power_allocation import (
    NumericSettings,
    PowerPolicy,
    ScenarioConfig,
    average_power_threshold,
    interference_power_cap,
    invert_rate_integral,
    rate_integral,
    solve_lambda,
)
from crcap.quadrature import panel_rule
from crcap.special_functions import NumericsError

TIGHT = NumericSettings(lambda_rel_tol=1e-7)


def scenario(sl, cl, p_avg=1.0, i_peak=10.0, eps=0.05, ns=None, **kw):
    return ScenarioConfig(sl_csi=sl, cl_csi=cl, p_avg=p_avg, i_peak=i_peak,
                          epsilon=eps, numerics=ns or NumericSettings(), **kw)


# ----------------------------------------------------------------------
# sweep axes

@pytest.mark.parametrize("axis, value, name, expect", [
    ("p_avg", 2.5, "p_avg", 2.5),
    ("i_peak", 3.0, "i_peak", 3.0),
    ("epsilon", 0.2, "epsilon", 0.2),
    ("alpha_s", 0.3, "sl_csi", CsiKnowledge.estimated(0.3)),
    ("alpha_p", 1.0, "cl_csi", CsiKnowledge.no_csi()),
])
def test_with_axis_sets_its_field(axis, value, name, expect):
    base = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect())
    assert base.with_axis(axis, value) == base.replace(**{name: expect})


def test_with_axis_rejects_unknown_axis():
    base = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect())
    with pytest.raises(ValueError, match="unknown sweep axis"):
        base.with_axis("bandwidth", 1.0)


# ----------------------------------------------------------------------
# interference cap

def test_cap_no_knowledge_constant():
    cap = interference_power_cap(None, CsiKnowledge.no_csi(), 10.0, 0.05)
    assert cap == pytest.approx(3.338082006953341, rel=1e-12)


def test_cap_perfect_inverse_gain():
    caps = interference_power_cap(np.array([2.0, 0.5]), CsiKnowledge.perfect(),
                                  10.0, 0.05)
    np.testing.assert_allclose(caps, [5.0, 20.0], rtol=1e-13)


def test_cap_estimated_at_zero_estimate():
    cap = interference_power_cap(0.0, CsiKnowledge.estimated(0.5), 10.0, 0.05)
    assert cap == pytest.approx(6.676164013906681, rel=1e-9)


def test_cap_estimated_decreasing_in_estimate():
    ms = np.linspace(0.0, 8.0, 30)
    caps = interference_power_cap(ms, CsiKnowledge.estimated(0.5), 10.0, 0.05)
    assert np.all(np.diff(caps) < 0)


def test_cap_estimated_meets_conditional_outage_exactly():
    # P(g > i_peak / cap | m) must equal epsilon
    m, alpha, i_peak, eps = 1.3, 0.5, 10.0, 0.05
    cap = interference_power_cap(m, CsiKnowledge.estimated(alpha), i_peak, eps)
    thr = i_peak / cap
    tail, _ = integrate.quad(lambda g: conditional_power_pdf(g, m, alpha),
                             thr, thr + 60.0, limit=300)
    assert tail == pytest.approx(eps, abs=1e-9)


def test_cap_validates_inputs():
    with pytest.raises(ValueError):
        interference_power_cap(1.0, CsiKnowledge.perfect(), -1.0, 0.05)
    with pytest.raises(ValueError):
        interference_power_cap(1.0, CsiKnowledge.perfect(), 10.0, 1.5)


# ----------------------------------------------------------------------
# conditional rate integral and its inverse

def test_rate_integral_at_zero_power_is_conditional_mean():
    assert rate_integral(0.0, 1.0, 0.5) == pytest.approx(1.5, rel=1e-9)
    assert rate_integral(0.0, 4.0, 0.3) == pytest.approx(4.3, rel=1e-9)


def test_rate_integral_frozen_value():
    # m=0, alpha=0.5: closed form 1 - 2 e^2 E1(2)
    assert rate_integral(1.0, 0.0, 0.5) == pytest.approx(
        0.27734276622355483, rel=1e-9)


# scipy.integrate.quad of the i0e-form density times g / (1 + P g) over
# [0, conditional_support_bound(0.5, 0.5, 1e-12)] with a break at g = 1/P,
# epsabs=0, epsrel=1e-13. At the two large powers the layer g <~ 1/P carries
# the integral; uniform panels miss it by 6.3e-6 and 9.7e-8 relative
@pytest.mark.parametrize("power, want", [
    (1.0, 0.419696456591781),
    (100.0, 0.009656647157964408),
    (999989.8, 1.0000000000402004e-06),
    (1e8, 9.999998641182962e-09),
])
def test_rate_integral_matches_quad_across_the_small_gain_layer(power, want):
    assert rate_integral(power, 0.5, 0.5) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_rate_integral_decreasing_in_power():
    ps = np.array([0.0, 0.5, 1.0, 2.0, 8.0])
    vals = rate_integral(ps, 1.0, 0.5)
    assert np.all(np.diff(vals) < 0)


def test_invert_rate_integral_roundtrip():
    for m, alpha in [(0.0, 0.5), (1.0, 0.5), (3.0, 0.2)]:
        for target in [0.05, 0.3, 0.9]:
            if target >= m + alpha:
                continue
            p = invert_rate_integral(target, m, alpha)
            assert rate_integral(p, m, alpha) == pytest.approx(target, rel=1e-7)


def test_invert_rate_integral_zero_above_conditional_mean():
    # rate_integral(0) = m + alpha, so any target at or above it gives P = 0
    assert invert_rate_integral(1.5, 1.0, 0.5) == 0.0
    assert invert_rate_integral(2.0, 1.0, 0.5) == 0.0


def test_invert_rate_integral_raises_when_out_of_steps(monkeypatch):
    monkeypatch.setattr(power_allocation, "_RATE_INVERSION_STEPS", 3)
    with pytest.raises(NumericsError):
        invert_rate_integral(0.3, 1.0, 0.5)


# ----------------------------------------------------------------------
# matrix kernels: row inversion and the log-power rate interpolant

def _inversion_rows(lam, alpha):
    """Estimates for m = 0, rows whose mean m + alpha sits just above and
    just below lam (where m >= 0 allows), and a few ordinary rows."""
    edge = lam - alpha
    m = [0.0, 0.5, 2.0, 6.0] + [edge + d for d in (1e-6, -1e-6) if edge + d >= 0.0]
    return np.array(m)


def _bisect_rows(g, wg, lam):
    """Plain per-row bisection on the same rule, run until the bracket
    stops shrinking in floating point."""
    out = np.zeros(g.shape[0])
    for j in range(g.shape[0]):
        if (wg[j] * g[j]).sum() <= lam:
            continue
        lo, hi = 0.0, 1.0 / lam
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (wg[j] * g[j] / (1.0 + mid * g[j])).sum() > lam:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out[j] = mid
    return out


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("lam", [1e-6, 0.05, 0.3, 1.0])
def test_row_inversion_matches_plain_bisection(alpha, lam):
    m = _inversion_rows(lam, alpha)
    g, wg = power_allocation._conditional_matrix(m, alpha, 16, 20, 1e-10)
    got = power_allocation._invert_rate_matrix(g, wg, lam)
    want = _bisect_rows(g, wg, lam)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, 1.0 / lam)
    # rows at or below the multiplier transmit nothing
    assert np.all(got[(wg * g).sum(axis=1) <= lam] == 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_row_inversion_matches_scalar_oracle(alpha, lam):
    # a fine matrix rule with a tiny tail so both routes integrate the same
    # r(P) to ~1e-14; for lam <= 0.05 the two quadratures themselves differ
    # by more than the tolerance near g ~ 1/P, which the bisection test
    # above isolates from the inversion
    m = _inversion_rows(lam, alpha)
    g, wg = power_allocation._conditional_matrix(m, alpha, 64, 20, 1e-14)
    got = power_allocation._invert_rate_matrix(g, wg, lam)
    ns = NumericSettings(bisect_tol=1e-15, tail_mass=1e-12)
    want = np.array([invert_rate_integral(lam, float(mi), alpha, ns) for mi in m])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, 1.0 / lam)


# _invert_rate_matrix's output before its Newton steps worked in place.
# Three row blocks of at most 5 rows; at lam = 1 the first block holds
# inactive rows (mean <= lam), and in every block the rows converge at
# different steps, so the steps also run on subsets of a block's rows.
_FROZEN_ROW_ROOTS = {
    1.0: ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.4a9dc5f9768b4p-7",
          "0x1.b804dcb26f601p-5", "0x1.e4a0178c334afp-3",
          "0x1.999cf1fd48086p-2", "0x1.3172b00ffd29ap-1",
          "0x1.78f44c3636935p-1", "0x1.b24b2f313053cp-1",
          "0x1.d446057f98ddcp-1", "0x1.eb3c7eaaf2ff7p-1",
          "0x1.f70acd897c297p-1", "0x1.fd8f362748e80p-1"],
    0.05: ["0x1.081cf3e43b65cp+4", "0x1.1a9a42dd5a571p+4",
           "0x1.210cecd35665ap+4", "0x1.2196c399bdf42p+4",
           "0x1.2397cd55f5902p+4", "0x1.2b119c7dcc491p+4",
           "0x1.31213158243b3p+4", "0x1.3832c440346a4p+4",
           "0x1.3b97132cb113cp+4", "0x1.3d0bf5b8b69fbp+4",
           "0x1.3ef1313cc46a4p+4", "0x1.3f68efdcbe5fap+4",
           "0x1.3f828624ce6dcp+4", "0x1.3fff8e3513d4ap+4"],
}


@pytest.mark.parametrize("lam", sorted(_FROZEN_ROW_ROOTS))
def test_row_inversion_bits_frozen(monkeypatch, lam):
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", 80)
    m = np.array([0.0, 0.3, 0.5, 0.52, 0.6, 1.0, 1.5, 2.5, 4.0, 7.0, 12.0,
                  25.0, 60.0, 200.0])
    g, wg = power_allocation._conditional_matrix(m, 0.5, 4, 4, 1e-10)
    assert g.shape == (14, 16)
    got = power_allocation._invert_rate_matrix(g, wg, lam)
    assert [float(p).hex() for p in got] == _FROZEN_ROW_ROOTS[lam]


def test_row_inversion_raises_when_out_of_steps(monkeypatch):
    monkeypatch.setattr(power_allocation, "_ROW_INVERSION_STEPS", 1)
    g, wg = power_allocation._conditional_matrix(np.array([0.5, 2.0]), 0.5,
                                                 8, 20, 1e-10)
    with pytest.raises(NumericsError):
        power_allocation._invert_rate_matrix(g, wg, 0.05)


def _tail_powers(cross, i_peak, panels):
    """Direct-link grid and the (cells x cross nodes) tail powers that the
    capacity integrates at 13 dB for an estimated direct link."""
    cfg = scenario(CsiKnowledge.estimated(0.5), cross, p_avg=10.0 ** 1.3,
                   i_peak=i_peak)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    sl = power_allocation._SlGrid(cfg.sl_csi, cfg.numerics, panels, lam=pol.lam)
    A = sl.budget_component(pol.lam, cfg.p_avg)
    nodes, _ = pol._capf.tail_rule(pol._capf.crossing_state(A), panels)
    return sl, pol._capf.cap(nodes)


# an estimated cross link saturates above ~6.3 dB at i_peak 10; i_peak 100
# keeps the EE policy power-limited at 13 dB
@pytest.mark.parametrize("cross, i_peak", [(CsiKnowledge.perfect(), 10.0),
                                           (CsiKnowledge.estimated(0.5), 100.0)],
                         ids=["EP", "EE"])
@pytest.mark.parametrize("panels", [16, 32])
def test_log_power_rate_kernel_matches_direct_sum(cross, i_peak, panels):
    sl, P = _tail_powers(cross, i_peak, panels)
    P[0] = P[0, P.shape[1] // 2]   # a row of equal powers
    P[1, ::3] = 0.0                # a row that includes P = 0
    P[2] = 0.0                     # a row of zeros
    got = sl.rate_cells(P)
    want = np.array([(sl._wg[j] * np.log1p(P[j][:, None] * sl._g[j])).sum(axis=1)
                     for j in range(P.shape[0])])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# ----------------------------------------------------------------------
# per-state budget component

def _policy_at(sl, lam, p_avg=1.0):
    """A power-limited policy at a given multiplier, without a solve."""
    cfg = scenario(sl, CsiKnowledge.no_csi(), p_avg=p_avg)
    capf = power_allocation._cap_field(cfg.cl_csi, cfg.i_peak, cfg.epsilon,
                                       cfg.numerics)
    return PowerPolicy(cfg, lam, "power_limited", capf.constant, capf)


def test_component_perfect_water_filling_shape():
    lam = 0.4
    g = np.array([0.2, 0.4, 1.0, 10.0])
    comp = _policy_at(CsiKnowledge.perfect(), lam).budget_component(g)
    expect = np.array([0.0, 0.0, 1.0 / lam - 1.0, 1.0 / lam - 0.1])
    np.testing.assert_allclose(comp, expect, rtol=1e-12, atol=1e-12)


def test_component_none_is_constant_budget():
    comp = _policy_at(CsiKnowledge.no_csi(), 0.0, p_avg=2.5).budget_component(None)
    assert comp == 2.5


# ----------------------------------------------------------------------
# the monotone cubic interpolant behind the cap table and the budget table

def _recording_pchip(monkeypatch):
    """Patch _Pchip to record the (x, y) of every interpolant it builds."""
    made = []

    class Recording(power_allocation._Pchip):
        def __init__(self, x, y):
            made.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
            super().__init__(x, y)

    monkeypatch.setattr(power_allocation, "_Pchip", Recording)
    return made


def _probe_points(x):
    """Knots, midpoints, knots moved one ulp either way, random interior
    points and points beyond both ends."""
    rng = np.random.default_rng(7)
    span = x[-1] - x[0]
    beyond = span * np.geomspace(1e-12, 1e20, 64)
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                           np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           rng.uniform(x[0], x[-1], 20000),
                           x[0] - beyond, x[-1] + beyond])


def _assert_equals_scipy_pchip(interp, x, y):
    from scipy.interpolate import PchipInterpolator

    v = _probe_points(x)
    want = PchipInterpolator(x, y, extrapolate=True)(v)
    assert np.array_equal(interp(v), want)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.3])
def test_cap_table_interpolants_equal_scipy_pchip(monkeypatch, alpha, eps):
    made = _recording_pchip(monkeypatch)
    capf = power_allocation._CapField(CsiKnowledge.estimated(alpha), 10.0, eps,
                                      NumericSettings())
    (m, q), (q_knots, m_values) = made
    assert np.array_equal(q, q_knots) and np.array_equal(m, m_values)
    _assert_equals_scipy_pchip(capf._q_of_m, m, q)
    _assert_equals_scipy_pchip(capf._m_of_q, q, m)


def test_budget_interpolant_equals_scipy_pchip(monkeypatch):
    est = CsiKnowledge.estimated(0.5)
    pol = solve_lambda(scenario(est, est))
    assert pol.regime == "power_limited"
    made = _recording_pchip(monkeypatch)
    pol.budget_component(np.array([0.5]))
    (m, vals), = made
    _assert_equals_scipy_pchip(pol._budget_interp[2], m, vals)


def test_pchip_rejects_bad_knots():
    with pytest.raises(ValueError):
        power_allocation._Pchip([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        power_allocation._Pchip([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        power_allocation._Pchip([0.0, 1.0, 2.0], [0.0, np.nan, 2.0])


# ----------------------------------------------------------------------
# saturation threshold

def test_threshold_no_knowledge_is_the_constant_cap():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi())
    assert average_power_threshold(cfg) == pytest.approx(3.338082006953341,
                                                         rel=1e-10)


def test_threshold_perfect_cross_is_infinite():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect())
    assert average_power_threshold(cfg) == math.inf


def test_threshold_estimated_cross_frozen():
    # independent ncx2 + quad route gave 4.243169
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5))
    assert average_power_threshold(cfg) == pytest.approx(4.243169, rel=1e-5)


def test_cap_table_shared_across_budgets_not_across_epsilon():
    power_allocation._cap_table.cache_clear()
    est = CsiKnowledge.estimated(0.5)
    low = solve_lambda(scenario(CsiKnowledge.perfect(), est, p_avg=0.5))
    high = solve_lambda(scenario(CsiKnowledge.perfect(), est, p_avg=2.0))
    other = solve_lambda(scenario(CsiKnowledge.perfect(), est, p_avg=0.5,
                                  eps=0.1))
    assert low._capf is high._capf
    assert other._capf is not low._capf
    assert power_allocation._cap_table.cache_info().currsize == 2


def test_cap_table_shared_between_threads():
    # the CLI solves sweep points on a thread pool, all reading one table
    fast = NumericSettings(quad_points=8, base_panels=4, max_refinements=2)
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5), ns=fast)
    power_allocation._cap_table.cache_clear()
    expected = solve_lambda(cfg).lam
    power_allocation._cap_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(solve_lambda, cfg) for _ in range(16)]
            lams = [f.result(timeout=120).lam for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert lams == [expected] * 16
    assert power_allocation._cap_table.cache_info().currsize == 1


def test_cap_table_built_once_when_threads_miss_together(monkeypatch):
    # two threads ask for the same table at the same moment; the build is
    # slowed so both reach the cache before either has filled it
    builds = []

    class SlowCapField(power_allocation._CapField):
        def __init__(self, *args):
            builds.append(args)
            time.sleep(0.05)
            super().__init__(*args)

    monkeypatch.setattr(power_allocation, "_CapField", SlowCapField)
    power_allocation._cap_table.cache_clear()
    key = (CsiKnowledge.estimated(0.5), 10.0, 0.05, NumericSettings())
    start = threading.Barrier(2)

    def fetch():
        start.wait(timeout=10)
        return power_allocation._cap_field(*key)

    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            tables = [f.result(timeout=60) for f in
                      [pool.submit(fetch) for _ in range(2)]]
    finally:
        power_allocation._cap_table.cache_clear()
    assert len(builds) == 1
    assert tables[0] is tables[1]


# ----------------------------------------------------------------------
# cap tail table

def _perfect_cross_tail(t_star, i_peak, upper):
    """Closed form of the integral of i_peak / max(t, 1e-12) e^-t over
    [max(t_star, 1e-13), upper]: constant cap below 1e-12, then E1."""
    a = max(t_star, 1e-13)
    if a < 1e-12:
        # e^-a - e^-1e-12 without cancellation
        head = -1e12 * math.exp(-a) * math.expm1(a - 1e-12)
        return i_peak * (head + special.exp1(1e-12) - special.exp1(upper))
    return i_peak * (special.exp1(a) - special.exp1(upper))


@pytest.mark.parametrize("t_star", [0.0, 5e-13, 1e-12, 1e-6, 0.3, 5.0, "upper"])
def test_cap_tail_table_matches_closed_form_perfect_cross(t_star):
    capf = power_allocation._CapField(CsiKnowledge.perfect(), 10.0, 0.05,
                                      NumericSettings())
    t = capf.upper if t_star == "upper" else t_star
    want = _perfect_cross_tail(t, 10.0, capf.upper)
    assert float(capf.tail_integral(t)) == pytest.approx(want, rel=1e-13, abs=0.0)


def _tail_reference(capf, t_star):
    """Cap tail over [t_star, upper] with 4 Gauss-Legendre panels in each
    PCHIP interval and in the partial interval above t_star."""
    knots = capf._knots
    above = knots[knots > t_star]
    edges = np.unique(np.concatenate(
        [np.linspace(a, b, 5) for a, b in zip(np.append(t_star, above[:-1]), above)]))
    x, w = panel_rule(edges, capf.settings.quad_points)
    return math.fsum(w * capf.cap(x) * capf.pdf(x))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.3])
def test_cap_tail_table_matches_finer_rule_estimated_cross(alpha, eps):
    capf = power_allocation._CapField(CsiKnowledge.estimated(alpha), 10.0, eps,
                                      NumericSettings())
    knots = capf._knots
    t = np.concatenate([[0.0, knots[1], knots[500]],
                        np.random.default_rng(7).uniform(0.0, capf.upper, 20)])
    want = [_tail_reference(capf, ti) for ti in t]
    np.testing.assert_allclose(capf.tail_integral(t), want, rtol=1e-13, atol=0.0)
    assert capf.tail_integral(capf.upper) == 0.0
    dense = np.sort(np.concatenate([np.linspace(0.0, capf.upper, 4001), knots]))
    assert np.all(np.diff(capf.tail_integral(dense)) <= 0.0)


_cross_setups = st.one_of(
    st.just(CsiKnowledge.perfect()),
    st.floats(0.02, 0.98).map(CsiKnowledge.estimated))


@settings(max_examples=25, deadline=None)
@given(cl=_cross_setups,
       i_peak=st.floats(0.1, 100.0),
       eps=st.floats(1e-6, 0.3),
       log_a=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=12))
def test_capped_mean_is_bounded_and_nondecreasing(cl, i_peak, eps, log_a):
    capf = power_allocation._CapField(cl, i_peak, eps, NumericSettings())
    a = 10.0 ** np.sort(np.asarray(log_a))
    mean = capf.capped_mean(a)
    top = float(capf.tail_integral(0.0))
    rounding = 1e-13 * np.maximum(mean, 1.0)
    assert np.all(mean >= 0.0)
    assert np.all(np.diff(mean) >= -rounding[1:])
    assert np.all(mean <= np.minimum(a, top) + rounding)


# ----------------------------------------------------------------------
# multiplier search

def _count_grid_builds(monkeypatch):
    calls = []
    build = power_allocation._conditional_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(power_allocation, "_conditional_matrix", counted)
    return calls


def _rebuild_grid_every_trial(monkeypatch):
    def rebuild(csi, settings, panels):
        return lambda lam: power_allocation._SlGrid(csi, settings, panels, lam=lam)

    monkeypatch.setattr(power_allocation, "_grid_memo", rebuild)
    monkeypatch.setattr(capacity, "_grid_memo", rebuild)


def _drop_handover(monkeypatch):
    solve = power_allocation.solve_lambda

    def solve_without_handover(config):
        policy = solve(config)
        policy._trial = None
        return policy

    monkeypatch.setattr(capacity, "solve_lambda", solve_without_handover)


@pytest.mark.parametrize("p_avg_db, plain, reused", [(0.0, 17, 4), (-10.0, 15, 15)])
def test_multiplier_search_reuses_the_estimated_grid(monkeypatch, p_avg_db,
                                                     plain, reused):
    # the grid starts at estimate max(lam - alpha, 0): at 0 dB the trials
    # with lam <= alpha share one grid; at -10 dB every trial has
    # lam > alpha and needs its own
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect(),
                   p_avg=10.0 ** (p_avg_db / 10.0))
    calls = _count_grid_builds(monkeypatch)
    pol = solve_lambda(cfg)
    assert len(calls) == reused
    # the capacity refines at base_panels and 2 * base_panels; the second
    # level takes the search's last grid instead of building it again
    calls.clear()
    res = capacity.ergodic_capacity(cfg)
    assert len(calls) == reused + 1
    cap = res.capacity

    _drop_handover(monkeypatch)
    calls.clear()
    assert capacity.ergodic_capacity(cfg) == res
    assert len(calls) == reused + 2

    _rebuild_grid_every_trial(monkeypatch)
    calls.clear()
    ref = solve_lambda(cfg)
    assert len(calls) == plain
    assert (pol.lam, pol.p_avg_star) == (ref.lam, ref.p_avg_star)
    assert cap == capacity.ergodic_capacity(cfg).capacity


def test_handed_over_grid_serves_once():
    # the search's last grid is released by its first user, so a policy
    # does not hold it for its whole life
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect())
    pol = solve_lambda(cfg)
    assert pol._trial[:2] == (pol.lam, 2 * cfg.numerics.base_panels)
    capacity._capacity_of(pol)
    assert pol._trial is None
    pol = solve_lambda(cfg)
    power = pol.expected_power()
    assert pol._trial is None
    assert pol.expected_power() == power


def test_corrupted_lambda_copy_builds_its_own_grid():
    # cli verify --corrupt-lambda rescales lam on a shallow copy of the
    # policy: the grid solved at the old lam must not reach it
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect())
    pol = solve_lambda(cfg)
    bad = copy.copy(pol)
    bad.lam = pol.lam * 1.5
    bad._budget_interp = None
    panels = 2 * cfg.numerics.base_panels
    sl = power_allocation._SlGrid(cfg.sl_csi, cfg.numerics, panels, lam=bad.lam)
    A = sl.budget_component(bad.lam, cfg.p_avg)
    assert bad.expected_power() == float(sl.w @ pol._capf.capped_mean(A))
    assert bad.expected_power() != pol.expected_power()


def test_capless_multiplier_search_reuses_the_estimated_grid(monkeypatch):
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect())
    calls = _count_grid_builds(monkeypatch)
    low = capacity.low_budget_asymptote(cfg)
    reused = len(calls)

    _rebuild_grid_every_trial(monkeypatch)
    calls.clear()
    assert capacity.low_budget_asymptote(cfg) == low
    assert reused < len(calls) / 5


def test_lambda_perfect_perfect_frozen():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), ns=TIGHT)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    assert pol.lam == pytest.approx(0.3936003275, rel=2e-6)
    assert pol.expected_power() == pytest.approx(1.0, rel=3e-7)


def test_lambda_perfect_estimated_frozen():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5), ns=TIGHT)
    pol = solve_lambda(cfg)
    assert pol.lam == pytest.approx(0.3931649041, rel=2e-6)
    assert pol.expected_power() == pytest.approx(1.0, rel=3e-7)


def test_lambda_estimated_perfect_frozen():
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect(), ns=TIGHT)
    pol = solve_lambda(cfg)
    assert pol.lam == pytest.approx(0.3918221362, rel=2e-6)
    assert pol.expected_power() == pytest.approx(1.0, rel=1e-6)


def test_lambda_no_cap_binding_reduces_to_water_filling():
    # a huge i_peak makes the cap irrelevant; lambda must match the
    # unconstrained water-filling root of e^-l/l - E1(l) = p_avg
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi(),
                   i_peak=1e6, ns=TIGHT)
    pol = solve_lambda(cfg)
    assert pol.lam == pytest.approx(0.393773845045, rel=2e-6)


# multipliers of the solver that integrated the cap tail afresh for every
# trial (a 16-panel rule per direct-link cell); the cap tail table must
# reproduce each bit for bit
_FROZEN_LAMBDAS = {
    ("PP", -10.0): 1.1661376953125,
    ("PP", 0.0): 0.39361572265685646,
    ("PP", 13.0): 0.020385742188479616,
    ("PE", -10.0): 1.1661376953125,
    ("PE", 0.0): 0.39315795898498185,
    ("EP", -10.0): 0.9249267578125752,
    ("EP", 0.0): 0.3918151855474832,
    ("EP", 13.0): 0.021408081055666092,
    ("EE", -10.0): 0.9249267578125752,
    ("EE", 0.0): 0.3917541503912333,
    ("PN", -10.0): 1.1661376953125,
    ("PN", 0.0): 0.3937683105474813,
}
_KNOWLEDGE = {"P": CsiKnowledge.perfect(), "E": CsiKnowledge.estimated(0.5),
              "N": CsiKnowledge.no_csi()}


@pytest.mark.parametrize("code, p_avg_db", list(_FROZEN_LAMBDAS),
                         ids=[f"{c}@{p:g}dB" for c, p in _FROZEN_LAMBDAS])
def test_lambda_frozen_bit_for_bit(code, p_avg_db):
    cfg = scenario(_KNOWLEDGE[code[0]], _KNOWLEDGE[code[1]],
                   p_avg=10.0 ** (p_avg_db / 10.0))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    assert pol.lam == _FROZEN_LAMBDAS[code, p_avg_db]


def test_lambda_frozen_near_the_perfect_cross_threshold():
    # at lam ~ 1.1e-13 the budget component 1/lam - 1/g reaches ~9e12, so
    # its crossing state i_peak / A sits just above the 1e-12 gain floor,
    # below which the cap is constant
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), p_avg=279.5)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    assert pol.lam == 1.1103027343749999e-13


def test_rescaled_constant_frozen():
    cfg = scenario(CsiKnowledge.no_csi(), CsiKnowledge.perfect(), p_avg=2.0,
                   rescale_no_csi_budget=True)
    assert solve_lambda(cfg).budget_component(None) == 2.002006491704833


def test_saturated_regime_above_threshold():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5), p_avg=6.0)
    pol = solve_lambda(cfg)
    assert pol.regime == "saturated"
    assert pol.lam == 0.0
    assert pol.p_avg_star == pytest.approx(4.243169, rel=1e-4)
    # spends the mean cap, not the budget
    assert pol.expected_power() == pytest.approx(pol.p_avg_star, rel=1e-6)


def test_power_limited_just_below_threshold():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi(),
                   p_avg=3.3, ns=TIGHT)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    assert pol.expected_power() == pytest.approx(3.3, rel=1e-6)


def test_saturated_no_knowledge_cross():
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi(), p_avg=5.0)
    pol = solve_lambda(cfg)
    assert pol.regime == "saturated"
    assert pol.power(sl_state=None, cl_state=None) == pytest.approx(
        3.338082006953341, rel=1e-12)


def test_no_sl_knowledge_literal_constant():
    cfg = scenario(CsiKnowledge.no_csi(), CsiKnowledge.perfect(), p_avg=1.0)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    gp = np.array([0.5, 2.0, 100.0])
    p = pol.power(sl_state=None, cl_state=gp)
    np.testing.assert_allclose(p, np.minimum(1.0, 10.0 / gp), rtol=1e-12)
    # capping the constant leaves average power strictly under budget
    assert pol.expected_power() < 1.0


def test_no_sl_knowledge_rescaled_constant():
    cfg = scenario(CsiKnowledge.no_csi(), CsiKnowledge.perfect(), p_avg=1.0,
                   ns=TIGHT, rescale_no_csi_budget=True)
    pol = solve_lambda(cfg)
    assert pol.expected_power() == pytest.approx(1.0, rel=1e-6)
    # the enlarged constant exceeds the raw budget
    assert pol.budget_component(None) > 1.0


def test_expected_capped_power_closed_form_perfect_cross():
    # E_gp[min(a, i/gp)] = a(1 - e^{-i/a}) + i E1(i/a) for Rayleigh gp;
    # a saturated=false policy with constant component exercises the
    # same field the solver integrates
    cfg = scenario(CsiKnowledge.no_csi(), CsiKnowledge.perfect(), p_avg=2.0)
    pol = solve_lambda(cfg)
    a, i_peak = 2.0, 10.0
    closed = a * (1 - math.exp(-i_peak / a)) + i_peak * special.exp1(i_peak / a)
    assert pol.expected_power() == pytest.approx(closed, rel=1e-9)


def test_policy_interface_declarations():
    pol = solve_lambda(scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5)))
    assert pol.sl_state_kind == "gain"
    assert pol.cl_state_kind == "estimate"
    sat = solve_lambda(scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi(),
                                p_avg=5.0))
    # a saturated policy transmits the cap and never reads the direct link
    assert sat.regime == "saturated"
    assert sat.sl_state_kind == "none" and sat.cl_state_kind == "none"


def test_policy_power_is_min_of_components():
    pol = solve_lambda(scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(),
                                ns=TIGHT))
    g = np.array([0.2, 1.0, 5.0])
    gp = np.array([10.0, 1.0, 0.1])
    p = pol.power(g, gp)
    expect = np.minimum(pol.budget_component(g), pol.cap_component(gp))
    np.testing.assert_allclose(p, expect, rtol=1e-13)
    assert p[0] == 0.0  # below the water-filling cutoff


def test_policy_budget_interp_matches_exact_inversion():
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.no_csi(), ns=TIGHT)
    pol = solve_lambda(cfg)
    ms = np.linspace(0.0, 6.0, 41)
    fast = pol.budget_component(ms)
    exact = np.array([invert_rate_integral(pol.lam, float(m), 0.5) for m in ms])
    np.testing.assert_allclose(fast, exact, atol=5e-8)


def test_saturated_policy_rejects_budget_component():
    pol = solve_lambda(scenario(CsiKnowledge.perfect(), CsiKnowledge.no_csi(),
                                p_avg=5.0))
    with pytest.raises(ValueError):
        pol.budget_component(np.array([1.0]))


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), p_avg=-1.0)
    with pytest.raises(ValueError):
        scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), eps=0.0)
    with pytest.raises(ValueError):
        scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), i_peak=0.0)


def test_numeric_settings_validation():
    with pytest.raises(ValueError):
        NumericSettings(quad_points=1)
    with pytest.raises(ValueError):
        NumericSettings(tail_mass=0.5)


def test_rescaled_constant_raises_when_bisection_runs_out(monkeypatch):
    # a capped mean that jumps across the budget at c = 3 can be bracketed
    # but never met: the bisection must not hand back its last midpoint
    def jump(self, a):
        return np.where(np.asarray(a) >= 3.0, 4.0, 1.0)

    monkeypatch.setattr(power_allocation._CapField, "capped_mean", jump)
    cfg = scenario(CsiKnowledge.no_csi(), CsiKnowledge.perfect(), p_avg=2.0,
                   rescale_no_csi_budget=True)
    with pytest.raises(NumericsError, match="rescaled constant bisection"):
        solve_lambda(cfg)
