"""On-off transmission checks: burst level, rate, threshold search.

Anchors come from a scipy route (bounded minimize_scalar over the
closed-form burst rate) run outside this package.
"""

import math
import warnings

import numpy as np
import pytest
import workloads
from scipy import special

from crcap.capacity import ergodic_capacity
from crcap import onoff, power_allocation, quadrature
from crcap.fading import CsiKnowledge, marginal_power_quantile
from crcap.onoff import onoff_rate, optimize_threshold
from crcap.power_allocation import NumericSettings, ScenarioConfig
from crcap.special_functions import NumericsError
from oracles import OnOffPolicy, on_level, onoff_rate_perfect_cross

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


# onoff_rate at p_avg = 1, i_peak = 10, eps = 0.05: (cross link, tau, rate)
ONOFF_MPMATH = [
    (PERFECT, 0.5, 0.70205149423352447),
    (PERFECT, 1.5, 0.5393522936324182),
    (EST, 0.5, 0.70188527359650225),
    (EST, 1.5, 0.50902010986436643),
]


@pytest.mark.parametrize("cl, tau, rate", ONOFF_MPMATH)
def test_rate_matches_mpmath_quad_over_the_cross_state(cl, tau, rate):
    """Both the cross-state integral and the direct-link closed form are
    computed by mpmath alone; the cap of an estimated cross link comes
    from a Newton-bisection on mpmath's quadrature of the conditional
    density, so nothing is shared with crcap's rules or tables:

        import mpmath as mp
        mp.mp.dps = 20
        P_AVG, I_PEAK, EPS, ALPHA = 1.0, 10.0, 0.05, 0.5

        def rate_above(tau, P):     # int_tau^inf log(1 + P g) e^-g dg
            x = tau + 1 / P
            return mp.exp(-tau) * (mp.log1p(P * tau) + mp.exp(x) * mp.e1(x))

        def quantile(m):            # 1 - EPS quantile of g given estimate m
            pdf = lambda g: (mp.exp(-(g + m) / ALPHA)
                             * mp.besseli(0, 2 * mp.sqrt(g * m) / ALPHA) / ALPHA)
            lo, hi = mp.mpf(0), m + 50 * ALPHA
            x = hi / 2
            while True:
                f = mp.quad(pdf, mp.linspace(0, x, 8)) - (1 - mp.mpf(EPS))
                step = f / pdf(x)
                if abs(step) < mp.mpf(10) ** -17 * x:
                    return x - step
                lo, hi = (lo, x) if f > 0 else (x, hi)
                x = x - step if lo < x - step < hi else (lo + hi) / 2

        def perfect(tau):           # cross gain t ~ Exp(1), cap I_PEAK / t
            B = P_AVG * mp.exp(tau)
            f = lambda t: mp.exp(-t) * rate_above(tau, min(B, I_PEAK / t))
            return mp.quad(f, [0, I_PEAK / B, mp.inf])

        def estimated(tau):         # estimate m ~ Exp(1 - ALPHA), ~2 min
            B, s = P_AVG * mp.exp(tau), 1 - mp.mpf(ALPHA)
            cap = lambda m: I_PEAK / quantile(m)
            m_star = mp.findroot(lambda m: cap(m) - B, (0, 10), solver="anderson")
            f = lambda m: mp.exp(-m / s) / s * rate_above(tau, min(B, cap(m)))
            return mp.quad(f, [0, m_star, 40 * s])

    with tau = mp.mpf(0.5) and mp.mpf(1.5). The crossing state is 6.07 and
    2.23 for a perfect cross link, 2.49 and 0.28 for an estimated one.
    """
    cfg = scenario(cl).replace(numerics=NumericSettings())
    assert onoff_rate(tau, cfg) == pytest.approx(rate, rel=1e-9, abs=0)


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


# ----------------------------------------------------------------------
# batched rates and the threshold search's work

SCAN = np.linspace(0.0, marginal_power_quantile(1.0 - 1e-8), 64)


@pytest.mark.parametrize("cl", [NONE, PERFECT, EST], ids=["PN", "PP", "PE"])
@pytest.mark.parametrize("p_avg", [1.0, 0.01])
def test_array_rate_equals_scalar_calls_bit_for_bit(cl, p_avg):
    cfg = scenario(cl, p_avg=p_avg)
    rates = onoff_rate(SCAN, cfg)
    assert isinstance(rates, np.ndarray) and rates.shape == SCAN.shape
    assert [float(r).hex() for r in rates] \
        == [onoff_rate(float(t), cfg).hex() for t in SCAN]
    # blocks of the scan give the same bits as the whole scan
    blocks = np.concatenate([onoff_rate(SCAN[i:i + 16], cfg)
                             for i in range(0, SCAN.size, 16)])
    assert [float(r).hex() for r in blocks] == [float(r).hex() for r in rates]


@pytest.mark.parametrize("cl", [PERFECT, EST], ids=["PP", "PE"])
def test_scan_covers_thresholds_with_an_empty_tail(cl):
    # at a low budget the burst stays below every cap for small tau: the
    # crossing state sits at the top of the state range, so the tail rule
    # has zero weights; larger tau cross inside it
    cfg = scenario(cl, p_avg=0.01)
    capf = power_allocation._cap_field(cfg.cl_csi, cfg.i_peak, cfg.epsilon,
                                       cfg.numerics)
    at_top = capf.crossing_state(cfg.p_avg * np.exp(SCAN)) == capf.upper
    assert at_top[0] and not at_top[-1]


@pytest.mark.parametrize("cl, method", [(PERFECT, "burst_tail"), (EST, "tail_sum")],
                         ids=["PP", "PE"])
def test_tail_quadrature_skips_thresholds_with_an_empty_tail(cl, method, monkeypatch):
    # the cross-state tail (closed form for a perfect cross link,
    # quadrature at every panel level for an estimated one) sees only
    # thresholds whose crossing state lies below upper, and skipping the
    # others leaves each rate equal to its scalar call bit for bit
    cfg = scenario(cl, p_avg=0.01)
    capf = power_allocation._cap_field(cfg.cl_csi, cfg.i_peak, cfg.epsilon,
                                       cfg.numerics)
    live = capf.crossing_state(cfg.p_avg * np.exp(SCAN)) < capf.upper
    seen = []
    tail = getattr(power_allocation._CapField, method)

    def spy(self, t_star, rows_or_taus, *args):
        assert t_star.shape == rows_or_taus.shape and np.all(t_star < self.upper)
        seen.append(rows_or_taus.size)
        return tail(self, t_star, rows_or_taus, *args)

    monkeypatch.setattr(power_allocation._CapField, method, spy)
    rates = onoff_rate(SCAN, cfg)
    assert 0 < live.sum() < SCAN.size
    assert seen and set(seen) == {live.sum()}
    assert [float(r).hex() for r in rates] \
        == [onoff_rate(float(t), cfg).hex() for t in SCAN]


def test_exponential_rate_broadcasts_thresholds_like_a_scalar_loop():
    P = np.array([[0.0, 0.3, 2.0, 1e4], [5.0, 0.0, 1e-3, 40.0],
                  [1.0, 1.0, 1.0, 0.0]])
    tau = np.array([0.0, 0.7, 12.0])
    rates = power_allocation._exponential_rate(P, tau[:, None])
    loop = [[float(power_allocation._exponential_rate(p, float(t))) for p in row]
            for row, t in zip(P, tau)]
    assert [[float(r).hex() for r in row] for row in rates] \
        == [[r.hex() for r in row] for row in loop]
    assert rates[0, 0] == rates[1, 1] == rates[2, 3] == 0.0


def test_array_rate_rejects_a_negative_element():
    with pytest.raises(ValueError):
        onoff_rate(np.array([0.5, -1e-12, 1.0]), scenario(PERFECT))
    with pytest.raises(ValueError):
        onoff_rate(np.zeros((2, 2)), scenario(PERFECT))


@pytest.mark.parametrize("cl", [NONE, PERFECT, EST], ids=["PN", "PP", "PE"])
def test_rate_is_finite_where_the_burst_overflows(cl):
    # past tau ~ 709.8 the burst budget p_avg e^tau overflows to inf while
    # the rate underflows with e^-tau: subnormal, then 0, with no warning
    # and no NaN; a threshold of inf or NaN is no threshold
    cfg = scenario(cl)
    taus = np.array([700.0, 720.0, 1e4, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = onoff_rate(taus, cfg)
        assert [float(r).hex() for r in rates] \
            == [onoff_rate(float(t), cfg).hex() for t in taus]
    assert np.all(np.isfinite(rates))
    assert rates[0] > rates[1] > 0.0 and rates[1] < np.finfo(float).tiny
    assert np.array_equal(rates[2:], [0.0, 0.0])
    for bad in (math.inf, math.nan, np.array([1.0, math.inf])):
        with pytest.raises(ValueError, match="threshold"):
            onoff_rate(bad, cfg)


# onoff_rate under a perfect cross link against the quadrature oracle.
# i_peak from 0.999 to 1.001 takes the closed form's series. p_avg = 1e12
# puts t* below the 1e-12 gain floor (for i_peak = 10 from tau = 3 on);
# there the burst below t* runs at the floored cap i_peak / 1e-12, as in
# the oracle (at the budget it was 9.0e-13 relative off at i_peak = 0.1)
@pytest.mark.parametrize("i_peak", [0.1, 0.999, 1.0, 1.0 + 1e-6, 1.001, 10.0, 100.0])
@pytest.mark.parametrize("p_avg", [0.01, 1.0, 1e12])
def test_perfect_cross_rate_matches_the_quadrature_oracle(i_peak, p_avg):
    cfg = scenario(PERFECT, p_avg=p_avg, i_peak=i_peak)
    upper = -math.log(cfg.numerics.tail_mass)
    taus = np.array([0.0, 0.7, 3.0, 18.0])
    want = [onoff_rate_perfect_cross(t, p_avg, i_peak, upper) for t in taus]
    np.testing.assert_allclose(onoff_rate(taus, cfg), want, rtol=1e-14, atol=0.0)


# exp_integral_e1 elements of an optimize_threshold at p_avg = 1 (the
# benchmark's PP@0dB and PE@0dB): a perfect cross link took 38,961 with
# its tail a refined quadrature and 750 in closed form; an estimated one
# still refines its quadrature. A polish seeded by the scan and stopped
# at a 2^-26 bracket took 680 and 34,632 (750 and 44,252 at 1e-10); one
# that also stops where the rates differ only at rounding takes 640 and
# 33,670 (34,632 when 1-ulp noise in E1 costs PE two more calls)
E1_ELEMENTS = {"PP": 640, "PE": 34_632}


@pytest.mark.parametrize("code, cl", [("PP", PERFECT), ("PE", EST)],
                         ids=["PP@0dB", "PE@0dB"])
def test_threshold_search_e1_work_stays_bounded(code, cl, monkeypatch):
    elements, refined = [], []
    e1 = power_allocation.exp_integral_e1
    tail_sum = power_allocation._CapField.tail_sum
    refine = quadrature._refine

    def counted_e1(x, scaled=False):
        elements.append(np.size(x))
        return e1(x, scaled)

    def counted_tail_sum(*args):
        refined.append("tail_sum")
        return tail_sum(*args)

    def counted_refine(*args):
        refined.append("_refine")
        return refine(*args)

    monkeypatch.setattr(power_allocation, "exp_integral_e1", counted_e1)
    monkeypatch.setattr(power_allocation._CapField, "tail_sum", counted_tail_sum)
    for module in (quadrature, onoff):
        monkeypatch.setattr(module, "_refine", counted_refine)
    optimize_threshold(scenario(cl).replace(numerics=NumericSettings()))
    assert sum(elements) <= E1_ELEMENTS[code]
    if code == "PP":
        assert refined == []
    else:
        assert set(refined) == {"tail_sum", "_refine"}


# onoff_rate calls of a search (4 scan blocks included) at p_avg = 1: a
# scalar scan with golden-section polishing made 114, a polish from a
# golden-section point stopped at a 1e-10 bracket 21 and 32, and one from
# the scan stopped at a 2^-26 bracket 14 and 12 (13 to 19 under 1-ulp
# noise in E1). Stopped also where the rates differ only at rounding, it
# makes 10 and 10 (PE 12 under some noise)
SEARCH_CALLS = {"PP": 10, "PE": 12}


def _search_with_calls(cfg, monkeypatch):
    """optimize_threshold's answer and its onoff_rate calls as (tau, rate)."""
    calls = []

    def counting(tau, config):
        calls.append((tau, onoff_rate(tau, config)))
        return calls[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(onoff, "onoff_rate", counting)
        tau, rate = optimize_threshold(cfg)
    return tau, rate, calls


def _default(code, p_avg_db):
    cl = {"N": NONE, "P": PERFECT, "E": EST}[code[1]]
    return scenario(cl, p_avg=10.0 ** (p_avg_db / 10.0)).replace(numerics=NumericSettings())


@pytest.mark.parametrize("code", ["PP", "PE"], ids=["PP@0dB", "PE@0dB"])
def test_search_makes_one_batched_scan_and_a_short_polish(code, monkeypatch):
    # 4 scan blocks of 16 thresholds, then Brent's steps, the first of
    # them to the vertex of the parabola through the best scan point and
    # its two neighbours
    _, _, calls = _search_with_calls(_default(code, 0.0), monkeypatch)
    assert [np.size(tau) for tau, _ in calls[:4]] == [16, 16, 16, 16]
    assert {np.size(tau) for tau, _ in calls[4:]} == {1}
    assert len(calls) <= SEARCH_CALLS[code]
    scan = np.concatenate([rates for _, rates in calls[:4]])
    k = int(np.argmax(scan))
    assert 0 < k < SCAN.size - 1
    lo, mid, hi = scan[k - 1:k + 2]
    vertex = SCAN[k] + 0.5 * (SCAN[1] - SCAN[0]) * (lo - hi) / (lo - 2.0 * mid + hi)
    assert calls[4][0] == pytest.approx(vertex, rel=0.0, abs=1e-12)


def _ulp_noise(e1, seed):
    """e1 with each element moved by -1, 0 or +1 ulp, drawn from seed."""
    rng = np.random.default_rng(seed)

    def noisy(x, scaled=False):
        v = np.asarray(e1(x, scaled))
        step = rng.integers(-1, 2, v.shape)
        v = np.where(step == 0, v, np.nextafter(v, np.where(step > 0, np.inf, -np.inf)))
        return v if v.ndim else float(v)
    return noisy


@pytest.mark.parametrize("code", ["PP", "PE"], ids=["PP@0dB", "PE@0dB"])
def test_search_cost_and_rate_hold_under_one_ulp_noise_in_e1(code, monkeypatch):
    # the polish stops where the rates differ only at rounding, so the
    # last bit of E1 moves neither the call count nor the E1 work past
    # their bounds, nor the rate by more than rounding
    cfg = _default(code, 0.0)
    _, rate, _ = _search_with_calls(cfg, monkeypatch)
    e1 = power_allocation.exp_integral_e1
    for seed in range(8):
        elements = []
        noisy = _ulp_noise(e1, seed)

        def counted(x, scaled=False):
            elements.append(np.size(x))
            return noisy(x, scaled)

        monkeypatch.setattr(power_allocation, "exp_integral_e1", counted)
        _, noisy_rate, calls = _search_with_calls(cfg, monkeypatch)
        assert len(calls) <= SEARCH_CALLS[code], seed
        assert sum(elements) <= E1_ELEMENTS[code], seed
        assert noisy_rate == pytest.approx(rate, rel=1e-15, abs=0.0), seed


DIFFERENTIAL = [(c, p) for c in ("PN", "PP", "PE") for p in (-10.0, 0.0, 10.0, 20.0)]


@pytest.mark.parametrize("code, p_avg_db", DIFFERENTIAL,
                         ids=[f"{c}@{p:g}dB" for c, p in DIFFERENTIAL])
def test_polish_stopped_at_root_epsilon_keeps_the_rate(code, p_avg_db, monkeypatch):
    # below a bracket of 2^-26 the rate is flat to rounding: the same
    # search stopped at a 1e-10 bracket finds no better rate
    cfg = _default(code, p_avg_db)
    _, rate = optimize_threshold(cfg)
    monkeypatch.setattr(onoff, "_POLISH_REL", 1e-10)
    assert rate == pytest.approx(optimize_threshold(cfg)[1], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p_avg_db", [4.0, 4.5, 5.0])
def test_search_returns_the_kink_of_a_constant_cap(p_avg_db, monkeypatch):
    # with no cross-link knowledge the burst p_avg e^tau meets the cap c
    # at tau_c = ln(c / p_avg); here the rate still rises there and falls
    # past it at fixed power c, so tau_c ends the search. The scan, tau_c
    # and one probe inside it suffice; a 1e-10 stop without the end took
    # 47-56 calls and ended 1.0-1.6e-12 relative below the rate at tau_c
    cfg = _default("PN", p_avg_db)
    tau_c = math.log(cfg.i_peak / marginal_power_quantile(1.0 - cfg.epsilon) / cfg.p_avg)
    tau, rate, calls = _search_with_calls(cfg, monkeypatch)
    assert tau.hex() == tau_c.hex()
    assert rate.hex() == onoff_rate(tau_c, cfg).hex()
    assert len(calls) <= 6


def test_search_confirms_an_optimum_at_zero_threshold(monkeypatch):
    # PE at 10 dB peaks at tau ~ 7.4e-9, nearer to 0 than the probe
    # 2^-26 inside that end, so the probe is no better and the end comes
    # back (its rate is in the differential test above); a 1e-10 stop
    # without the probe took 49 calls
    tau, _, calls = _search_with_calls(_default("PE", 10.0), monkeypatch)
    assert 0.0 <= tau <= 2.0 ** -26
    assert len(calls) <= 5


def test_polish_finds_a_smooth_and_a_kinked_maximum():
    calls = []

    def smooth(x):
        calls.append(x)
        return -(x - 0.3) ** 2

    def seeds(f):
        return [(t, f(t)) for t in (0.5, 0.0, 1.0)]

    x, fx = onoff._polish(smooth, seeds(smooth))
    # the seed parabola is exact: its vertex is the first step, and two
    # steps of the least size close the bracket around it
    assert calls[3] == 0.3 and len(calls) <= 6
    assert x == pytest.approx(0.3, abs=2.0 ** -26) and fx == smooth(x)
    # a kink inside the bracket is found to the bracket's width (the
    # search's own kink, where the burst meets a constant cap, ends its
    # bracket instead: test_search_returns_the_kink_of_a_constant_cap)
    kinked = lambda t: -abs(t - 0.3)                   # noqa: E731
    x, fx = onoff._polish(kinked, seeds(kinked))
    assert abs(x - 0.3) <= 2.0 ** -26 and fx == kinked(x)


def test_search_rates_hold_the_benchmark_reference():
    # the onoff_search workload's check: each rate within
    # max(quad_rel_tol * |ref|, 1e-12) of benchmarks/reference/onoff_search.json
    refs = {"onoff_search": workloads.load_reference("onoff_search")}
    qrt = NumericSettings().quad_rel_tol
    for name, (code, p_avg_db) in workloads.tasks("onoff_search").items():
        out = workloads.summarize("onoff_search",
                                  optimize_threshold(workloads.scenario(code, p_avg_db)))
        assert workloads.check_task("onoff_search", name, out, refs, qrt) == [], name


def test_polish_out_of_steps_raises(monkeypatch):
    monkeypatch.setattr(onoff, "_POLISH_STEPS", 3)
    with pytest.raises(NumericsError):
        optimize_threshold(scenario(PERFECT))
