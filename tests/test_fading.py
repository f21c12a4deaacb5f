"""Fading-law checks: densities, quantiles, conditional law, sampler.

Reference numbers come from scipy adaptive quadrature of the stated
densities and from scipy.stats.ncx2 (the conditional true-power law is
a scaled noncentral chi-square with 2 degrees of freedom), computed in
a separate script and frozen here.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from crcap.fading import (
    ChannelDraw,
    CsiKnowledge,
    CsiLevel,
    conditional_power_inv_cdf,
    estimate_power_quantile,
    marginal_power_cdf,
    marginal_power_pdf,
    marginal_power_quantile,
    sample_channel_pair,
)
from oracles import (
    conditional_power_cdf,
    conditional_power_pdf,
    conditional_support_bound,
    plain_sample_channel_pair,
)


def test_csi_knowledge_constructors():
    p = CsiKnowledge.perfect()
    n = CsiKnowledge.no_csi()
    e = CsiKnowledge.estimated(0.3)
    assert p.level is CsiLevel.PERFECT and p.error_variance == 0.0
    assert n.level is CsiLevel.NONE and n.error_variance == 1.0
    assert e.level is CsiLevel.ESTIMATED and e.error_variance == 0.3
    assert "0.3" in e.describe()
    assert p.state_kind == "gain"
    assert e.state_kind == "estimate"
    assert n.state_kind == "none"


def test_csi_knowledge_rejects_bad_alpha():
    with pytest.raises(ValueError):
        CsiKnowledge.estimated(0.0)
    with pytest.raises(ValueError):
        CsiKnowledge.estimated(1.0)
    with pytest.raises(ValueError):
        CsiKnowledge.estimated(-0.2)


def test_csi_knowledge_from_alpha():
    assert CsiKnowledge.from_alpha(0.0) == CsiKnowledge.perfect()
    assert CsiKnowledge.from_alpha(1.0) == CsiKnowledge.no_csi()
    assert CsiKnowledge.from_alpha(0.25) == CsiKnowledge.estimated(0.25)


def test_marginal_power_law():
    g = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(marginal_power_pdf(g), np.exp(-g), rtol=1e-14)
    np.testing.assert_allclose(marginal_power_cdf(g), 1.0 - np.exp(-g), rtol=1e-14)
    assert marginal_power_quantile(0.95) == pytest.approx(-math.log(0.05), rel=1e-13)
    # frozen: the 95% point drives the no-knowledge interference cap
    assert marginal_power_quantile(0.95) == pytest.approx(2.995732273553991, rel=1e-13)


def test_estimate_power_law_scale():
    # estimate power is Exp with mean 1 - alpha
    alpha = 0.4
    assert estimate_power_quantile(0.95, alpha) == pytest.approx(
        0.6 * -math.log(0.05), rel=1e-13)


def test_conditional_pdf_normalization_and_mean():
    for m, alpha in [(1.0, 0.5), (4.0, 0.3), (0.0, 0.7), (12.0, 0.9)]:
        hi = conditional_support_bound(m, alpha, tail_mass=1e-13)
        mass, _ = integrate.quad(lambda g: conditional_power_pdf(g, m, alpha),
                                 0.0, hi, limit=300)
        mean, _ = integrate.quad(lambda g: g * conditional_power_pdf(g, m, alpha),
                                 0.0, hi, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(m + alpha, rel=1e-8)


# (g, m, alpha, density) from mpmath at 40 digits:
# exp(-(g + m)/alpha) * besseli(0, 2 sqrt(g m)/alpha) / alpha
_PDF_FROZEN = [
    # tiny alpha with g near a large m: I0's argument is 6e6, and the
    # exponent is the difference of two terms near 6e6
    (300.0015, 300.0, 1e-4, 1.6286425005127397198),
    (299.9, 300.0, 1e-4, 1.4985574840816702487),
    (301.1, 300.0, 1e-4, 6.9232675185140268177e-5),
    # 2 sqrt(g m)/alpha below 1e-8
    (1e-8, 1e-10, 0.5, 1.999999959600000416),
    (3e-9, 2e-12, 0.05, 19.999998799200034986),
    # m = 0: the Exp(alpha) density
    (0.7, 0.0, 0.3, 0.32323989288135024127),
    (30.0, 0.0, 0.07, 1.0683054156889949097e-185),
    # alpha near 1
    (1.3, 0.0005, 0.999, 0.27249088757397206156),
    (4.0, 0.002, 0.999, 0.018370567475522090685),
    (2.5, 1.7, 0.5, 0.24214152492322073106),
]


@pytest.mark.parametrize("g, m, alpha, ref", _PDF_FROZEN)
def test_conditional_pdf_frozen_values(g, m, alpha, ref):
    assert conditional_power_pdf(g, m, alpha) == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_conditional_pdf_m_zero_is_exponential_and_negative_g_is_zero():
    alpha = 0.3
    g = np.array([0.0, 1e-12, 0.05, 0.7, 4.0, 30.0])
    np.testing.assert_allclose(conditional_power_pdf(g, 0.0, alpha),
                               np.exp(-g / alpha) / alpha, rtol=1e-13)
    assert conditional_power_pdf(-1e-3, 2.0, 0.5) == 0.0
    np.testing.assert_array_equal(
        conditional_power_pdf(np.array([-5.0, -1e-300]), 300.0, 1e-4), 0.0)


def test_conditional_cdf_matches_quadrature_of_pdf():
    m, alpha = 2.0, 0.5
    for g in [0.1, 1.0, 2.5, 6.0]:
        ref, _ = integrate.quad(lambda t: conditional_power_pdf(t, m, alpha),
                                0.0, g, limit=200)
        assert conditional_power_cdf(g, m, alpha) == pytest.approx(ref, abs=1e-8)


def test_conditional_cdf_matches_ncx2():
    # independent route: scaled noncentral chi-square, df 2, nc 2m/alpha
    for m, alpha, g in [(1.0, 0.5, 2.0), (3.0, 0.2, 2.5), (0.5, 0.8, 1.0)]:
        ref = stats.ncx2.cdf(2.0 * g / alpha, 2, 2.0 * m / alpha)
        assert conditional_power_cdf(g, m, alpha) == pytest.approx(ref, abs=1e-11)


def test_conditional_cdf_degenerate_m_zero():
    # m = 0 collapses to Exp(alpha)
    alpha = 0.5
    for g in [0.2, 1.0, 4.0]:
        assert conditional_power_cdf(g, 0.0, alpha) == pytest.approx(
            1.0 - math.exp(-g / alpha), rel=1e-12)


def test_conditional_inv_cdf_roundtrip():
    for m, alpha in [(0.0, 0.5), (1.0, 0.5), (5.0, 0.25), (20.0, 0.9)]:
        for p in [0.05, 0.5, 0.95, 0.999]:
            g = conditional_power_inv_cdf(p, m, alpha)
            assert conditional_power_cdf(g, m, alpha) == pytest.approx(p, abs=1e-8)


def test_conditional_inv_cdf_deep_tail_is_relatively_accurate():
    # the cap table asks for the 1 - epsilon quantile; at a tiny epsilon
    # the tail mass above the quantile must be right relative to epsilon,
    # checked through the oracles' Marcum Q. Measured: 2.9e-11 (the
    # rounding of 1 - epsilon) and 2.5e-10 at alpha = 1e-4, m = 10, where
    # the oracle's series stops at 1e-14 of its sum; scipy's chndtrix
    # was 1.8e-8 off
    eps = 1e-6
    for m in (0.0, 1.0, 10.0):
        for alpha in (1e-4, 0.5, 0.9):
            q = conditional_power_inv_cdf(1.0 - eps, m, alpha)
            tail = 1.0 - conditional_power_cdf(q, m, alpha)
            assert abs(tail - eps) <= 3e-10 * eps, (m, alpha, tail)


# (alpha, epsilon, m, g*, K): g* the 1 - epsilon quantile at m (0, the
# middle and the top of the cap table's knots), by two Newton steps on the
# tail P(Pois(g/alpha) <= Pois(m/alpha)) summed in 40-digit mpmath; K =
# g* f(g*) / epsilon, so that the tail at g is epsilon (1 - K (g/g* - 1))
# to first order. The kernel's tails measured within 1.4e-13 of epsilon
# (scipy's chndtrix 5.4e-10 at epsilon = 1e-6, alpha = 0.5). The last
# three rows, a low quantile at alpha near 1, hold the trapezoid rule's
# point count where ab is tiny: with too few points a turn it erred there
# by 1.1e-5 in g
CONDITIONAL_QUANTILES = [
    (0.0001, 1e-06, 0.0, 0.0013815510557935518, 13.8155),
    (0.0001, 1e-06, 11.511774172423731, 11.741037063616265, 1198.94),
    (0.0001, 1e-06, 23.023548344847462, 23.34728619117381, 1690.68),
    (0.0001, 0.05, 0.0, 0.000299573227355399, 2.99573),
    (0.0001, 0.05, 11.511774172423731, 11.590884316206616, 496.572),
    (0.0001, 0.05, 23.023548344847462, 23.13535017824605, 701.556),
    (0.0001, 0.3, 0.0, 0.00012039728043259359, 1.20397),
    (0.0001, 0.3, 11.511774172423731, 11.537000185846875, 278.36),
    (0.0001, 0.3, 23.023548344847462, 23.059196889781706, 393.533),
    (0.1, 1e-06, 0.0, 1.381551055793552, 13.8155),
    (0.1, 1e-06, 10.361632918473205, 18.39171726427375, 47.491),
    (0.1, 1e-06, 20.72326583694641, 31.585685620803645, 62.2138),
    (0.1, 0.05, 0.0, 0.29957322735539904, 2.99573),
    (0.1, 0.05, 10.361632918473205, 12.917562056066577, 16.5946),
    (0.1, 0.05, 20.72326583694641, 24.259191670962377, 22.7299),
    (0.1, 0.3, 0.0, 0.1203972804325936, 1.20397),
    (0.1, 0.3, 10.361632918473205, 11.181226375475038, 8.67567),
    (0.1, 0.3, 20.72326583694641, 21.85527045671761, 12.1224),
    (0.5, 1e-06, 0.0, 6.907755278967759, 13.8155),
    (0.5, 1e-06, 5.756462732485114, 23.156777415658766, 23.9126),
    (0.5, 1e-06, 11.512925464970229, 33.6131627542246, 28.7644),
    (0.5, 0.05, 0.0, 1.497866136776995, 2.99573),
    (0.5, 0.05, 5.756462732485114, 10.669338396831815, 6.78667),
    (0.5, 0.05, 11.512925464970229, 18.049274226303215, 8.79879),
    (0.5, 0.3, 0.0, 0.601986402162968, 1.20397),
    (0.5, 0.3, 5.756462732485114, 7.348235229740606, 3.17128),
    (0.5, 0.3, 11.512925464970229, 13.62127162050912, 4.29841),
    (0.9, 1e-06, 0.0, 12.433959502141967, 13.8155),
    (0.9, 1e-06, 1.1512925464970225, 19.000234221941263, 16.3028),
    (0.9, 1e-06, 2.302585092994045, 22.904734621419852, 17.8295),
    (0.9, 0.05, 0.0, 2.6961590461985914, 2.99573),
    (0.9, 0.05, 1.1512925464970225, 5.380942823045244, 3.69908),
    (0.9, 0.05, 2.302585092994045, 7.4621160394549335, 4.29704),
    (0.9, 0.3, 0.0, 1.0835755238933422, 1.20397),
    (0.9, 0.3, 1.1512925464970225, 2.5714691328507993, 1.47796),
    (0.9, 0.3, 2.302585092994045, 4.005030381474231, 1.79208),
    (0.999999, 0.99, 0.0, 0.010050325803165597, 0.0100503),
    (0.999999, 0.99, 1.1512925465301291e-05, 0.010050441512595909, 0.0100503),
    (0.999999, 0.99, 2.3025850930602582e-05, 0.010050557223351688, 0.0100503),
]


@pytest.mark.parametrize("alpha, eps, m, g_star, K", CONDITIONAL_QUANTILES)
def test_conditional_inv_cdf_tail_matches_40_digit_mpmath(alpha, eps, m, g_star, K):
    g = conditional_power_inv_cdf(1.0 - eps, m, alpha)
    assert abs(K * (g / g_star - 1.0)) <= 1e-12


@pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.3])
def test_conditional_inv_cdf_agrees_with_scipy_on_the_cap_table(alpha, eps):
    # where scipy is installed (the test extra), chndtrix is a second
    # reference over a cap table's knots
    sp = pytest.importorskip("scipy.special")
    m = np.linspace(0.0, -(1.0 - alpha) * math.log(1e-10), 1025)
    g = conditional_power_inv_cdf(1.0 - eps, m, alpha)
    ref = 0.5 * alpha * sp.chndtrix(1.0 - eps, 2.0, 2.0 * m / alpha)
    assert np.max(np.abs(g / ref - 1.0)) <= 1e-10


# (alpha, p, m, g*): g* the p quantile, by Newton steps on the cdf
# sum_k Pois(k; m/alpha) P(k + 1, g/alpha) (P the regularized lower
# incomplete gamma) in 40-digit mpmath, from scipy's chndtrix. The kernel
# measured within 3.6e-15 of them; when it solved every level on the upper
# tail it was 1.96e-4 off at p = 1e-12, alpha = 0.5, m = 1 and 1.96e-2 at
# alpha = 0.9
LOW_QUANTILES = [
    (0.1, 1e-12, 0.0, 1.0000000000005e-13),
    (0.1, 1e-06, 0.0, 1.0000005000003333e-07),
    (0.1, 0.01, 0.0, 0.001005033585350144),
    (0.1, 0.3, 0.0, 0.03566749439387324),
    (0.1, 1e-12, 1.0, 2.2026463611563716e-09),
    (0.1, 1e-06, 1.0, 0.0020155708552004764),
    (0.1, 0.01, 1.0, 0.26486945895900676),
    (0.1, 0.3, 1.0, 0.8266444000280314),
    (0.1, 1e-12, 10.0, 2.560768009550428),
    (0.1, 1e-06, 10.0, 4.447910430412893),
    (0.1, 0.01, 10.0, 7.026332214791837),
    (0.1, 0.3, 10.0, 9.321239871530027),
    (0.5, 1e-12, 0.0, 5.0000000000025e-13),
    (0.5, 1e-06, 0.0, 5.000002500001667e-07),
    (0.5, 0.01, 0.0, 0.005025167926750721),
    (0.5, 0.3, 0.0, 0.1783374719693662),
    (0.5, 1e-12, 1.0, 3.694528049451676e-12),
    (0.5, 1e-06, 1.0, 3.6945144000622913e-06),
    (0.5, 0.01, 1.0, 0.03570087977345166),
    (0.5, 0.3, 1.0, 0.7725573153729532),
    (0.5, 1e-12, 10.0, 0.00024147320863937118),
    (0.5, 1e-06, 10.0, 0.7354786261808741),
    (0.5, 0.01, 10.0, 4.195007704331035),
    (0.5, 0.3, 10.0, 8.650911843428998),
    (0.9, 1e-12, 0.0, 9.0000000000045e-13),
    (0.9, 1e-06, 0.0, 9.000004500003e-07),
    (0.9, 0.01, 0.0, 0.009045302268151298),
    (0.9, 0.3, 0.0, 0.32100744954485916),
    (0.9, 1e-12, 1.0, 2.7339585997652728e-12),
    (0.9, 1e-06, 1.0, 2.733958138377716e-06),
    (0.9, 0.01, 1.0, 0.027296102651828743),
    (0.9, 0.3, 1.0, 0.8324567016789053),
    (0.9, 1e-12, 10.0, 6.021942521175426e-08),
    (0.9, 1e-06, 10.0, 0.04695221405304528),
    (0.9, 0.01, 10.0, 2.885714464213547),
    (0.9, 0.3, 10.0, 8.326650158087523),
]


@pytest.mark.parametrize("alpha, p, m, g_star", LOW_QUANTILES)
def test_conditional_inv_cdf_low_quantiles_match_40_digit_mpmath(alpha, p, m, g_star):
    assert abs(conditional_power_inv_cdf(p, m, alpha) / g_star - 1.0) <= 1e-12


def test_conditional_inv_cdf_frozen_values():
    # m=0, alpha=0.5: quantile(0.95) = -0.5 ln 0.05
    assert conditional_power_inv_cdf(0.95, 0.0, 0.5) == pytest.approx(
        1.497866136776995, rel=1e-11)
    # independent ncx2 route for m=1, alpha=0.5
    ref = 0.25 * stats.ncx2.ppf(0.95, 2, 4.0)
    assert conditional_power_inv_cdf(0.95, 1.0, 0.5) == pytest.approx(
        ref, rel=1e-10)


def test_conditional_inv_cdf_vectorized():
    ps = np.array([0.1, 0.5, 0.9])
    out = conditional_power_inv_cdf(ps, 1.0, 0.5)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)
    for p, g in zip(ps, out):
        assert conditional_power_cdf(float(g), 1.0, 0.5) == pytest.approx(
            float(p), abs=1e-9)


def test_conditional_support_bound_contains_mass():
    for m, alpha in [(0.0, 0.3), (2.0, 0.5), (15.0, 0.8)]:
        hi = conditional_support_bound(m, alpha, tail_mass=1e-10)
        assert conditional_power_cdf(hi, m, alpha) >= 1.0 - 2e-10
        assert hi < (math.sqrt(m) + 10.0) ** 2 + 50.0


def test_oracles_share_no_code_with_crcap():
    # the density, Marcum Q and rate-quadrature oracles check crcap's
    # kernels, so they may not reach any crcap code themselves
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules
    assert [m for m in modules
            if m.startswith(".") or m.split(".")[0] == "crcap"] == []


def test_sampler_reproducible():
    csi = CsiKnowledge.estimated(0.5)
    d1 = sample_channel_pair(csi, np.random.Generator(np.random.Philox(7)), 1000)
    d2 = sample_channel_pair(csi, np.random.Generator(np.random.Philox(7)), 1000)
    np.testing.assert_array_equal(d1.gain, d2.gain)
    np.testing.assert_array_equal(d1.estimate, d2.estimate)


def test_sampler_moments_estimated():
    n = 400_000
    csi = CsiKnowledge.estimated(0.4)
    d = sample_channel_pair(csi, np.random.Generator(np.random.Philox(11)), n)
    three_sigma = 3.0 / math.sqrt(n)
    assert d.gain.mean() == pytest.approx(1.0, abs=3 * three_sigma)
    assert d.estimate.mean() == pytest.approx(0.6, abs=3 * three_sigma)
    # conditional mean: E[g | m] = m + alpha, so E[g - m] = alpha
    assert (d.gain - d.estimate).mean() == pytest.approx(0.4, abs=3 * three_sigma)


def test_sampler_perfect_and_none_levels():
    rng = np.random.Generator(np.random.Philox(3))
    d = sample_channel_pair(CsiKnowledge.perfect(), rng, 500)
    np.testing.assert_array_equal(d.gain, d.estimate)
    rng = np.random.Generator(np.random.Philox(3))
    d2 = sample_channel_pair(CsiKnowledge.no_csi(), rng, 500)
    assert np.all(d2.estimate == 0.0)
    assert d2.gain.mean() == pytest.approx(1.0, abs=0.15)


def test_sampler_same_stream_layout_across_levels():
    # a fixed generator state must consume the same number of draws at
    # every knowledge level, so mixed scenarios stay aligned
    out = {}
    for name, csi in [("p", CsiKnowledge.perfect()),
                      ("e", CsiKnowledge.estimated(0.5)),
                      ("n", CsiKnowledge.no_csi())]:
        rng = np.random.Generator(np.random.Philox(42))
        sample_channel_pair(csi, rng, 100)
        out[name] = rng.normal()  # next value after consuming the draws
    assert out["p"] == out["e"] == out["n"]


@pytest.mark.parametrize("n", [1, 3392, 65536])
@pytest.mark.parametrize("csi", [CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5),
                                 CsiKnowledge.no_csi()], ids=["perfect", "estimated", "none"])
def test_sampler_in_place_matches_the_plain_sampler_bit_for_bit(csi, n):
    # building the estimate and the gain inside the normal arrays may not
    # move a bit of either, nor the generator's state after the draw
    rng, plain_rng = (np.random.Generator(np.random.Philox(23)) for _ in range(2))
    d = sample_channel_pair(csi, rng, n)
    estimate, gain = plain_sample_channel_pair(csi.error_variance, plain_rng, n)
    assert np.array_equal(d.estimate.view(np.uint64), estimate.view(np.uint64))
    assert np.array_equal(d.gain.view(np.uint64), gain.view(np.uint64))
    assert repr(rng.bit_generator.state) == repr(plain_rng.bit_generator.state)
    if csi.level is CsiLevel.PERFECT:
        assert np.array_equal(d.gain.view(np.uint64), d.estimate.view(np.uint64))


def test_channel_draw_shape_mismatch():
    with pytest.raises(ValueError):
        ChannelDraw(estimate=np.zeros(3), gain=np.zeros(4))
