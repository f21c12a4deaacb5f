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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from crcap import capacity, fading, power_allocation, special_functions
from crcap.fading import CsiKnowledge, CsiLevel, estimate_power_quantile
from crcap.power_allocation import (
    NumericSettings,
    PowerPolicy,
    ScenarioConfig,
    average_power_threshold,
    solve_lambda,
)
from crcap.quadrature import panel_rule
from crcap.special_functions import NumericsError
from oracles import (
    conditional_power_pdf,
    interference_power_cap,
    invert_rate_integral,
    plain_bisect,
    rate_integral,
)

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

def library_cap(cl, cl_state=None):
    """The solved policy's interference cap (PowerPolicy.cap_component)."""
    pol = solve_lambda(scenario(CsiKnowledge.perfect(), cl))
    return pol.cap_component(cl_state)


def test_cap_no_knowledge_constant():
    cap = library_cap(CsiKnowledge.no_csi())
    assert cap == pytest.approx(3.338082006953341, rel=1e-12)


def test_cap_perfect_inverse_gain():
    caps = library_cap(CsiKnowledge.perfect(), np.array([2.0, 0.5]))
    np.testing.assert_allclose(caps, [5.0, 20.0], rtol=1e-13)


def test_cap_estimated_at_zero_estimate():
    cap = library_cap(CsiKnowledge.estimated(0.5), 0.0)
    assert cap == pytest.approx(6.676164013906681, rel=1e-9)


def test_cap_estimated_decreasing_in_estimate():
    ms = np.linspace(0.0, 8.0, 30)
    caps = library_cap(CsiKnowledge.estimated(0.5), ms)
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
# the oracles' conditional rate integral and its inverse

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


# ----------------------------------------------------------------------
# MGF rate kernels: row inversion and the log-power rate interpolant

# (alpha, m, P, E[log(1 + P g) | m], E[g / (1 + P g) | m]) from 40-digit
# mpmath: the MGF integrals of _mgf_log_rate and _mgf_rate taken over
# y = log s by mpmath.quad in unit pieces on [-log(P (m + alpha)) - 60, 6],
#     D = 1 + alpha u; M = exp(-u m / D) / D
#     E[log(1 + P g)] = integral of (alpha u - expm1(-u m / D)) / D e^{-s} dy
#     E[g / (1 + P g)] = integral of M (m + alpha D) / D^2 s e^{-s} dy
# with u = s P, s = e^y. For alpha in {0.1, 0.5, 0.9} and P <= 1e6 both
# agree with 30-digit mpmath.quad of the Bessel density to 3.4e-20.
MGF_MPMATH = [
    (0.0001, 0.0, 1e-3, 9.9999990000002006864e-8, 0.000099999980000006004781),
    (0.0001, 0.0, 1.0, 0.000099990001999400244671, 0.000099980005997601204071),
    (0.0001, 0.0, 47.0, 0.0046781147719760161394, 0.000099073010520525508157),
    (0.0001, 0.0, 1e6, 4.0785114434564258926, 9.5921488556543574303e-7),
    (0.0001, 0.0, 1e8, 8.634088070212725378, 9.991365911929787275e-9),
    (0.0001, 0.5, 1e-3, 0.00049997494171602791274, 0.49984992514242121672),
    (0.0001, 0.5, 1.0, 0.4055095525523893711, 0.33334815012297393303),
    (0.0001, 0.5, 47.0, 3.1986809504432027579, 0.020408010218905765457),
    (0.0001, 0.5, 1e6, 13.122365377802487292, 9.9999799960384309879e-7),
    (0.0001, 0.5, 1e8, 17.727533583396421564, 9.9999997999599879936e-9),
    (0.0001, 5.0, 1e-3, 0.004987640518479679903, 4.9752224003918863146),
    (0.0001, 5.0, 1.0, 1.791762247075279195, 0.83333148146605058312),
    (0.0001, 5.0, 47.0, 5.4638318894156205645, 0.021186438897651091374),
    (0.0001, 5.0, 1e6, 15.424948670402354637, 9.9999979999603984318e-7),
    (0.0001, 5.0, 1e8, 20.030118658386505846, 9.999999979999600024e-9),
    (0.0001, 20.0, 1e-3, 0.019802723413048968318, 19.607935484827014875),
    (0.0001, 20.0, 1.0, 3.0445226644827979735, 0.9523807472179507651),
    (0.0001, 20.0, 47.0, 6.8469431448932822052, 0.021253985009516350167),
    (0.0001, 20.0, 1e6, 16.81124288151851385, 9.9999994999975249755e-7),
    (0.0001, 20.0, 1e8, 21.416413018006358965, 9.9999999949999750023e-9),
    (0.1, 0.0, 1e-3, 0.000099990001999400247511, 0.099980005997601204829),
    (0.1, 0.0, 1.0, 0.091563333939788086559, 0.084366660602119185234),
    (0.1, 0.0, 47.0, 1.4502588402287083067, 0.014711367857724272403),
    (0.1, 0.0, 1e6, 10.93582915778848392, 9.9989064170842211517e-7),
    (0.1, 0.0, 1e8, 15.540881640144870793, 9.9999844591183598551e-9),
    (0.1, 0.5, 1e-3, 0.00059976514854356528043, 0.59953044550771784017),
    (0.1, 0.5, 1.0, 0.44971649956371674097, 0.34966264049039905745),
    (0.1, 0.5, 47.0, 3.2125587834258336468, 0.020196962273796062308),
    (0.1, 0.5, 1e6, 13.123515037524414122, 9.9999670286929846557e-7),
    (0.1, 0.5, 1e8, 17.728681895732120094, 9.9999996392537257897e-9),
    (0.1, 5.0, 1e-3, 0.005086539258781653412, 5.0731275674405860184),
    (0.1, 5.0, 1.0, 1.7946086999809284618, 0.83146738940942317798),
    (0.1, 5.0, 47.0, 5.4639197461315885115, 0.021184586325629234239),
    (0.1, 5.0, 1e6, 15.424948674568808277, 9.9999979582958796377e-7),
    (0.1, 5.0, 1e8, 20.0301186584281704, 9.9999999795829544876e-9),
    (0.1, 20.0, 1e-3, 0.01989873530695199015, 19.700174057648289635),
    (0.1, 20.0, 1.0, 3.0447512260430043936, 0.95217420360880819987),
    (0.1, 20.0, 47.0, 6.8469485011798436617, 0.021253871291295087736),
    (0.1, 20.0, 1e6, 16.811242881770802091, 9.9999994974746428182e-7),
    (0.1, 20.0, 1e8, 21.416413018008881848, 9.9999999949747461756e-9),
    (0.5, 0.0, 1e-3, 0.000499750249625748141, 0.49950074850373878921),
    (0.5, 0.0, 1.0, 0.3613286168882225847, 0.27734276622355483061),
    (0.5, 0.0, 47.0, 2.7358671244383452266, 0.018799577071581398618),
    (0.5, 0.0, 1e6, 12.545174802826311254, 9.9997490965039434738e-7),
    (0.5, 0.0, 1e8, 17.150318261497249002, 9.9999965699363477006e-9),
    (0.5, 0.5, 1e-3, 0.00099912641341066962714, 0.99825423698560528282),
    (0.5, 0.5, 1.0, 0.61390019920580858389, 0.41969645659190886544),
    (0.5, 0.5, 47.0, 3.4532850442496064849, 0.019968734324328992495),
    (0.5, 0.5, 1e6, 13.341758247421333659, 9.9998980013686927658e-7),
    (0.5, 0.5, 1e8, 17.946917641027098741, 9.999998641184304662e-9),
    (0.5, 5.0, 1e-3, 0.0054823363863612308711, 5.4647586325669144028),
    (0.5, 5.0, 1.0, 1.8076417681910030138, 0.82393628688385536672),
    (0.5, 5.0, 47.0, 5.4643884649881752376, 0.021174892599439114098),
    (0.5, 5.0, 1e6, 15.424952854629710347, 9.9999977282843962909e-7),
    (0.5, 5.0, 1e8, 20.030122815632201545, 9.9999999772410199104e-9),
    (0.5, 20.0, 1e-3, 0.020282990159271399383, 20.069164800734288217),
    (0.5, 20.0, 1.0, 3.0457097823655798902, 0.95131385493257498356),
    (0.5, 20.0, 47.0, 6.8469711124483682357, 0.021253391311049500971),
    (0.5, 20.0, 1e6, 16.811242882835989278, 9.9999994868227721064e-7),
    (0.5, 20.0, 1e8, 21.416413018019533721, 9.9999999948682274456e-9),
    (0.9, 0.0, 1e-3, 0.00089919145407750837017, 0.89838435832407857797),
    (0.9, 0.0, 1.0, 0.55488400856430602954, 0.38346221270632664906),
    (0.9, 0.0, 47.0, 3.2674109574028257999, 0.019633111534931429144),
    (0.9, 0.0, 1e6, 13.132950080674366985, 9.9998540783324369515e-7),
    (0.9, 0.0, 1e8, 17.738104771594169338, 9.9999980290994698229e-9),
    (0.9, 0.5, 1e-3, 0.0013981695879507257579, 1.3963437472150621477),
    (0.9, 0.5, 1.0, 0.75400950893521468539, 0.47755935630083806474),
    (0.9, 0.5, 47.0, 3.7202458168466063034, 0.020160884458584751032),
    (0.9, 0.5, 1e6, 13.619954389720743553, 9.9999121757442297307e-7),
    (0.9, 0.5, 1e8, 18.225115279339151856, 9.9999988281765648167e-9),
    (0.9, 5.0, 1e-3, 0.005877823872472906897, 5.8557805750896483838),
    (0.9, 5.0, 1.0, 1.8237496409800684038, 0.81717266190216269558),
    (0.9, 5.0, 47.0, 5.4658930415319557421, 0.021157852043168985777),
    (0.9, 5.0, 1e6, 15.425549754114954218, 9.9999969143488591465e-7),
    (0.9, 5.0, 1e8, 20.030719630568703092, 9.999999967165315464e-9),
    (0.9, 20.0, 1e-3, 0.02066696195537667728, 20.437624075194339283),
    (0.9, 20.0, 1.0, 3.0467471865390724283, 0.95039522677026534331),
    (0.9, 20.0, 47.0, 6.8469959107028335417, 0.021252865078806687531),
    (0.9, 20.0, 1e6, 16.811242884014221355, 9.9999994751368058364e-7),
    (0.9, 20.0, 1e8, 21.41641301804085476, 9.9999999947513676399e-9),
    (0.999, 0.0, 1e-3, 0.00099800398705372371184, 0.99700995623254056825),
    (0.999, 0.0, 1.0, 0.59594360416529391752, 0.40345985569039647843),
    (0.999, 0.0, 47.0, 3.3640051187536673491, 0.019752208016638790283),
    (0.999, 0.0, 1e6, 13.237308644282479786, 9.9998674944079651403e-7),
    (0.999, 0.0, 1e8, 17.842464767330509092, 9.9999982139674907577e-9),
    (0.999, 0.5, 1e-3, 0.0014968837550975717039, 1.4947732435819854323),
    (0.999, 0.5, 1.0, 0.78548784372985224961, 0.48986991183947261605),
    (0.999, 0.5, 47.0, 3.7790819482416634395, 0.020205878161313981744),
    (0.999, 0.5, 1e6, 13.681539275920927353, 9.9999162077371957776e-7),
    (0.999, 0.5, 1e8, 18.28670059365724922, 9.9999988826204395139e-9),
    (0.999, 5.0, 1e-3, 0.0059756593064429902759, 5.9524647141361154821),
    (0.999, 5.0, 1.0, 1.828232630119298075, 0.81573926989591364208),
    (0.999, 5.0, 47.0, 5.4667403769806149881, 0.021152485438982003929),
    (0.999, 5.0, 1e6, 15.42609039305894975, 9.9999965516296547463e-7),
    (0.999, 5.0, 1e8, 20.031260231323309475, 9.9999999624257139741e-9),
    (0.999, 20.0, 1e-3, 0.0207619513462936197, 20.528735888010035243),
    (0.999, 20.0, 1.0, 3.047017856217315791, 0.95015809016587195757),
    (0.999, 20.0, 47.0, 6.8470024516201506815, 0.021252726319018615284),
    (0.999, 20.0, 1e6, 16.811242884409236268, 9.9999994720534600102e-7),
    (0.999, 20.0, 1e8, 21.41641301813061672, 9.9999999947205333562e-9),
]


def _kernel_rate(P, m, alpha, top):
    """_mgf_rate at powers P and estimates m (arrays of one shape) on the
    split rule for top, and the rule's head node count."""
    s, w, T = power_allocation._mgf_rate_rule(m, alpha, top)
    return power_allocation._mgf_rate(P, m, alpha, s, w, T), s.size


def _rate_at(P, m, alpha):
    """r(P | m) and -r'(P | m) on the rule for powers up to P at estimate m."""
    (r, slope), _ = _kernel_rate(np.array([P]), np.array([m]), alpha, P * (m + alpha))
    return r[0], slope[0]


def test_mgf_kernels_match_30_digit_mpmath():
    for alpha, m, P, log_rate, rate in MGF_MPMATH:
        got = power_allocation._mgf_log_rate(np.array([m]), alpha, np.array([[P]]))
        assert got[0, 0] == pytest.approx(log_rate, rel=1e-12, abs=0.0)
        assert _rate_at(P, m, alpha)[0] == pytest.approx(rate, rel=1e-12, abs=0.0)


def test_shared_lattice_log_rate_matches_40_digit_mpmath():
    # the capacity samples every row at the same powers on one lattice
    # (u = s P); here it spans the table's eleven decades, where
    # e^{-u / P} at P = 1e-3 reaches the subnormal range
    table = {}
    for alpha, m, P, log_rate, _ in MGF_MPMATH:
        table.setdefault(alpha, {}).setdefault(m, {})[P] = log_rate
    for alpha, rows in table.items():
        m = np.array(sorted(rows))
        P = np.array(sorted(rows[0.0]))
        _, W = power_allocation._mgf_lattice(m, alpha, P)
        assert np.all((W == 0.0) | (W >= np.finfo(float).tiny))
        assert np.any(W == 0.0)
        got = power_allocation._mgf_log_rate_shared(m, alpha, P)
        want = np.array([[rows[mj][p] for p in P] for mj in m])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


# (alpha, m, lam, P) with r(P | m) = lam: mpmath.findroot on the 40-digit
# rate above, to 1e-34. Among them, m = 0.5, alpha = 0.5, lam = 1e-6 is
# the corner where uniform Gauss-Legendre panels in g were off by 5e-6
# relative: adaptive quad with a split at g = 1/P gives 999989.80 there.
MGF_ROOTS_MPMATH = [
    (0.0001, 0.0, 1e-06, 957851.1321657370041),
    (0.0001, 0.5, 1e-06, 999997.99959984155126),
    (0.0001, 0.5, 0.05, 17.999679929913073772),
    (0.0001, 0.5, 0.3, 1.3334133480486028955),
    (0.0001, 5.0, 1e-06, 999999.79999599988684),
    (0.0001, 5.0, 0.05, 19.799996079850246845),
    (0.0001, 5.0, 0.3, 3.1333298132306151775),
    (0.0001, 20.0, 1e-06, 999999.94999975004278),
    (0.0001, 20.0, 0.05, 19.949999751247539338),
    (0.0001, 20.0, 0.3, 3.2833330908310721307),
    (0.1, 0.0, 1e-06, 999890.63084044088903),
    (0.1, 0.0, 0.05, 6.411853630896823498),
    (0.1, 0.5, 1e-06, 999996.7028586496482),
    (0.1, 0.5, 0.05, 17.639575818233728495),
    (0.1, 0.5, 0.3, 1.4237851476608870106),
    (0.1, 5.0, 1e-06, 999999.79582954632346),
    (0.1, 5.0, 0.05, 19.795921225981482471),
    (0.1, 5.0, 0.3, 3.1297071683346122326),
    (0.1, 20.0, 1e-06, 999999.94974746180176),
    (0.1, 20.0, 0.05, 19.949748753497122991),
    (0.1, 20.0, 0.3, 3.2830885411224298754),
    (0.5, 0.0, 1e-06, 999974.90907102090401),
    (0.5, 0.0, 0.05, 15.276085935975221552),
    (0.5, 0.0, 0.3, 0.8111788181823032929),
    (0.5, 0.5, 1e-06, 999989.80004033488308),
    (0.5, 0.5, 0.05, 17.490616983204224082),
    (0.5, 0.5, 0.3, 1.7921462135300023373),
    (0.5, 5.0, 1e-06, 999999.77282838808804),
    (0.5, 5.0, 0.05, 19.774964577944087672),
    (0.5, 5.0, 0.3, 3.1128099320294850648),
    (0.5, 20.0, 1e-06, 999999.94868227462239),
    (0.5, 20.0, 0.05, 19.948689723279886718),
    (0.5, 20.0, 0.3, 3.282060139937995528),
    (0.9, 0.0, 1e-06, 999985.40763652028738),
    (0.9, 0.0, 0.05, 16.897002199375156177),
    (0.9, 0.0, 0.3, 1.5698894332991446956),
    (0.9, 0.5, 1e-06, 999991.21750288962345),
    (0.9, 0.5, 0.05, 17.887602773667432911),
    (0.9, 0.5, 0.3, 2.0551532830010987824),
    (0.9, 5.0, 1e-06, 999999.69143479207296),
    (0.9, 5.0, 0.05, 19.741843763083901321),
    (0.9, 5.0, 0.3, 3.09309498406145076),
    (0.9, 20.0, 1e-06, 999999.94751367787408),
    (0.9, 20.0, 0.05, 19.947529535438325032),
    (0.9, 20.0, 0.3, 3.2809413147603061443),
    (0.999, 0.0, 1e-06, 999986.74927847883608),
    (0.999, 0.0, 0.05, 17.124575522544652556),
    (0.999, 0.0, 0.3, 1.6832417124277618307),
    (0.999, 0.5, 1e-06, 999991.62070859192287),
    (0.999, 0.5, 0.05, 17.975047466487723223),
    (0.999, 0.5, 0.3, 2.1064441580040601288),
    (0.999, 5.0, 1e-06, 999999.65516284892157),
    (0.999, 5.0, 0.05, 19.73210072924903048),
    (0.999, 5.0, 0.3, 3.0882557960420068047),
    (0.999, 20.0, 1e-06, 999999.947205343259),
    (0.999, 20.0, 0.05, 19.94722382194677085),
    (0.999, 20.0, 0.3, 3.2806482410504040492),
]


def test_mgf_inversion_matches_30_digit_mpmath():
    for alpha, m, lam, root in MGF_ROOTS_MPMATH:
        got = power_allocation._mgf_invert_rate(np.array([m]), alpha, lam)
        assert got[0] == pytest.approx(root, rel=1e-12, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.05, 0.95), m=st.floats(0.0, 20.0),
       log_p=st.floats(-3.0, 7.0))
@example(alpha=0.125, m=0.0, log_p=-3.0)  # a g-weighted tail cut at probability alone
def test_mgf_rate_matches_the_density_oracles(alpha, m, log_p):
    # the kernels against the oracles' pdf-based quadrature of
    # rate_integral and its brentq inverse, which share no code with them
    P = 10.0 ** log_p
    r, slope = _rate_at(P, m, alpha)
    assert r == pytest.approx(rate_integral(P, m, alpha), rel=1e-10, abs=0.0)
    assert slope > 0.0
    root = power_allocation._mgf_invert_rate(np.array([m]), alpha, float(r))
    assert root[0] == pytest.approx(invert_rate_integral(float(r), m, alpha),
                                    rel=1e-9, abs=1e-12)
    assert root[0] == pytest.approx(P, rel=1e-9, abs=1e-12)


def _inversion_rows(lam, alpha):
    """Estimates for m = 0, rows whose mean m + alpha sits just above and
    just below lam (where m >= 0 allows), and a few ordinary rows."""
    edge = lam - alpha
    m = [0.0, 0.5, 2.0, 6.0] + [edge + d for d in (1e-6, -1e-6) if edge + d >= 0.0]
    return np.array(m)


def _rule_rate(P, m, alpha, s, w):
    """r(P | m) = sum of w s E (m / D + alpha) / D^2 and -r'(P | m) = sum
    of w s^2 E ((m / D + 2 alpha)^2 - 2 alpha^2) / D^3, E = e^{-u m / D},
    u = s P, D = 1 + alpha u: the trapezoid rule on every node, written
    out."""
    u = P * s
    d = 1.0 + alpha * u
    e = w * s * np.exp(-u * m / d) / d ** 2
    return (float(np.sum(e * (m / d + alpha))),
            float(np.sum(e * s * ((m / d + 2.0 * alpha) ** 2 - 2.0 * alpha ** 2) / d)))


@pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.5, 0.9, 0.999])
def test_split_rate_kernel_matches_the_full_rule(alpha):
    # the head nodes plus the closed-form tail against every node summed
    # one by one, r and -r': on the inversion's rule for powers from
    # 1e-9 / lam to 1 / lam, and on each power's own rule, whose cut moves
    # through the nodes until at the smallest powers every node is tail
    heads = []
    for lam in (1e-6, 0.05, 0.3, 1.0):
        m = np.array([x for x in (0.0, lam - alpha + 1e-6, 0.5, 5.0, 20.0, 200.0)
                      if x >= 0.0])
        P = np.logspace(-9.0, 0.0, 19) / lam
        mm, pp = (a.ravel() for a in np.meshgrid(m, P, indexing="ij"))
        top = (m.max() + alpha) / lam
        (r, slope), _ = _kernel_rate(pp, mm, alpha, top)
        rule = power_allocation._mgf_rule(top)
        want = np.array([_rule_rate(p, x, alpha, *rule) for p, x in zip(pp, mm)])
        np.testing.assert_allclose(np.stack([r, slope], axis=1), want, rtol=4e-15, atol=0.0)
        for p, x in zip(pp, mm):
            (r, slope), n = _kernel_rate(np.array([p]), np.array([x]), alpha, p * (x + alpha))
            heads.append(n)
            want = _rule_rate(p, x, alpha, *power_allocation._mgf_rule(p * (x + alpha)))
            np.testing.assert_allclose([r[0], slope[0]], want, rtol=4e-15, atol=0.0)
    assert min(heads) == 0 and max(heads) > 0


def _bisect_rows(m, alpha, lam):
    """Plain per-row bisection on the rule the inversion uses at lam, run
    until the bracket stops shrinking in floating point."""
    out = np.zeros(m.size)
    active = np.flatnonzero(m + alpha > lam)
    if active.size == 0:
        return out
    s, w = power_allocation._mgf_rule(float((m[active] + alpha).max()) / lam)
    for j in active:
        lo, hi = 0.0, 1.0 / lam
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if _rule_rate(mid, m[j], alpha, s, w)[0] > lam:
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
    got = power_allocation._mgf_invert_rate(m, alpha, lam)
    want = _bisect_rows(m, alpha, lam)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, 1.0 / lam)
    # rows at or below the multiplier transmit nothing
    assert np.all(got[m + alpha <= lam] == 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("lam", [1e-6, 0.05, 0.3, 1.0])
def test_row_inversion_matches_scalar_oracle(alpha, lam):
    # the oracles' density quadrature inverted by brentq; the old
    # Gauss-Legendre matrix rows could not reach lam <= 0.05 within the
    # tolerance, being off by up to 5e-6 relative near g ~ 1/P
    m = _inversion_rows(lam, alpha)
    got = power_allocation._mgf_invert_rate(m, alpha, lam)
    want = np.array([invert_rate_integral(lam, float(mi), alpha) for mi in m])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, 1.0 / lam)


# _mgf_invert_rate's output since its Newton steps run on 1/r and its
# rule sums the small-s tail in closed form. Against 40-digit mpmath roots
# of the MGF rate integral the worst relative error is 1.1e-14 at lam = 1
# and 7.7e-16 at lam = 0.05; summing every node gave 1.2e-14 and 9.9e-16
# against the same roots, and stepping on r 1.7e-14 and 1.1e-15. At
# lam = 1 the first three rows are inactive (mean <= lam); the others run
# in blocks of 5 rows and converge at different steps, so the steps also
# run on subsets of a block's rows.
_FROZEN_ROW_ROOTS = {
    1.0: ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.7405b0a1754d8p-7",
          "0x1.c44e3d33ca7ebp-5", "0x1.e7faccf7b4138p-3",
          "0x1.9991f1dafec45p-2", "0x1.2ff30dcc1d6f7p-1",
          "0x1.78d481afdac17p-1", "0x1.b2f9a3935001fp-1",
          "0x1.d3c5a810c2a1dp-1", "0x1.eb21588f67199p-1",
          "0x1.f7659771689aap-1", "0x1.fd6f028f41d0ap-1"],
    0.05: ["0x1.e8d5b22c3cc5dp+3", "0x1.0d115be4e014ap+4",
           "0x1.17d991319b96ep+4", "0x1.18c12e5191f92p+4",
           "0x1.1c1cb6c6c028fp+4", "0x1.2821e0b8e2978p+4",
           "0x1.3069b161f2b6ep+4", "0x1.37aa3e47003c9p+4",
           "0x1.3b54c7cfef0e1p+4", "0x1.3d8652a3c6c39p+4",
           "0x1.3e9b3dc434006p+4", "0x1.3f58c23447574p+4",
           "0x1.3fbb27dd42847p+4", "0x1.3feb77f413f02p+4"],
}


@pytest.mark.parametrize("lam", sorted(_FROZEN_ROW_ROOTS))
def test_row_inversion_bits_frozen(monkeypatch, lam):
    m = np.array([0.0, 0.3, 0.5, 0.52, 0.6, 1.0, 1.5, 2.5, 4.0, 7.0, 12.0,
                  25.0, 60.0, 200.0])
    whole = power_allocation._mgf_invert_rate(m, 0.5, lam)
    nodes = power_allocation._mgf_rate_rule(m, 0.5, (m.max() + 0.5) / lam)[0].size
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", 5 * nodes)
    got = power_allocation._mgf_invert_rate(m, 0.5, lam)
    assert [float(p).hex() for p in got] == _FROZEN_ROW_ROOTS[lam]
    assert np.array_equal(got, whole)


def test_row_inversion_raises_when_out_of_steps(monkeypatch):
    monkeypatch.setattr(power_allocation, "_ROW_INVERSION_STEPS", 1)
    with pytest.raises(NumericsError, match="did not converge in 1 steps"):
        power_allocation._mgf_invert_rate(np.array([0.5, 2.0]), 0.5, 0.05)


def _captured_rate_sums(cross, i_peak, panels, monkeypatch):
    """Direct-link grid and the rate_sums arguments (shared and own powers
    and weights, cells) of the capacity's tail at 13 dB for an estimated
    direct link."""
    cfg = scenario(CsiKnowledge.estimated(0.5), cross, p_avg=10.0 ** 1.3,
                   i_peak=i_peak)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    calls = []
    rate_sums = power_allocation._SlGrid.rate_sums

    def spy(self, shared, own, rows):
        calls.append((self, shared, own, rows))
        return rate_sums(self, shared, own, rows)

    monkeypatch.setattr(power_allocation._SlGrid, "rate_sums", spy)
    capacity._capacity_at(pol, panels)
    assert len(calls) == 1
    return calls[0]


# an estimated cross link saturates above ~6.3 dB at i_peak 10; i_peak 100
# keeps the EE policy power-limited at 13 dB
@pytest.mark.parametrize("cross, i_peak", [(CsiKnowledge.perfect(), 10.0),
                                           (CsiKnowledge.estimated(0.5), 100.0)],
                         ids=["EP", "EE"])
@pytest.mark.parametrize("panels", [16, 32])
def test_log_power_rate_kernel_matches_direct_sum(cross, i_peak, panels, monkeypatch):
    # the tail's rate sums through the interpolant in log P against the
    # trapezoid sum at every power, one row at a time
    sl, (P, w), (Q, v), rows = _captured_rate_sums(cross, i_peak, panels, monkeypatch)
    got_panels, got_own = sl.rate_sums((P, w), (Q, v), rows)
    m = sl.state[rows]
    rate = power_allocation._mgf_log_rate
    want_panels = [(rate(m[j:j + 1], 0.5, P.reshape(1, -1)).reshape(P.shape) * w).sum(axis=1)
                   for j in range(m.size)]
    want_own = [rate(m[j:j + 1], 0.5, Q[j:j + 1])[0] @ v[j] for j in range(m.size)]
    np.testing.assert_allclose(got_panels, want_panels, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got_own, want_own, rtol=1e-13, atol=0.0)


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


def test_one_water_filling_formula_for_grid_and_policy():
    # the grid and the policy both read _budget_component; below the 1e-12
    # gain floor the divisor is the floor: a gain at or below lam < floor
    # must still get nothing
    lam = 1e-13
    g = np.array([5e-14, 1e-13, 2e-13, 0.5, 3.0])
    want = [0.0, 0.0, 1.0 / lam - 1e12, 1.0 / lam - 2.0, 1.0 / lam - 1.0 / 3.0]
    got = power_allocation._budget_component(CsiKnowledge.perfect(), NumericSettings(), lam, g)
    assert got.tolist() == want


# e^{1/P} E1(1/P) from mpmath at 40 digits, rounded to 25
EXPONENTIAL_RATE_MPMATH = [
    (1e-3, 0.0009990019940238807149999607),
    (1.0, 0.5963473623231940743410785),
    (20.0, 2.594430349760613321632066),
    (1e6, 13.23830913136500345620115),
]


def test_no_knowledge_rate_cells_is_the_closed_form():
    sl = power_allocation._SlGrid(CsiKnowledge.no_csi(), NumericSettings(), 8)
    assert sl.state.tolist() == [0.0] and sl.w.tolist() == [1.0]
    P, want = (np.array(col) for col in zip(*EXPONENTIAL_RATE_MPMATH))
    np.testing.assert_allclose(sl.rate_cells(P[None, :])[0], want, rtol=1e-14, atol=0.0)
    one = [sl.rate_cells(np.array([p]))[0] for p in P]
    np.testing.assert_allclose(one, want, rtol=1e-14, atol=0.0)
    assert sl.rate_cells(np.array([[0.0]])).tolist() == [[0.0]]


def test_component_none_is_constant_budget():
    comp = _policy_at(CsiKnowledge.no_csi(), 0.0, p_avg=2.5).budget_component(None)
    assert comp == 2.5


# ----------------------------------------------------------------------
# the monotone cubic interpolant behind the cap table

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


# worst relative errors of the estimated cap table on 20,001 even estimates
# in [0, upper], measured and rounded up to two digits: the cap against the
# exact quantile, and the crossing state's round trip over interior caps
@pytest.mark.parametrize("alpha, eps, cap_err, crossing_err", [
    (0.1, 0.05, 1.9e-4, 2.6e-4),
    (0.1, 1e-6, 4.7e-3, 3.3e-3),
    (0.5, 0.05, 3.0e-7, 4.1e-7),
    (0.5, 1e-6, 4.0e-5, 3.5e-5),
    (0.9, 0.05, 5.9e-10, 5.4e-10),
    (0.9, 1e-6, 7.8e-8, 7.1e-8),
])
def test_cap_table_tracks_the_exact_quantile(alpha, eps, cap_err, crossing_err):
    est = CsiKnowledge.estimated(alpha)
    capf = power_allocation._cap_field(est, 10.0, eps, NumericSettings())
    m = np.linspace(0.0, capf.upper, 20_001)
    caps = capf.cap(m)
    assert np.max(np.abs(caps / interference_power_cap(m, est, 10.0, eps) - 1.0)) \
        <= cap_err
    a = caps[(caps > capf.cap(capf.upper)) & (caps < capf.cap(0.0))]
    assert a.size == m.size - 2
    assert np.max(np.abs(capf.cap(capf.crossing_state(a)) / a - 1.0)) <= crossing_err


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
    # a caller may solve points on a thread pool, all reading one table
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


def test_grid_memo_shared_between_threads(fresh_grids):
    # more threads than cores fill the direct-link grid memo, which takes
    # no lock: threads that miss together each build the same bits, so
    # every multiplier equals the serial solve's and the memo ends with
    # the same keys
    fast = NumericSettings(quad_points=8, base_panels=4, max_refinements=2)
    cfgs = [scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect(), p_avg=p, ns=fast)
            for p in (0.25, 0.5, 1.0, 2.0)]
    expected = [solve_lambda(cfg).lam for cfg in cfgs]
    keys = power_allocation._sl_grid.cache_info().currsize
    power_allocation._sl_grid.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(solve_lambda, cfgs[i % 4]) for i in range(16)]
            lams = [f.result(timeout=120).lam for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert lams == expected * 4
    assert power_allocation._sl_grid.cache_info().currsize == keys


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

def _count_calls(monkeypatch, module, name):
    """Patch module.name to record the arguments of every call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("p_avg_db", [0.0, -10.0])
def test_capacity_reads_the_search_final_grid(monkeypatch, fresh_grids, p_avg_db):
    # every trial builds its multiplier's budget series, one row inversion
    # of _BUDGET_SERIES_POINTS estimates; the capacity's levels, at every
    # panel count, read the final trial's series from the memo and invert
    # no row of their own
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect(),
                   p_avg=10.0 ** (p_avg_db / 10.0))
    inversions = _count_calls(monkeypatch, power_allocation, "_mgf_invert_rate")
    pol = solve_lambda(cfg)
    trials = len(inversions)
    assert trials > 5
    assert {m.size for m, _, _ in inversions} == {power_allocation._BUDGET_SERIES_POINTS}
    assert pol.lam in [lam for _, _, lam in inversions]
    res = capacity._capacity_of(pol)
    assert len(inversions) == trials

    # a second solve reads every level from the memo; an empty grid memo
    # rebuilds the same bits from the series memo, and emptying both
    # inverts the same rows again
    inversions.clear()
    assert capacity.ergodic_capacity(cfg) == res
    power_allocation._sl_grid.cache_clear()
    assert capacity.ergodic_capacity(cfg) == res
    assert inversions == []
    power_allocation._sl_grid.cache_clear()
    power_allocation._budget_series.cache_clear()
    assert capacity.ergodic_capacity(cfg) == res
    assert len(inversions) == trials


def test_policy_holds_no_grid(fresh_grids):
    # the grids live in the process-wide memo, so a policy kept for its
    # whole life holds no cells, and reads the same values after the memo
    # has been emptied
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect())
    pol = solve_lambda(cfg)
    res = capacity._capacity_of(pol)
    power = pol.expected_power()
    held = [v for v in vars(pol).values()
            if isinstance(v, (np.ndarray, tuple, list, power_allocation._SlGrid))]
    assert held == []
    power_allocation._sl_grid.cache_clear()
    assert pol.expected_power() == power
    assert capacity._capacity_of(pol) == res


def test_memoised_grid_is_read_only(fresh_grids):
    # one entry serves every caller and thread, so none may write into it
    key = (CsiKnowledge.estimated(0.5), NumericSettings(), 16, 0.1)
    sl = power_allocation._sl_grid(*key)
    A = sl.A
    for a in (sl.state, sl.w, A):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert power_allocation._sl_grid(*key).A is A


@pytest.mark.parametrize("code, p_avg_db", [("PP", 0.0), ("PE", 0.0), ("PN", 0.0),
                                            ("EP", 13.0), ("EE", 0.0), ("EN", -10.0)])
def test_expected_power_after_a_solve_reads_the_solve_spend(monkeypatch, fresh_grids,
                                                            code, p_avg_db):
    # the search always evaluates the multiplier it returns, at base_panels
    # * 2 panels, expected_power's default: the level keeps that spend, so
    # expected_power() integrates nothing
    spends = {}
    spent = power_allocation._SlGrid.spent

    def recorded(self, capf):
        spends[self, capf] = value = spent(self, capf)
        return value

    monkeypatch.setattr(power_allocation._SlGrid, "spent", recorded)
    cfg = _grid_scenario(code, _db(p_avg_db))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    level = power_allocation._sl_grid(cfg.sl_csi, cfg.numerics,
                                      2 * cfg.numerics.base_panels, pol.lam)
    calls = _count_calls(monkeypatch, power_allocation._CapField, "capped_mean")
    assert pol.expected_power() == spends[level, pol._capf]
    assert calls == []


def test_a_level_keeps_no_spend_of_a_dropped_cap_table(fresh_grids):
    # the spend memo is weak on the cap table: a table that _cap_table has
    # evicted and no policy holds leaves no entry, nor keeps its arrays alive
    level = power_allocation._sl_grid(CsiKnowledge.perfect(), NumericSettings(), 16, 0.1)
    capf = power_allocation._CapField(CsiKnowledge.estimated(0.5), 10.0, 0.05,
                                      NumericSettings())
    value = level.spent(capf)
    assert value == float(level.w @ capf.capped_mean(level.A))
    assert dict(level._spent) == {capf: value}
    del capf
    assert len(level._spent) == 0


# states and levels at the ends of every clip: signed zeros, negatives,
# the floors, the truncation point and the infinities
_CLIP_EDGES = np.array([-np.inf, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1e-13, 1e-12,
                        0.5, -np.log(1e-10), 2.0 * -np.log(1e-10), 1e300, np.inf])


def _clip_cases():
    """name -> () -> (value, the value by np.clip as the code once did)."""
    ns = NumericSettings()
    est = CsiKnowledge.estimated(0.5)
    perfect = power_allocation._cap_field(CsiKnowledge.perfect(), 10.0, 0.05, ns)
    estimated = power_allocation._cap_field(est, 10.0, 0.05, ns)
    t = _CLIP_EDGES

    def crossing(capf, a):
        q_star = np.where(a > 0.0, capf.i_peak / np.maximum(a, 1e-300), np.inf)
        if capf.level is CsiLevel.PERFECT:
            return np.clip(q_star, 0.0, capf.upper)
        inner = capf._m_of_q(np.clip(q_star, capf._q_lo, capf._q_hi))
        return np.clip(np.where(q_star >= capf._q_hi, capf.upper,
                                np.where(q_star <= capf._q_lo, 0.0, inner)), 0.0, capf.upper)

    def tail(capf, t_star):
        knots = capf._knots
        s = np.clip(t_star, knots[0], capf.upper)
        i = np.clip(np.searchsorted(knots, s, side="right"), 1, knots.size - 1)
        return capf._tail[i] + capf._panel_integral(s, knots[i])

    def pchip(p, v):
        i = np.clip(np.searchsorted(p._x, v, side="right") - 1, 0, p._x.size - 2)
        s = v - p._x[i]
        return ((p._c2[i] * s + p._c3[i]) + p._c1[i] * (s * s)) + p._c0[i] * (s * s * s)

    def knot_ends(p):   # the interpolants take clipped arguments: near their knots only
        x = p._x
        return np.r_[x[0] - 1.0, np.nextafter(x[0], -1.0), x[[0, 1, -2, -1]],
                     np.nextafter(x[-1], np.inf), x[-1] + 1.0]

    q_of_m, m_of_q = estimated._q_of_m, estimated._m_of_q
    m = np.r_[-0.0, 5e-324, knot_ends(q_of_m)]
    q = knot_ends(m_of_q)
    lam = 0.9   # the budget series dips to -9e-15 just above its kink m_c = 0.4
    m_c, _, series, _ = power_allocation._budget_series(est, ns, lam)
    states = np.r_[t[np.isfinite(t)], lam, m_c, m_c * (1.0 + np.geomspace(1e-16, 1e-3, 14))]
    return {
        "marginal_pdf": lambda: (fading.marginal_power_pdf(t),
                                 np.where(t >= 0.0, np.exp(-np.clip(t, 0.0, None)), 0.0)),
        "marginal_cdf": lambda: (fading.marginal_power_cdf(t),
                                 np.where(t >= 0.0, -np.expm1(-np.clip(t, 0.0, None)), 0.0)),
        "estimated_cdf": lambda: (estimated.cdf(t),
                                  1.0 - np.exp(-np.clip(t, 0.0, None) / 0.5)),
        "estimated_pdf": lambda: (estimated.pdf(t),
                                  np.exp(-np.clip(t, 0.0, None) / 0.5) / 0.5),
        "estimated_cap": lambda: (estimated.cap(t), 10.0 / np.clip(
            estimated._q_of_m(np.clip(t, 0.0, estimated.upper)), estimated._q_lo, None)),
        "perfect_crossing": lambda: (perfect.crossing_state(t), crossing(perfect, t)),
        "estimated_crossing": lambda: (estimated.crossing_state(t), crossing(estimated, t)),
        "perfect_tail": lambda: (perfect.tail_integral(t), tail(perfect, t)),
        "estimated_tail": lambda: (estimated.tail_integral(t), tail(estimated, t)),
        "pchip_ends": lambda: (np.r_[q_of_m(m), m_of_q(q)],
                               np.r_[pchip(q_of_m, m), pchip(m_of_q, q)]),
        "perfect_budget": lambda: (
            power_allocation._budget_component(CsiKnowledge.perfect(), ns, lam, states),
            np.where(states <= lam, 0.0, np.clip(
                1.0 / lam - 1.0 / np.maximum(states, power_allocation._GAIN_FLOOR), 0.0, None))),
        "estimated_budget": lambda: (
            power_allocation._budget_component(est, ns, lam, states),
            np.where(states < m_c, 0.0, np.clip(series(np.log(
                np.clip(states, m_c, power_allocation._budget_series(est, ns, lam)[1]) + 0.5)),
                0.0, None))),
        "e1_table_ends": lambda: (
            special_functions.exp_integral_e1(E1_ENDS, scaled=True),
            np.array([special_functions.exp_integral_e1(x, scaled=True) for x in E1_ENDS])),
    }


# around the E1 table's ends 2^-53 and 40, long enough for numpy's path
E1_ENDS = np.array([5e-324, 2.0 ** -60, 2.0 ** -53, 2.0 ** -52, 1.0,
                    np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, 50.0), 1e300])


_CLIP_CASES = ["marginal_pdf", "marginal_cdf", "estimated_cdf", "estimated_pdf",
               "estimated_cap", "perfect_crossing", "estimated_crossing", "perfect_tail",
               "estimated_tail", "pchip_ends", "perfect_budget", "estimated_budget",
               "e1_table_ends"]


def test_clip_cases_are_all_listed():
    assert sorted(_clip_cases()) == sorted(_CLIP_CASES)


@pytest.mark.parametrize("case", _CLIP_CASES)
def test_ufunc_clips_give_the_np_clip_bits(case):
    # np.clip(x, lo, None) is np.maximum(x, lo) inside numpy, and an index
    # or a value that is never -0.0 clips the same by np.minimum and
    # np.maximum: every rewritten clip gives the old bits, signs of zero too
    got, old = _clip_cases()[case]()
    got, old = np.asarray(got, dtype=float), np.asarray(old, dtype=float)
    assert got.shape == old.shape
    assert np.array_equal(got.view(np.int64), old.view(np.int64)), (got, old)


def test_corrupted_lambda_copy_builds_its_own_grid():
    # cli verify --corrupt-lambda rescales lam on a shallow copy of the
    # policy: the grid and the budget series solved at the old lam
    # must not reach it
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect())
    pol = solve_lambda(cfg)
    m = np.array([0.5, 2.0])
    good = pol.budget_component(m)
    bad = copy.copy(pol)
    bad.lam = pol.lam * 1.5
    assert np.all(bad.budget_component(m) < good)
    panels = 2 * cfg.numerics.base_panels
    sl = power_allocation._SlGrid(cfg.sl_csi, cfg.numerics, panels, lam=bad.lam)
    A = power_allocation._budget_component(cfg.sl_csi, cfg.numerics, bad.lam, sl.state)
    assert bad.expected_power() == float(sl.w @ pol._capf.capped_mean(A))
    assert bad.expected_power() != pol.expected_power()


def test_capless_multiplier_search_reads_no_density(monkeypatch, fresh_grids):
    # the capless search inverts the rate through the MGF kernel, as the
    # capped one does; a tight multiplier: at the default tolerance the capped policy may
    # overspend its budget by lambda_rel_tol and rise above the bound
    cfg = scenario(CsiKnowledge.estimated(0.5), CsiKnowledge.perfect(), ns=TIGHT)
    inversions = _count_calls(monkeypatch, power_allocation, "_mgf_invert_rate")
    low = capacity.low_budget_asymptote(cfg)
    assert len(inversions) > 5
    assert capacity.low_budget_asymptote(cfg) == low
    assert low >= capacity.ergodic_capacity(cfg).capacity


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
# at the same points, as float.hex: the capacity, its quadrature error
# estimate and the low-budget asymptote, from the solver that read the
# policy, the capless limit and the capacity each in a way of its own.
# EP at 13 dB moved by 1 ulp when the log-rate interpolant became numpy's
# Chebyshev series: with each cell's trapezoid sum at every power instead
# it is 0x1.2ca2506236098p+1 with the same error estimate, 0x1.0p-49.
# The E-direct capacities moved by 1-2 ulps (at most 2.3e-16 relative),
# and three error estimates by at most 5.6e-16, when every level read the
# budget series instead of inverting its own cells; before, in order:
# EP 0x1.f6c1bd0be0490p-4, 0x1.3c2b542d0be11p-1 (err 0x1.f8p-48),
# 0x1.2ca2506236097p+1; EE 0x1.f6c1bd2ecfe76p-4 (err 0x1.cp-54),
# 0x1.3c29be54cdaf7p-1 (err 0x1.12p-46)
_FROZEN_CAPACITIES = {
    ("PP", -10.0): ("0x1.5661907e7ca42p-3", "0x1.7000000000000p-50", "0x1.5660de06d0686p-3"),
    ("PP", 0.0): ("0x1.6cfcc6378ffc4p-1", "0x1.67ec000000000p-39", "0x1.6d0502d1b887ap-1"),
    ("PP", 13.0): ("0x1.2d70617ff5b6ep+1", "0x1.f7ff8ae400000p-20", "0x1.4fe4a2666360ep+1"),
    ("PE", -10.0): ("0x1.5661908811c9ap-3", "0x1.0000000000000p-54", "0x1.5660de06d0686p-3"),
    ("PE", 0.0): ("0x1.6cf895426040ep-1", "0x1.5187000000000p-37", "0x1.6d0502d1b887ap-1"),
    ("EP", -10.0): ("0x1.f6c1bd0be0492p-4", "0x1.4000000000000p-54", "0x1.f6c1074c00df4p-4"),
    ("EP", 0.0): ("0x1.3c2b542d0be10p-1", "0x1.e000000000000p-48", "0x1.3c2a69366fca7p-1"),
    ("EP", 13.0): ("0x1.2ca2506236098p+1", "0x1.0000000000000p-49", "0x1.4bfff60234a52p+1"),
    ("EE", -10.0): ("0x1.f6c1bd2ecfe78p-4", "0x1.0000000000000p-53", "0x1.f6c1074c00df4p-4"),
    ("EE", 0.0): ("0x1.3c29be54cdaf8p-1", "0x1.1c00000000000p-46", "0x1.3c2a69366fca7p-1"),
    ("PN", -10.0): ("0x1.56619088f8712p-3", "0x1.0000000000000p-53", "0x1.5660de06d0686p-3"),
    ("PN", 0.0): ("0x1.6d0640eb28013p-1", "0x1.5200000000000p-46", "0x1.6d0502d1b887ap-1"),
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
    res = capacity._capacity_of(pol)
    got = (res.capacity.hex(), res.quadrature_error_estimate.hex(),
           capacity.low_budget_asymptote(cfg).hex())
    assert got == _FROZEN_CAPACITIES[code, p_avg_db]


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


# what the three hand-written bisection loops returned before _bisect
# replaced them, as float.hex, beyond the multipliers frozen above: one
# more near the perfect-cross threshold, where the bracket grows
# downward, the rescaled no-knowledge constant and the capless
# multiplier's low-budget asymptote (EP moved by 4.4e-16 relative when
# the row inversion began to sum its small-s tail in closed form)
_BISECTED_HEX = [
    ("lam", "PP", 279.0, "0x1.05fddb81e22ddp-43"),
    ("const", "NP", 1.0, "0x1.00004043af000p+0"),
    ("const", "NE", 1.0, "0x1.00001afac5400p+0"),
    ("low", "PP", 1.0, "0x1.6d0502d1b887ap-1"),
    ("low", "EP", 1.0, "0x1.3c2a69366fca7p-1"),
]


@pytest.mark.parametrize("what, code, p_avg, want", _BISECTED_HEX,
                         ids=[f"{w}-{c}@{p:g}" for w, c, p, _ in _BISECTED_HEX])
def test_bisection_driver_frozen_bit_for_bit(what, code, p_avg, want):
    cfg = scenario(_KNOWLEDGE[code[0]], _KNOWLEDGE[code[1]], p_avg=p_avg,
                   rescale_no_csi_budget=what == "const")
    if what == "low":
        got = capacity.low_budget_asymptote(cfg)
    else:
        pol = solve_lambda(cfg)
        assert pol.regime == "power_limited"
        got = pol.lam if what == "lam" else pol.budget_component(None)
    assert got.hex() == want


def test_multiplier_bisection_raises_when_it_runs_out(monkeypatch, fresh_grids):
    # a spent-power curve that jumps across the budget at lam = 0.5 by
    # 5 lambda_rel_tol can be bracketed but never met: no midpoint within
    # some looser slack may come back as the multiplier
    tol = NumericSettings().lambda_rel_tol

    class OneCell(power_allocation._SlGrid):
        def __init__(self, csi, settings, panels, lam=None):
            self.state = np.array([1.0])
            self.w = np.array([1.0])

    def jump(self, a):
        return np.where(a < 0.5, 1.0 + 2.5 * tol, 1.0 - 2.5 * tol)

    monkeypatch.setattr(power_allocation, "_SlGrid", OneCell)
    monkeypatch.setattr(power_allocation, "_budget_component",
                        lambda csi, settings, lam, state: np.array([lam]))
    monkeypatch.setattr(power_allocation._CapField, "capped_mean", jump)
    with pytest.raises(NumericsError,
                       match="power multiplier bisection did not converge in 300 steps"):
        solve_lambda(scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect()))


# ----------------------------------------------------------------------
# the replayed bisection against the plain one (oracles.plain_bisect)

def _grid_scenario(code, p_avg, **kw):
    return scenario(_KNOWLEDGE[code[0]], _KNOWLEDGE[code[1]], p_avg=p_avg, **kw)


def _db(p_avg_db):
    return 10.0 ** (p_avg_db / 10.0)


_GRID_BUDGETS_DB = (-10.0, 0.0, 10.0, 13.0)
# (capacity or low-budget limit, scenario): the benchmark's knowledge grid,
# the capless limit's set, the rescaled no-knowledge constant, a budget
# near the perfect-cross threshold (the bracket grows downward) and the
# corners of benchmarks/corners.py
_DIFFERENTIAL = {
    "knowledge_grid": [("capacity", _grid_scenario(a + b, _db(p)))
                       for a in "PEN" for b in "PEN" for p in _GRID_BUDGETS_DB],
    "capless": [("low", _grid_scenario(a + "P", _db(p)))
                for a in "PE" for p in _GRID_BUDGETS_DB],
    "rescaled": [("capacity", _grid_scenario(code, _db(p), rescale_no_csi_budget=True))
                 for code in ("NP", "NE") for p in _GRID_BUDGETS_DB],
    "near_threshold": [("capacity", _grid_scenario("PP", 279.0))],
    "corners": [
        ("capacity", _grid_scenario("EP", _db(20.0))),
        ("capacity", scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(1e-4))),
        ("capacity", _grid_scenario("PE", 1.0, eps=1e-6)),
    ],
}


@pytest.mark.parametrize("group", list(_DIFFERENTIAL))
def test_replayed_bisection_returns_the_plain_bisection_midpoint(monkeypatch,
                                                                 fresh_grids, group):
    # every search of the group runs both drivers on the same f
    replayed = power_allocation._bisect
    pairs = []

    def both(f, target, lo, hi, rel_tol, what):
        got = replayed(f, target, lo, hi, rel_tol, what)
        pairs.append((got.hex(), plain_bisect(f, target, lo, hi, rel_tol, what).hex()))
        return got

    monkeypatch.setattr(power_allocation, "_bisect", both)
    for kind, cfg in _DIFFERENTIAL[group]:
        if kind == "low":
            capacity.low_budget_asymptote(cfg)
        else:
            capacity.ergodic_capacity(cfg)
    assert pairs
    assert [got for got, _ in pairs] == [want for _, want in pairs]


@st.composite
def _monotone_searches(draw):
    """A search on a non-increasing f: a base curve of correctly rounded
    operations (so the computed f is non-increasing too), clamped to a
    span (plateaus at both ends), optionally floored to a quantum (steps)
    and raised by a jump below a point."""
    c = draw(st.floats(1e-3, 1e3))
    d = draw(st.floats(0.0, 10.0))
    base = draw(st.sampled_from(["inverse", "inverse_square", "linear"]))
    x_lo = draw(st.floats(1e-6, 1.0))
    x_hi = x_lo * draw(st.floats(1.0, 1e6))
    quantum = draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.1]))
    jump_at = draw(st.floats(1e-6, 1e3))
    jump = draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))

    def f(x):
        x = min(max(x, x_lo), x_hi)
        if base == "inverse":
            v = c / (x + d)
        elif base == "inverse_square":
            v = c / ((x + d) * (x + d))
        else:
            v = c - d * x
        if quantum:
            v = math.floor(v / quantum) * quantum
        return v + (jump if x < jump_at else 0.0)

    # mostly near f's value somewhere, else anywhere (the bracket can fail)
    near = st.builds(lambda x, shift: f(x) + shift, st.floats(1e-7, 1e4),
                     st.sampled_from([0.0, 1e-9, -1e-6]))
    target = draw(st.one_of(near, near, near, st.floats(-10.0, 1e3)))
    lo = draw(st.floats(1e-6, 10.0))
    hi = lo * draw(st.floats(1.0 + 1e-6, 1e3))
    rel_tol = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-4, 1e-2]))
    return f, target, lo, hi, rel_tol


def _outcome(search, f, target, lo, hi, rel_tol):
    try:
        return search(f, target, lo, hi, rel_tol, "test").hex()
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_monotone_searches())
def test_replayed_bisection_matches_plain_bisection_on_monotone_functions(search):
    # the same midpoint, or the same error, on every non-increasing f
    want = _outcome(plain_bisect, *search)
    assert _outcome(power_allocation._bisect, *search) == want
    if not want.startswith("0x"):
        with pytest.raises(NumericsError):
            power_allocation._bisect(*search, "test")


# the knowledge-grid points whose search runs: a direct link with knowledge
# and a budget below the mean cap
_POWER_LIMITED = ([(a + b, p) for a in "PE" for b in "PEN" for p in (-10.0, 0.0)]
                  + [(a + "P", p) for a in "PE" for p in (10.0, 13.0)])


@pytest.mark.parametrize("code, p_avg_db", _POWER_LIMITED,
                         ids=[f"{c}@{p:g}dB" for c, p in _POWER_LIMITED])
def test_spent_power_does_not_rise_with_the_multiplier(fresh_grids, code, p_avg_db):
    # the replayed bisection returns the plain one's midpoint because the
    # computed f is non-increasing: check it on 201 multipliers within 1%
    # of each knowledge-grid root
    cfg = _grid_scenario(code, _db(p_avg_db))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    panels = 2 * cfg.numerics.base_panels
    spent = [power_allocation._sl_grid(cfg.sl_csi, cfg.numerics, panels, float(lam))
             .spent(pol._capf)
             for lam in pol.lam * (1.0 + np.linspace(-0.01, 0.01, 201))]
    assert np.all(np.diff(spent) <= 0.0)


@pytest.mark.parametrize("code, p_avg_db", _POWER_LIMITED,
                         ids=[f"{c}@{p:g}dB" for c, p in _POWER_LIMITED])
def test_levels_and_policy_read_one_budget_rule(code, p_avg_db):
    # the cells the quadrature integrates and the samples Monte Carlo
    # replays read one function: a level's A is the policy's budget
    # component at the level's states, bit for bit, at every panel count
    # (under estimated knowledge the two were 1.9e-13 apart when each
    # level inverted its own cells)
    cfg = _grid_scenario(code, _db(p_avg_db))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    for panels in (8, 16, 128):
        grid = power_allocation._sl_grid(cfg.sl_csi, cfg.numerics, panels, pol.lam)
        assert np.array_equal(grid.A, pol.budget_component(grid.state))


_SERIES_POINTS = ([(_KNOWLEDGE["E"], code, p) for code, p in _POWER_LIMITED if code[0] == "E"]
                  + [(CsiKnowledge.estimated(a), "EP", p) for a in (1e-4, 1e-6) for p in (10.0, 20.0)])


@pytest.mark.parametrize("sl, code, p_avg_db", _SERIES_POINTS,
                         ids=[f"{c}({sl.alpha:g})@{p:g}dB" for sl, c, p in _SERIES_POINTS])
def test_budget_series_drops_only_its_noise(sl, code, p_avg_db):
    # the chopped series keeps the terms above its noise plateau: what it
    # drops is at most 1e-13 of the largest component (the top estimate's),
    # and it keeps fewer than the 129 terms sampled
    cfg = scenario(sl, _KNOWLEDGE[code[1]], p_avg=_db(p_avg_db))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    m_c, m_hi, series, dropped = power_allocation._budget_series(sl, cfg.numerics, pol.lam)
    assert 0.0 < dropped <= 1e-13 * float(series(series.domain[1]))
    assert series.coef.size < power_allocation._BUDGET_SERIES_POINTS


def test_budget_series_raises_without_a_plateau(monkeypatch, fresh_grids):
    # a component with a kink in x = log(m + alpha) has coefficients that
    # fall like 1/k^2: they reach no noise plateau in 129 terms, and the
    # series says so instead of biasing every level that reads it
    monkeypatch.setattr(power_allocation, "_mgf_invert_rate",
                        lambda m, alpha, lam: np.abs(np.log(m + alpha) - 1.0))
    with pytest.raises(NumericsError, match="reached no plateau"):
        power_allocation._budget_series(_KNOWLEDGE["E"], NumericSettings(), 0.3)


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


@pytest.mark.parametrize("cross", [CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5),
                                   CsiKnowledge.no_csi()], ids=["P", "E", "N"])
def test_saturation_starts_exactly_at_the_mean_cap(cross):
    # one threshold for every cross link: the cap table's mean cap, which
    # a saturated policy spends
    cfg = scenario(CsiKnowledge.perfect(), cross)
    capf = power_allocation._cap_field(cross, cfg.i_peak, cfg.epsilon, cfg.numerics)
    sat = solve_lambda(cfg.replace(p_avg=capf.mean_cap))
    assert sat.regime == "saturated"
    assert sat.expected_power() == capf.mean_cap
    below = solve_lambda(cfg.replace(p_avg=np.nextafter(capf.mean_cap, 0.0)))
    assert below.regime == "power_limited"
    assert below.lam > 0.0


def test_saturated_policy_spends_its_threshold_bit_for_bit():
    # the threshold's own refined rule and the saturated policy's 16-panel
    # mean were 1.4e-6 apart here; both are the table's mean cap now
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.estimated(0.1), p_avg=1e3)
    pol = solve_lambda(cfg)
    assert pol.regime == "saturated"
    assert pol.expected_power() == pol.p_avg_star == average_power_threshold(cfg)


@pytest.mark.parametrize("p_avg", [279.5375, 279.538])
def test_budgets_just_below_the_perfect_cross_mean_cap_are_power_limited(p_avg):
    # between the 16-panel rule's threshold, 279.53735, and the table's,
    # 279.53805: the policy spends the budget instead of saturating
    cfg = scenario(CsiKnowledge.perfect(), CsiKnowledge.perfect(), p_avg=p_avg)
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    assert pol.expected_power() == pytest.approx(p_avg, rel=cfg.numerics.lambda_rel_tol)


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


@pytest.mark.parametrize("cl", [CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5)],
                         ids=["P", "E"])
@pytest.mark.parametrize("chunk, blocks", [(480, True), (10 ** 12, True), (480, False)])
def test_expected_capped_skips_empty_tails(monkeypatch, cl, chunk, blocks):
    # a row whose crossing state is at upper has an empty tail (all weights
    # 0): neither expect's tail nor f sees it, and leaving it out changes
    # no bit of the value. blocks: the tail hands f its rows in blocks
    # (tail_sum, one rule per row, the on-off rate's) or all at once
    # (shared_tail, one grid shared by the rows, the capacity's)
    monkeypatch.setattr(power_allocation, "_CHUNK_ELEMS", chunk)
    capf = power_allocation._cap_field(cl, 10.0, 0.05, NumericSettings())
    g = np.linspace(0.1, 3.0, 12)
    w = np.full(12, 1.0 / 12.0)
    A = np.linspace(0.5, 20.0, 12)
    A[::3] = [0.0, 1e-12, 0.0, 1e-12]
    t_star = capf.crossing_state(A)
    live = np.flatnonzero(t_star < capf.upper)
    assert live.size == 8
    seen = []

    def f(P, rows):
        if P.ndim == 2:
            seen.append(np.arange(12)[rows])
        state = g[rows]
        return np.log1p(P * (state if P.ndim == 1 else state[:, None]))

    def sums(shared, own, rows):
        (P, wt), (Q, v) = shared, own
        panels = f(P.reshape(1, -1), rows).reshape(rows.size, *P.shape)
        return (panels * wt).sum(axis=2), (f(Q, rows) * v).sum(axis=1)

    def quadrature(t_star, rows):
        if blocks:
            return capf.tail_sum(t_star, rows, f, 8)
        return capf.shared_tail(t_star, rows, sums, 8)

    def tail(t_star, rows):
        assert t_star.shape == rows.shape and np.all(t_star < capf.upper)
        return quadrature(t_star, rows)

    value = float(w @ capf.expect(A, f, tail))
    # shared_tail asks f once for the shared powers and once for the own ones
    calls = 1 if blocks else 2
    assert np.array_equal(np.sort(np.concatenate(seen)), np.repeat(live, calls))
    if blocks:
        nodes, wt = capf.tail_rule(t_star, 8)
        above = (wt * f(capf.cap(nodes), slice(None))).sum(axis=1)
    else:
        above = quadrature(t_star, np.arange(12))
    every_row = f(A, slice(None)) * capf.cdf(t_star) + above
    assert value == float(w @ every_row)

    # no live row at all: the head alone, and f is never asked for a tail
    seen.clear()
    A = np.where(np.arange(12) % 2, 0.0, 1e-12)
    head = f(A, slice(None)) * capf.cdf(capf.crossing_state(A))
    assert float(w @ capf.expect(A, f, tail)) == float(w @ head)
    assert seen == []


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
    # 41 estimates spaced geometrically from the kink m_c = lam - alpha to
    # the top of the series; against the density-based inversion the
    # series erred by at most 4.6e-13 (at the top), the PCHIP table it
    # replaced by 1.1e-4 (alpha 1e-4) and 2.0e-6 (alpha 0.5) near the kink
    for alpha in (1e-4, 0.5):
        cfg = scenario(CsiKnowledge.estimated(alpha), CsiKnowledge.no_csi(), ns=TIGHT)
        pol = solve_lambda(cfg)
        m_c = max(pol.lam - alpha, 0.0)
        upper = estimate_power_quantile(1.0 - TIGHT.tail_mass, alpha)
        ms = m_c + np.geomspace(1e-9, upper - m_c, 41)
        exact = np.array([invert_rate_integral(pol.lam, float(m), alpha) for m in ms])
        np.testing.assert_allclose(pol.budget_component(ms), exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 0.1, 0.5])
@pytest.mark.parametrize("p_avg_db", [-10.0, 10.0, 20.0])
def test_policy_budget_series_tracks_the_row_inversion(alpha, p_avg_db):
    # the budget series that every level and every sample reads against
    # the row inversion: on 4,000 estimates spaced geometrically from the
    # kink to the series' top the chopped series is within 1.24e-13 of the
    # largest component (alpha 1e-4, 20 dB; 1.4e-14 or less at the other
    # points), the full 129 terms were within 1.9e-13 and the PCHIP table
    # before them erred by up to 1.6e-1 of it (alpha 1e-4, 20 dB)
    cfg = scenario(CsiKnowledge.estimated(alpha), CsiKnowledge.perfect(),
                   p_avg=10.0 ** (p_avg_db / 10.0),
                   ns=NumericSettings(lambda_rel_tol=1e-12))
    pol = solve_lambda(cfg)
    assert pol.regime == "power_limited"
    m_c = max(pol.lam - alpha, 0.0)
    upper = estimate_power_quantile(1.0 - cfg.numerics.tail_mass, alpha)
    ms = m_c + np.geomspace(1e-12, max(upper, m_c + 1.0) - m_c, 4000)
    exact = power_allocation._mgf_invert_rate(ms, alpha, pol.lam)
    err = np.max(np.abs(pol.budget_component(ms) - exact))
    assert err <= 1e-11 * exact.max()


@pytest.mark.parametrize("cross", [CsiKnowledge.perfect(), CsiKnowledge.estimated(0.5),
                                   CsiKnowledge.no_csi()], ids=["P", "E", "N"])
def test_saturated_policy_is_the_cap_under_an_unbounded_budget_component(cross):
    # a slack budget leaves the same rule min(budget component, cap) with
    # the component +inf: the power is the cap bit for bit, and no
    # direct-link state is read
    pol = solve_lambda(scenario(CsiKnowledge.perfect(), cross, p_avg=1e6))
    assert pol.regime == "saturated"
    assert pol.sl_state_kind == "none"
    rng = np.random.default_rng(7)
    g, t = rng.exponential(size=1000), rng.exponential(size=1000)
    cl = None if cross == CsiKnowledge.no_csi() else t
    assert pol.budget_component(g).tolist() == [math.inf] * g.size
    assert pol.budget_component(None) == math.inf
    cap = pol.cap_component(cl)
    assert np.array_equal(pol.power(g, cl), np.broadcast_to(cap, g.shape))
    assert np.array_equal(pol.power(None, cl), cap)


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
