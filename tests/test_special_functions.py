"""Checks for the exponential integral and the oracles' Marcum Q.

Expected values were computed with mpmath at 50 decimal digits and,
independently, scipy adaptive quadrature of the defining integrals;
both routes agreed before the digits were frozen here. The range checks
run 40-digit mpmath live.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcap import special_functions
from crcap.special_functions import NumericsError, exp_integral_e1
from oracles import marcum_q1

REL = 1e-12


def test_exp_integral_e1_frozen_values():
    assert exp_integral_e1(0.2995732273553991) == pytest.approx(
        0.90673149695651685371, rel=REL)
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552027368, rel=REL)
    assert exp_integral_e1(2.0) == pytest.approx(0.048900510708061119567, rel=REL)
    assert exp_integral_e1(10.0) == pytest.approx(4.1569689296853242774e-6, rel=REL)


def test_exp_integral_e1_scaled_frozen_values():
    # e^x E1(x) stays representable far beyond the plain overflow point
    assert exp_integral_e1(0.2995732273553991, scaled=True) == pytest.approx(
        1.2234372562888019651, rel=REL)
    assert exp_integral_e1(10.0, scaled=True) == pytest.approx(
        0.091563333939788081876, rel=REL)
    assert exp_integral_e1(1000.0, scaled=True) == pytest.approx(
        0.000999001994023880715, rel=REL)


# (x, E1(x), e^x E1(x)) from mpmath at 40 digits, rounded to 20. The three
# points on (1, 5] are where the former Lentz continued fraction erred by
# 8.7e-15 to 1.1e-14 relative; 500 is the end of the e^x * exp1(x) branch.
E1_MPMATH = [
    (1.051, 0.20153986425046537205, 0.57650683708937186995),
    (1.158, 0.1693690360314131681, 0.53919645196420533826),
    (1.289, 0.13777960994593100853, 0.500023640932333238),
    (4.5, 0.0020734007547146144329, 0.18664158797574647004),
    (np.nextafter(500.0, 0.0), 1.4220767822537194192e-220,
     0.0019960159047604111165),
    (500.0, 1.4220767822536384221e-220, 0.00199601590476041089),
    (np.nextafter(500.0, np.inf), 1.422076782253557425e-220,
     0.0019960159047604106636),
    (1e3, 0.0, 0.000999001994023880715),   # E1 underflows past x ~ 745
    (1e8, 0.0, 9.999999900000002e-9),
    (1e300, 0.0, 9.999999999999999475e-301),
]


@pytest.mark.parametrize("x, e1, scaled_e1", E1_MPMATH)
def test_exp_integral_e1_matches_40_digit_mpmath(x, e1, scaled_e1):
    assert exp_integral_e1(x) == pytest.approx(e1, rel=4e-15, abs=0)
    assert exp_integral_e1(x, scaled=True) == pytest.approx(scaled_e1, rel=4e-15,
                                                            abs=0)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8))
@example(xs=[np.nextafter(500.0, 0.0), 500.0, np.nextafter(500.0, np.inf)])
@example(xs=[1e-300, 1.0, 1e300])
def test_exp_integral_e1_bounds_cutoff_and_array_form(xs):
    cut = special_functions._E1_SCALED_CUTOFF
    x = np.asarray(xs)
    scaled = exp_integral_e1(x, scaled=True)
    plain = exp_integral_e1(x)
    assert np.array_equal(scaled, [exp_integral_e1(v, scaled=True) for v in xs])
    assert np.array_equal(plain, [exp_integral_e1(v) for v in xs])
    # 1/(x+1) < e^x E1(x) < 1/x; past x ~ 1e8 the gap is below rounding
    # and the value may equal either end
    assert np.all((1.0 / (x + 1.0) <= scaled) & (scaled <= 1.0 / x))
    strict = x < 1e6
    assert np.all((1.0 / (x[strict] + 1.0) < scaled[strict])
                  & (scaled[strict] < 1.0 / x[strict]))
    # the two branches meet without a step up: every value at or below the
    # cutoff is at least the first value above it, and vice versa
    above = exp_integral_e1(np.nextafter(cut, np.inf), scaled=True)
    at = exp_integral_e1(cut, scaled=True)
    low = x <= cut
    assert np.all(scaled[low] >= above) and np.all(scaled[~low] <= at)


def _mpmath_e1(xs):
    """(E1, e^x E1, e^x E1 + ln min(x, 1)) at each x, from 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e1 = [mpmath.e1(mpmath.mpf(float(x))) for x in xs]
        scaled = [mpmath.exp(mpmath.mpf(float(x))) * v for x, v in zip(xs, e1)]
        logged = [v + mpmath.log(min(mpmath.mpf(float(x)), 1)) for x, v in zip(xs, scaled)]
        return [np.array([float(v) for v in vals]) for vals in (e1, scaled, logged)]


# log-spaced over the range, densely where the table's pieces change
# (below and around 1, at the table's top 40) and where e^-x underflows
E1_GRID = np.concatenate([np.geomspace(1e-300, 1e300, 2001), np.geomspace(1e-3, 800.0, 2000),
                          np.linspace(0.99, 1.01, 101), np.linspace(39.9, 40.1, 101)])


def test_exp_integral_e1_matches_mpmath_over_the_whole_range():
    # the bound _e1 states, on every point where E1 is a
    # normal float; the kernel measured 7.8e-16 (scipy's exp1 1.3e-15)
    e1, scaled, _ = _mpmath_e1(E1_GRID)
    normal = e1 >= np.finfo(float).tiny
    assert normal.sum() >= 2000
    assert np.max(np.abs(exp_integral_e1(E1_GRID[normal]) / e1[normal] - 1.0)) <= 1.6e-15
    assert np.max(np.abs(exp_integral_e1(E1_GRID, scaled=True) / scaled - 1.0)) <= 1.6e-15


def test_scaled_e1_plus_log_needs_no_cancellation():
    # e^x E1(x) + ln min(x, 1) tends to -gamma at 0, where e^x E1(x) and
    # -ln x cancel: the table's E1(x) + ln x keeps it to rounding
    xs = np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(0.5, 1.5, 101)])
    *_, logged = _mpmath_e1(xs)
    got = special_functions._scaled_e1_log(xs)
    assert np.max(np.abs(got - logged) / np.maximum(np.abs(logged), 1e-300)) <= 2e-15
    assert np.array_equal(got, [special_functions._scaled_e1_log(x) for x in xs])


def test_exp_integral_e1_long_arrays_equal_their_scalar_calls():
    # arrays longer than _E1_SHORT take numpy's path, shorter ones and
    # scalars the Python one: both run the same operations
    rng = np.random.default_rng(5)
    x = np.concatenate([10.0 ** rng.uniform(-300, 300, 400), rng.uniform(0.0, 2.0, 400),
                        rng.uniform(30.0, 50.0, 200), [1.0, 40.0, np.nextafter(40.0, 50.0)]])
    assert x.size > special_functions._E1_SHORT
    for scaled in (False, True):
        assert np.array_equal(exp_integral_e1(x, scaled), [exp_integral_e1(v, scaled) for v in x])
    assert exp_integral_e1(x[:1000].reshape(2, -1)).shape == (2, 500)


def test_exp_integral_e1_agrees_with_scipy():
    # where scipy is installed (the test extra), its exp1 is a second
    # reference: within 2e-15 relative wherever E1 is a normal float
    sp = pytest.importorskip("scipy.special")
    e1 = sp.exp1(E1_GRID)
    normal = e1 >= np.finfo(float).tiny
    assert np.max(np.abs(exp_integral_e1(E1_GRID[normal]) / e1[normal] - 1.0)) <= 2e-15


def test_exp_integral_e1_small_x_log_singularity():
    # E1(x) = -gamma - ln x + x + O(x^2)
    x = 1e-9
    expect = -np.euler_gamma - math.log(x) + x
    assert exp_integral_e1(x) == pytest.approx(expect, rel=1e-10)


def test_exp_integral_e1_scaled_consistent_with_plain():
    for x in [0.3, 1.0, 5.0, 30.0]:
        plain = exp_integral_e1(x)
        scaled = exp_integral_e1(x, scaled=True)
        assert scaled == pytest.approx(math.exp(x) * plain, rel=1e-12)


def test_exp_integral_e1_bracketing_bound():
    # classic inequality: e^-x/(x+1) < E1(x) < e^-x/x for x > 0
    for x in [0.1, 0.7, 1.0, 3.0, 12.0, 80.0]:
        s = exp_integral_e1(x, scaled=True)
        assert 1.0 / (x + 1.0) < s < 1.0 / x


def test_exp_integral_e1_monotone_decreasing():
    xs = np.geomspace(1e-6, 50.0, 200)
    vals = np.array([exp_integral_e1(float(x)) for x in xs])
    assert np.all(np.diff(vals) < 0)


def test_exp_integral_e1_rejects_nonpositive():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-2.0)


def test_marcum_q1_frozen_values():
    assert marcum_q1(1.0, 1.0) == pytest.approx(0.732879803796820, rel=1e-11)
    assert marcum_q1(0.5, 2.0) == pytest.approx(0.169140638509467, rel=1e-11)
    assert marcum_q1(3.0, 1.0) == pytest.approx(0.989170550178452, rel=1e-11)
    assert marcum_q1(10.0, 12.0) == pytest.approx(0.025329474297941, rel=1e-11)


def test_marcum_q1_frozen_grid():
    # oracle grid over b in {0.5, 1, 2, 4}
    grid = {
        0.3: [0.887357692313, 0.619949783223, 0.147514103791, 0.000464530508],
        1.0: [0.926527397957, 0.732879803797, 0.269012060036, 0.002889532771],
        2.5: [0.993784228054, 0.966817120422, 0.767870274098, 0.090000997840],
    }
    bs = [0.5, 1.0, 2.0, 4.0]
    for a, expected in grid.items():
        for b, ref in zip(bs, expected):
            assert marcum_q1(a, b) == pytest.approx(ref, abs=5e-12)


def test_marcum_q1_degenerate_a_zero():
    # a = 0 collapses to the Rayleigh tail e^{-b^2/2}
    for b in [0.5, 1.0, 3.0]:
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-12)


def test_marcum_q1_degenerate_b_zero():
    for a in [0.0, 1.0, 7.0]:
        assert marcum_q1(a, 0.0) == 1.0


def test_marcum_q1_bounds_and_monotonicity():
    bs = np.linspace(0.0, 8.0, 81)
    vals = np.array([marcum_q1(1.5, float(b)) for b in bs])
    assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 0)  # decreasing in b
    as_ = np.linspace(0.0, 8.0, 81)
    vals_a = np.array([marcum_q1(float(a), 1.5) for a in as_])
    assert np.all(np.diff(vals_a) >= 0)  # increasing in a


def test_marcum_q1_extreme_noncentrality_no_underflow():
    # far above the scale where naive e^{-a^2/2} underflows
    v = marcum_q1(60.0, 50.0)
    assert 0.99 < v <= 1.0
    v2 = marcum_q1(50.0, 60.0)
    assert 0.0 < v2 < 0.01
    assert math.isfinite(marcum_q1(200.0, 200.0))


def test_marcum_q1_vectorized_matches_scalar():
    a = np.array([0.5, 1.0, 2.0])
    b = np.array([1.0, 1.0, 3.0])
    vec = marcum_q1(a, b)
    for i in range(3):
        assert vec[i] == pytest.approx(marcum_q1(float(a[i]), float(b[i])), rel=1e-13)


def test_marcum_q1_rejects_negative():
    with pytest.raises(ValueError):
        marcum_q1(-0.1, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, -0.1)


def test_numerics_error_is_runtime_error():
    assert issubclass(NumericsError, RuntimeError)
