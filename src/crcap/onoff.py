"""Threshold on-off transmission: a one-bit-of-adaptation baseline.

The transmitter stays silent while the direct gain is below a threshold
tau and otherwise sends at a fixed on-level: the budget spread over the
on-time, p_avg / P(g >= tau) = p_avg * e^tau under Rayleigh fading,
clipped by the interference cap of the current cross-link state. The
threshold compares the true direct gain, so the scheme presumes perfect
direct-link knowledge; any cross-link knowledge level is allowed.

The burst rate has a closed form under Rayleigh fading:
  integral_tau^inf log(1 + P g) e^{-g} dg
    = e^{-tau} * (log(1 + P tau) + e^{tau + 1/P} E1(tau + 1/P))
evaluated through the scaled exponential integral so large 1/P and large
tau never overflow (power_allocation._exponential_rate, which at tau = 0
is also the rate without direct-link knowledge).

The cross-link average splits at the crossing state (_CapField.expect).
Above it a perfectly known cross link integrates in closed form
(_CapField.burst_tail), an estimated one by a quadrature refined per
threshold (_CapField.tail_sum); either way each element of an array
call equals its scalar call bit for bit.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .fading import CsiLevel, marginal_power_quantile
from .power_allocation import ScenarioConfig, _cap_field, _exponential_rate
from .quadrature import _refine
from .special_functions import NumericsError

__all__ = ["onoff_rate", "optimize_threshold"]

_SCAN_POINTS = 64
# thresholds per array onoff_rate call of the scan: the quadrature's
# thresholds x nodes temporaries stay at 16 x 320 elements at 16 panels
_SCAN_BLOCK = 16
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_POLISH_REL = 2.0 ** -26
_POLISH_STEPS = 100
_POLISH_FLAT = 2.0 ** -51   # relative rise of f that rounding alone can make


def _require_perfect_direct(config: ScenarioConfig):
    if config.sl_csi.level is not CsiLevel.PERFECT:
        raise ValueError(
            "the on-off scheme thresholds the true direct gain and needs "
            "perfect direct-link knowledge; got "
            f"{config.sl_csi.describe()}"
        )


def onoff_rate(tau, config: ScenarioConfig):
    """Ergodic rate of the on-off rule at threshold tau, in nats/use.

    tau is a scalar (the rate comes back as a float) or a 1-D array of
    finite nonnegative thresholds (an array of rates, each equal to its
    own scalar call); a rate whose e^{-tau} underflows is 0 or
    subnormal. The direct-link average is closed form, and so is the
    cross-link average under perfect knowledge; an estimated cross link
    refines its quadrature per threshold until two panel levels agree.
    """
    _require_perfect_direct(config)
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError("thresholds must be a scalar or a 1-D array")
    if not np.all((taus >= 0.0) & (taus < np.inf)):
        raise ValueError("threshold must be finite and nonnegative")
    t = np.minimum(np.atleast_1d(taus), 746.0)   # e^-tau, and so the rate, is 0 past 745.2
    ns = config.numerics
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)

    def burst(P, rows):
        return _exponential_rate(P, t[rows] if np.ndim(P) == 1 else t[rows, None])

    def tail(t_star, rows):
        if capf.level is CsiLevel.PERFECT:
            return capf.burst_tail(t_star, t[rows])
        return _refine(lambda panels: capf.tail_sum(t_star, rows, burst, panels), ns)[0]

    with np.errstate(over="ignore"):                # the budget may overflow to inf
        rates = capf.expect(config.p_avg * np.exp(t), burst, tail)
    return rates if taus.ndim else float(rates[0])


def _polish(f, seeds) -> Tuple[float, float]:
    """Maximum of f by Brent's localmin from three seeds, and f there.

    seeds are three (t, f(t)) pairs: the best (the first listed of equal
    ones) lies between the other two, which span the bracket [a, b]. The
    first step goes to the vertex of the parabola through the seeds;
    later steps are parabolic through the three best points, or
    golden-section where the parabola is not trusted (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5). The best point so far is kept, so the
    result is never below the best seed. Stops when the bracket is at
    most _POLISH_REL * max(1, b) wide: 2^-26, the square root of the
    double epsilon, below which a smooth maximum is flat to rounding
    (Brent's ch. 5 limit on a minimiser's tolerance), or sooner where f at
    both ends is within _POLISH_REL of f(x) and the parabola through the
    three rises above f(x) by at most _POLISH_FLAT of it: no step can then
    gain more than rounding. Raises NumericsError after _POLISH_STEPS
    steps without getting there.
    """
    (x, fx), (w, fw), (v, fv) = sorted(((t, -ft) for t, ft in seeds),
                                       key=lambda s: s[1])
    (a, fa), (b, fb) = sorted([(w, fw), (v, fv)])
    d = e = b - a                  # trusts a first parabolic step of up to (b - a) / 2
    for _ in range(_POLISH_STEPS):
        if b - a <= _POLISH_REL * max(1.0, b):
            return x, -fx
        if a < x < b and max(fa, fb) - fx <= _POLISH_REL * abs(fx):
            ra, rb = (fa - fx) / (a - x), (fb - fx) / (b - x)   # the parabola rises
            curv = (ra - rb) / (a - b)                            # slope(x)^2 / 4 curv
            if (ra - curv * (a - x)) ** 2 <= 4.0 * curv * _POLISH_FLAT * abs(fx):
                return x, -fx
        m = 0.5 * (a + b)
        tol = 0.25 * _POLISH_REL * max(1.0, abs(x))
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q                                   # parabolic step
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b - x) if x < m else (a - x)           # golden-section step
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -f(u)
        if fu <= fx:
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise NumericsError(f"threshold polish did not reach its bracket in "
                        f"{_POLISH_STEPS} steps")


def optimize_threshold(config: ScenarioConfig) -> Tuple[float, float]:
    """Best threshold and its rate: batched scan, then Brent's method.

    A scan of _SCAN_POINTS evenly spaced thresholds on [0, the 1 - 1e-8
    quantile of the direct gain], evaluated _SCAN_BLOCK at a time through
    array onoff_rate calls, guards against non-unimodal shapes. Under a
    constant cap c (no cross-link knowledge) the burst meets c at the
    kink tau_c = ln(c / p_avg), past which the rate falls; where the
    bracket reaches past it, tau_c replaces the scan points beyond it, so
    the search ends there and never crosses it. The best point and its
    two neighbours seed _polish, which stops at a bracket of 2^-26 *
    max(1, b). A best point at an end (0, the scan's last point or
    tau_c) is checked by one probe 2^-26 * max(1, end) inside: if the
    probe is no better the end and its rate come back, otherwise the
    end, the probe and the next point seed the polish.
    """
    _require_perfect_direct(config)
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon,
                      config.numerics)
    if capf.is_constant and config.p_avg >= capf.constant:
        # budget exceeds the constant cap: always-on at the cap is optimal
        return 0.0, onoff_rate(0.0, config)

    def f(t):
        return onoff_rate(t, config)

    t_max = marginal_power_quantile(1.0 - 1e-8)
    taus = np.linspace(0.0, t_max, _SCAN_POINTS)
    rates = np.concatenate([f(taus[i:i + _SCAN_BLOCK])
                            for i in range(0, _SCAN_POINTS, _SCAN_BLOCK)])
    k = int(np.argmax(rates))
    if capf.is_constant:
        tau_c = math.log(capf.constant / config.p_avg)
        if taus[min(k + 1, _SCAN_POINTS - 1)] > tau_c:
            below = taus < tau_c
            taus = np.append(taus[below], tau_c)
            rates = np.append(rates[below], f(tau_c))
            k = int(np.argmax(rates))
    lo = max(k - 1, 0)
    seeds = list(zip(taus[lo:k + 2].tolist(), rates[lo:k + 2].tolist()))
    if len(seeds) == 2:                            # the best point is an end
        end, inner = seeds if k == 0 else seeds[::-1]
        probe = end[0] + math.copysign(_POLISH_REL * max(1.0, end[0]),
                                       inner[0] - end[0])
        seeds = [(probe, f(probe)), end, inner]
        if seeds[0][1] <= end[1]:
            return end
    return _polish(f, seeds)
