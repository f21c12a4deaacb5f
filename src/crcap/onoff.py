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
_POLISH_REL = 1e-10
_POLISH_STEPS = 100


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


def _polish(f, a: float, b: float) -> Tuple[float, float]:
    """Maximum of f on [a, b] by Brent's localmin, and f there.

    Parabolic steps through the three best points, golden-section steps
    where the parabola is not trusted (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5). Stops when the bracket is at most
    _POLISH_REL * max(1, b) wide; raises NumericsError after
    _POLISH_STEPS steps without getting there.
    """
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    for _ in range(_POLISH_STEPS):
        if b - a <= _POLISH_REL * max(1.0, b):
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
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise NumericsError(f"threshold polish did not reach its bracket in "
                        f"{_POLISH_STEPS} steps")


def optimize_threshold(config: ScenarioConfig) -> Tuple[float, float]:
    """Best threshold and its rate: batched scan, then Brent's method.

    The search interval is [0, the 1 - 1e-8 quantile of the direct gain].
    A scan of _SCAN_POINTS evenly spaced thresholds, evaluated
    _SCAN_BLOCK at a time through array onoff_rate calls, guards against
    non-unimodal shapes; Brent's localmin then polishes inside the
    bracket around the best scan point until the bracket [a, b] is at
    most 1e-10 * max(1, b) wide, and its best point and rate come back.
    If the polish ends below the scan maximum, the scan maximum is kept.
    """
    _require_perfect_direct(config)
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon,
                      config.numerics)
    if capf.is_constant and config.p_avg >= capf.constant:
        # budget exceeds the constant cap: always-on at the cap is optimal
        return 0.0, onoff_rate(0.0, config)

    t_max = marginal_power_quantile(1.0 - 1e-8)
    taus = np.linspace(0.0, t_max, _SCAN_POINTS)
    rates = np.concatenate([onoff_rate(taus[i:i + _SCAN_BLOCK], config)
                            for i in range(0, _SCAN_POINTS, _SCAN_BLOCK)])
    k = int(np.argmax(rates))
    lo = float(taus[max(k - 1, 0)])
    hi = float(taus[min(k + 1, _SCAN_POINTS - 1)])
    tau_star, rate_star = _polish(lambda t: onoff_rate(t, config), lo, hi)
    # the scan maximum is a lower bound; keep it if polishing lost it
    if rates[k] > rate_star:
        tau_star, rate_star = float(taus[k]), float(rates[k])
    return float(tau_star), float(rate_star)
