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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fading import CsiLevel, marginal_power_quantile
from .power_allocation import (
    ScenarioConfig,
    _cap_field,
    _exponential_rate,
    interference_power_cap,
)
from .quadrature import _refine

__all__ = ["OnOffPolicy", "on_level", "onoff_rate", "optimize_threshold"]

_SCAN_POINTS = 64
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _require_perfect_direct(config: ScenarioConfig):
    if config.sl_csi.level is not CsiLevel.PERFECT:
        raise ValueError(
            "the on-off scheme thresholds the true direct gain and needs "
            "perfect direct-link knowledge; got "
            f"{config.sl_csi.describe()}"
        )


@dataclass(frozen=True)
class OnOffPolicy:
    """A solved on-off rule: threshold plus the state-dependent on-level."""

    tau: float
    config: ScenarioConfig

    def __post_init__(self):
        _require_perfect_direct(self.config)
        if self.tau < 0.0:
            raise ValueError("threshold must be nonnegative")

    # state kinds consumed by the simulator's interface guard
    @property
    def sl_state_kind(self) -> str:
        return "gain"

    @property
    def cl_state_kind(self) -> str:
        return self.config.cl_csi.state_kind

    def on_power(self, cl_state=None):
        """The burst power for the given cross-link states."""
        return on_level(self.tau, cl_state, self.config)

    def power(self, sl_state=None, cl_state=None):
        """Transmit power per sample: the on-level above tau, else 0."""
        if sl_state is None:
            raise ValueError("the on-off rule needs the true direct gain")
        g = np.asarray(sl_state, dtype=float)
        p_on = self.on_power(cl_state)
        out = np.where(g >= self.tau, p_on, 0.0)
        return out if out.ndim else float(out)


def on_level(tau: float, cl_state, config: ScenarioConfig):
    """Burst power at threshold tau: budget-over-on-time clipped by the cap.

    Vectorized over cl_state; cl_state may be None when the cross link is
    unknown (the cap is then a constant).
    """
    if tau < 0.0:
        raise ValueError("threshold must be nonnegative")
    budget = config.p_avg * float(np.exp(tau))
    cap = interference_power_cap(cl_state, config.cl_csi, config.i_peak,
                                 config.epsilon)
    return np.minimum(budget, cap) if np.ndim(cap) else min(budget, float(cap))


def onoff_rate(tau: float, config: ScenarioConfig) -> float:
    """Ergodic rate of the on-off rule at threshold tau, in nats/use.

    The direct-link average is closed form; the cross-link average uses
    the same split-at-the-crossing quadrature as the capacity integrals,
    refined until two panel resolutions agree.
    """
    _require_perfect_direct(config)
    if tau < 0.0:
        raise ValueError("threshold must be nonnegative")
    ns = config.numerics
    budget = config.p_avg * float(np.exp(tau))
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)
    if capf.is_constant:
        return float(_exponential_rate(min(budget, capf.constant), tau))
    t_star = np.atleast_1d(capf.crossing_state(budget))
    head = float(np.asarray(capf.cdf(t_star)).reshape(-1)[0]) \
        * float(_exponential_rate(budget, tau))

    def evaluate(panels: int) -> float:
        nodes, wt = capf.tail_rule(t_star, panels)
        return head + float((wt * _exponential_rate(capf.cap(nodes), tau)).sum())

    return _refine(evaluate, ns)[0]


def optimize_threshold(config: ScenarioConfig,
                       scan_points: int = _SCAN_POINTS) -> Tuple[float, float]:
    """Best threshold and its rate: coarse scan, then golden-section.

    The scan guards against non-unimodal shapes; golden-section then
    polishes inside the best scan bracket. The search interval is
    [0, the 1 - 1e-8 quantile of the direct gain].
    """
    _require_perfect_direct(config)
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon,
                      config.numerics)
    if capf.is_constant and config.p_avg >= capf.constant:
        # budget exceeds the constant cap: always-on at the cap is optimal
        return 0.0, onoff_rate(0.0, config)

    t_max = marginal_power_quantile(1.0 - 1e-8)
    taus = np.linspace(0.0, t_max, scan_points)
    rates = np.array([onoff_rate(t, config) for t in taus])
    k = int(np.argmax(rates))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, scan_points - 1)]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = onoff_rate(x1, config)
    f2 = onoff_rate(x2, config)
    for _ in range(80):
        if b - a <= 1e-10 * max(1.0, b):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = onoff_rate(x2, config)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = onoff_rate(x1, config)
    tau_star = 0.5 * (a + b)
    rate_star = onoff_rate(tau_star, config)
    # the scan maximum is a lower bound; keep it if polishing lost it
    if rates[k] > rate_star:
        tau_star, rate_star = float(taus[k]), float(rates[k])
    return float(tau_star), float(rate_star)
