"""Ergodic capacity of the optimally powered link, with its low- and
high-budget limits.

capacity = E[ log(1 + P(states) * g_direct) ] in nats per channel use,
averaged over both links' fading, with P the policy from
power_allocation.solve_lambda. The cap table (_CapField) averages over
the cross state: expect splits each cell's rate at its crossing state so
every quadrature piece is smooth, saturated_mean takes the rate at the
cap alone. Above the crossings the cross state runs on one grid shared
by every direct-link cell (_CapField.shared_tail), so the cap and the
rates' shared powers are evaluated once per node, and each cell adds one
panel of its own from its crossing. The whole evaluation is repeated
with doubled panel counts until two levels agree, and the last change is
reported as the error estimate. With perfect knowledge of both links,
the integral over the cross state above the crossing has a closed form
in E1 (_CapField.rate_tail), so only the direct-link axis is a
quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fading import CsiLevel
from .power_allocation import (
    PowerPolicy,
    ScenarioConfig,
    _bisect,
    _cap_field,
    _exponential_rate,
    _sl_grid,
    solve_lambda,
)
from .quadrature import _refine

__all__ = [
    "CapacityResult",
    "ergodic_capacity",
    "low_budget_asymptote",
    "high_budget_asymptote",
]


@dataclass(frozen=True)
class CapacityResult:
    """Capacity in nats/use plus the solve diagnostics behind it.

    quadrature_error_estimate is the change in the value under the last
    panel doubling; if refinement stopped without meeting quad_rel_tol the
    estimate is carried honestly (it will simply be larger).
    """

    capacity: float
    lam: float
    p_avg_star: float
    regime: str
    quadrature_error_estimate: float


def _capacity_at(policy: PowerPolicy, panels: int) -> float:
    """The capacity at one panel count. At saturation E[log(1 + cap g)]
    for the marginal direct gain g: the policy ignores the direct link."""
    capf = policy._capf
    if policy.regime == "saturated":
        return capf.saturated_mean(_exponential_rate, panels)
    sl, A = policy._grid(panels)
    if capf.level is CsiLevel.PERFECT and sl.csi.level is CsiLevel.PERFECT:
        # the cross state integrates in closed form at each cell's gain
        def tail(t_star, rows):
            return capf.rate_tail(t_star, sl.state[rows])
    else:
        tail = functools.partial(capf.shared_tail, sums=sl.rate_sums, panels=panels)
    return float(sl.w @ capf.expect(A, sl.rate_cells, tail))


def ergodic_capacity(config: ScenarioConfig) -> CapacityResult:
    """Solve the policy for config and integrate its ergodic capacity."""
    return _capacity_of(solve_lambda(config))


def _capacity_of(policy: PowerPolicy) -> CapacityResult:
    """Integrate the ergodic capacity of an already solved policy."""
    val, err = _refine(lambda p: _capacity_at(policy, p), policy.config.numerics)
    return CapacityResult(capacity=val, lam=policy.lam,
                          p_avg_star=policy.p_avg_star, regime=policy.regime,
                          quadrature_error_estimate=err)


def low_budget_asymptote(config: ScenarioConfig) -> float:
    """Capacity with the interference constraint dropped.

    As p_avg -> 0 the budget component shrinks below any fixed cap, so
    the capped capacity approaches this value from below. With no
    direct-link knowledge this is the constant-power rate at p_avg, in
    closed form.
    """
    if config.sl_csi.level is CsiLevel.NONE:
        return float(_exponential_rate(config.p_avg))
    ns = config.numerics

    def evaluate(panels: int) -> float:
        # budget equation without the cap: E[component(lam)] = p_avg;
        # the grid's edge tracks the kink
        def spent(lam: float) -> float:
            sl, A = _sl_grid(config.sl_csi, ns, panels, lam)
            return float(sl.w @ A)

        lam = _bisect(spent, config.p_avg, 1e-12, 1.0, 1e-9, "capless multiplier")
        sl, A = _sl_grid(config.sl_csi, ns, panels, lam)
        return float(sl.w @ sl.rate_cells(A))

    return _refine(evaluate, ns)[0]


def high_budget_asymptote(config: ScenarioConfig) -> float:
    """The saturated-regime capacity: the plateau above the threshold.

    For finite-threshold scenarios this is exactly the capacity at any
    p_avg >= average_power_threshold(config); under perfect cross-link
    knowledge (infinite threshold) it is the p_avg -> infinity limit.
    """
    ns = config.numerics
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)
    return _refine(lambda p: capf.saturated_mean(_exponential_rate, p), ns)[0]

