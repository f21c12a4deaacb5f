"""Ergodic capacity of the optimally powered link, with its low- and
high-budget limits.

capacity = E[ log(1 + P(states) * g_direct) ] in nats per channel use,
averaged over both links' fading, with P the policy from
power_allocation.solve_lambda. Each panel count reads the rate of the
policy's level (_SlGrid.rate on the direct-link grid at lam): the cap
table (_CapField) averages over the cross state, expect splitting each
cell's rate at its crossing state so every quadrature piece is smooth.
Above the crossings the cross state runs on one grid shared by every
direct-link cell (_CapField.shared_tail), or, with perfect knowledge of
both links, in closed form in E1 (_CapField.rate_tail). saturated_mean
takes the rate at the cap alone. The whole evaluation is repeated with
doubled panel counts until two levels agree, and the last change is
reported as the error estimate. The low-budget limit is the same level
with the cap dropped, at the multiplier of the same search
(power_allocation._multiplier).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fading import CsiLevel
from .power_allocation import (
    PowerPolicy,
    ScenarioConfig,
    _cap_field,
    _exponential_rate,
    _multiplier,
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
    """The capacity at one panel count: the policy's level's rate, or at
    saturation E[log(1 + cap g)] for the marginal direct gain g."""
    if policy.regime == "saturated":
        return policy._capf.saturated_mean(panels)
    return policy._grid(panels).rate(policy._capf, panels)


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
        # the policy's search without the cap; each trial's grid starts at its kink
        lam = _multiplier(config, None, panels, 1e-9, "capless multiplier")
        return _sl_grid(config.sl_csi, ns, panels, lam).rate(None, panels)

    return _refine(evaluate, ns)[0]


def high_budget_asymptote(config: ScenarioConfig) -> float:
    """The saturated-regime capacity: the plateau above the threshold.

    For finite-threshold scenarios this is exactly the capacity at any
    p_avg >= average_power_threshold(config); under perfect cross-link
    knowledge (infinite threshold) it is the p_avg -> infinity limit.
    """
    ns = config.numerics
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)
    return _refine(capf.saturated_mean, ns)[0]

