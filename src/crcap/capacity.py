"""Ergodic capacity of the optimally powered link, with its low- and
high-budget limits and parameter sweeps.

capacity = E[ log(1 + P(states) * g_direct) ] in nats per channel use,
averaged over both links' fading, with P the policy from
power_allocation.solve_lambda. Expectations of min-of-two-components are
split at the crossing state so every quadrature piece is smooth; the
whole evaluation is repeated with doubled panel counts until two levels
agree, and the last change is reported as the error estimate. Under a
perfect cross link with a perfect or absent direct link, the integral
over the cross state above the crossing has a closed form in E1
(_CapField.rate_tail), so only the direct-link axis is a quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .fading import CsiLevel
from .power_allocation import (
    PowerPolicy,
    ScenarioConfig,
    _CapField,
    _cap_field,
    _expected_capped,
    _SlGrid,
    solve_lambda,
)
from .quadrature import _refine
from .special_functions import NumericsError, exp_integral_e1

__all__ = [
    "CapacityResult",
    "ergodic_capacity",
    "low_budget_asymptote",
    "high_budget_asymptote",
    "capacity_sweep",
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


def _saturated_rate(c):
    """E[log(1 + c * g)] for unit-mean exponential g: e^{1/c} E1(1/c).

    Closed form instead of a quadrature rule because the saturated cap is
    unbounded as the cross state vanishes, and log(1 + c*g) with huge c
    has a log singularity at g = 0 that defeats polynomial rules (a
    rule-based version carried a stubborn ~4e-8 bias here).
    """
    c = np.asarray(c, dtype=float)
    out = np.zeros_like(c)
    pos = c > 0.0
    if np.any(pos):
        out[pos] = exp_integral_e1(1.0 / c[pos], scaled=True)
    return out


def _saturated_value(capf: _CapField, panels: int) -> float:
    """E[log(1 + cap * g)] with g the marginal direct gain.

    Valid for any direct-link knowledge: at saturation the policy ignores
    the direct link, so the estimate layer integrates out.
    """
    if capf.is_constant:
        return float(_saturated_rate(np.array([capf.constant]))[0])
    t, wt = capf.full_rule(panels)
    return float(wt @ _saturated_rate(capf.cap(t)))


def _capacity_at(policy: PowerPolicy, panels: int) -> float:
    capf = policy._capf
    if policy.regime == "saturated":
        return _saturated_value(capf, panels)
    sl, A = policy._grid_at(panels)
    if capf.level is CsiLevel.PERFECT and sl.csi.level is not CsiLevel.ESTIMATED:
        # the cross state integrates in closed form; a cell's gains are its
        # state (perfect) or the marginal gain nodes of the one cell (none)
        t_star = capf.crossing_state(A)
        if sl.csi.level is CsiLevel.PERFECT:
            tail = capf.rate_tail(t_star, sl.state)
        else:
            tail = (sl._wg * capf.rate_tail(t_star[:, None], sl._g)).sum(axis=1)
        return float(sl.w @ (sl.rate_cells(A) * capf.cdf(t_star) + tail))
    return _expected_capped(A, sl.w, capf, panels, sl.rate_cells,
                            blocks=sl.rows_separable)


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
    direct-link knowledge this is the constant-power rate at p_avg.
    """
    ns = config.numerics
    sl_level = config.sl_csi.level

    def evaluate(panels: int) -> float:
        if sl_level is CsiLevel.NONE:
            # constant power on the marginal gain: exact closed form
            return float(_saturated_rate(np.array([config.p_avg]))[0])

        # budget equation without the cap: E[component(lam)] = p_avg;
        # the grid's edge tracks the kink
        def spent(lam: float):
            sl = _SlGrid(config.sl_csi, ns, panels, lam=lam)
            return sl.mean_budget_component(lam, config.p_avg), sl

        lo, hi = 1e-12, 1.0
        for _ in range(200):
            if spent(hi)[0] <= config.p_avg:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NumericsError("failed to bracket the capless multiplier")
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            e, sl = spent(lam)
            if abs(e - config.p_avg) <= config.p_avg * 1e-9:
                break
            if e > config.p_avg:
                lo = lam
            else:
                hi = lam
        else:
            raise NumericsError("capless multiplier bisection did not converge "
                                "in 200 steps")
        A = sl.budget_component(lam, config.p_avg)
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
    return _refine(lambda p: _saturated_value(capf, p), ns)[0]


def capacity_sweep(config: ScenarioConfig, param: str,
                   values: Sequence[float]) -> List[CapacityResult]:
    """Capacity along a one-parameter family of scenarios.

    param is one of p_avg, i_peak, epsilon, alpha_s, alpha_p. The alpha
    parameters reshape the corresponding knowledge level: 0 means perfect,
    1 means none, anything between is an estimate with that error
    variance.
    """
    return [ergodic_capacity(config.with_axis(param, float(v))) for v in values]
