"""Ergodic capacity of an underlay spectrum-sharing link.

A secondary transmitter reuses a primary user's band subject to two
constraints: a long-run average transmit-power budget and a cap on the
probability that its interference at the primary receiver exceeds a
peak level. This package computes the optimal power-control policy and
the resulting ergodic capacity for every combination of channel
knowledge at the secondary (perfect, MMSE-estimated, or absent, on the
direct link and on the cross link independently), plus a simpler on-off
transmission scheme, closed-form low/high-budget capacity limits, and a
Monte Carlo simulator that serves as an independent check on all of it.

Everything works in linear units and nats per channel use; the command
line front end converts dB at its boundary.
"""

from .special_functions import NumericsError, exp_integral_e1
from .quadrature import panel_rule, panel_rule_batch
from .fading import (
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
from .power_allocation import (
    NumericSettings,
    PowerPolicy,
    ScenarioConfig,
    average_power_threshold,
    solve_lambda,
)
from .capacity import (
    CapacityResult,
    ergodic_capacity,
    high_budget_asymptote,
    low_budget_asymptote,
)
from .onoff import onoff_rate, optimize_threshold
from .monte_carlo import OutageBin, SimReport, simulate_policy, verify_outage

__version__ = "0.1.0"

__all__ = [
    "NumericsError",
    "exp_integral_e1",
    "panel_rule",
    "panel_rule_batch",
    "ChannelDraw",
    "CsiKnowledge",
    "CsiLevel",
    "conditional_power_inv_cdf",
    "estimate_power_quantile",
    "marginal_power_cdf",
    "marginal_power_pdf",
    "marginal_power_quantile",
    "sample_channel_pair",
    "NumericSettings",
    "PowerPolicy",
    "ScenarioConfig",
    "average_power_threshold",
    "solve_lambda",
    "CapacityResult",
    "ergodic_capacity",
    "high_budget_asymptote",
    "low_budget_asymptote",
    "onoff_rate",
    "optimize_threshold",
    "OutageBin",
    "SimReport",
    "simulate_policy",
    "verify_outage",
    "__version__",
]
