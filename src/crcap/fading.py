"""Rayleigh fading with MMSE channel estimation.

Both links fade independently with unit-mean exponential power gains and
unit noise power. The transmitter may know a link perfectly, not at all,
or through an MMSE estimate whose error variance alpha in (0, 1) splits
the complex gain h = h_est + h_err with h_est ~ CN(0, 1 - alpha) and
h_err ~ CN(0, alpha) independent.

Three power-gain laws follow:
  * marginal true power  g = |h|^2            ~ Exp(mean 1)
  * estimate power       m = |h_est|^2        ~ Exp(mean 1 - alpha)
  * conditional true power given the estimate ~ noncentral chi-square
    with 2 degrees of freedom: density
      f(g | m) = (1/alpha) exp(-(g + m)/alpha) I0(2 sqrt(m g)/alpha)
    with mean m + alpha and cdf 1 - Q1(sqrt(2m/alpha), sqrt(2g/alpha)),
    Q1 the first-order Marcum function. Only its quantile is evaluated
    here (conditional_power_inv_cdf, through scipy's chndtrix);
    power_allocation reaches the law through its moment generating
    function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.special import chndtrix

__all__ = [
    "CsiLevel",
    "CsiKnowledge",
    "ChannelDraw",
    "marginal_power_pdf",
    "marginal_power_cdf",
    "marginal_power_quantile",
    "estimate_power_quantile",
    "conditional_power_inv_cdf",
    "sample_channel_pair",
]


class CsiLevel(Enum):
    """How much the transmitter knows about one link's instantaneous state."""

    NONE = "none"
    PERFECT = "perfect"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class CsiKnowledge:
    """Transmitter-side knowledge of a single link.

    alpha is the MMSE error variance and is only meaningful (and required)
    at the ESTIMATED level. The limits are represented by the other two
    levels rather than by alpha = 0 or alpha = 1.
    """

    level: CsiLevel
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.level is CsiLevel.ESTIMATED:
            if self.alpha is None or not (0.0 < float(self.alpha) < 1.0):
                raise ValueError("estimated CSI requires 0 < alpha < 1")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.alpha is not None:
            raise ValueError(f"{self.level.value} CSI does not take an alpha")

    @classmethod
    def perfect(cls) -> "CsiKnowledge":
        return cls(CsiLevel.PERFECT)

    @classmethod
    def no_csi(cls) -> "CsiKnowledge":
        return cls(CsiLevel.NONE)

    @classmethod
    def estimated(cls, alpha: float) -> "CsiKnowledge":
        return cls(CsiLevel.ESTIMATED, float(alpha))

    @classmethod
    def from_alpha(cls, alpha: float) -> "CsiKnowledge":
        """Knowledge with MMSE error variance alpha.

        0 or less is perfect, 1 or more is none, anything between is an
        estimate.
        """
        if alpha <= 0.0:
            return cls.perfect()
        if alpha >= 1.0:
            return cls.no_csi()
        return cls.estimated(alpha)

    @property
    def error_variance(self) -> float:
        """MMSE error variance implied by the level (1 none, 0 perfect)."""
        if self.level is CsiLevel.NONE:
            return 1.0
        if self.level is CsiLevel.PERFECT:
            return 0.0
        return float(self.alpha)

    @property
    def state_kind(self) -> str:
        """Which state of the link the transmitter reads: gain, estimate or none.

        The true gain under perfect knowledge, the estimate power under
        estimated knowledge, nothing without knowledge.
        """
        if self.level is CsiLevel.NONE:
            return "none"
        return "gain" if self.level is CsiLevel.PERFECT else "estimate"

    def describe(self) -> str:
        if self.level is CsiLevel.ESTIMATED:
            return f"estimated(alpha={self.alpha:g})"
        return self.level.value


@dataclass(frozen=True)
class ChannelDraw:
    """Paired Monte Carlo draw of estimate powers and true powers for one link."""

    estimate: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        if self.estimate.shape != self.gain.shape:
            raise ValueError("estimate and gain arrays must share a shape")


# ----------------------------------------------------------------------
# marginal law of the true power: Exp(1)

def marginal_power_pdf(g):
    g = np.asarray(g, dtype=float)
    out = np.where(g >= 0.0, np.exp(-np.clip(g, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def marginal_power_cdf(g):
    g = np.asarray(g, dtype=float)
    out = np.where(g >= 0.0, -np.expm1(-np.clip(g, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def marginal_power_quantile(p):
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p >= 1.0)):
        raise ValueError("quantile level must lie in [0, 1)")
    out = -np.log1p(-p)
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# law of the estimate power: Exp(1 - alpha)

def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


def estimate_power_quantile(p, alpha: float):
    alpha = _check_alpha(alpha)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p >= 1.0)):
        raise ValueError("quantile level must lie in [0, 1)")
    out = -(1.0 - alpha) * np.log1p(-p)
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# conditional law of the true power given the estimate power

def conditional_power_inv_cdf(p, m, alpha: float):
    """Quantile of the conditional true-power law.

    Given m, 2g/alpha is noncentral chi-square with 2 degrees of freedom
    and noncentrality 2m/alpha, so the quantile is alpha/2 times scipy's
    inverse of that cdf (chndtrix). At tail levels 1 - p near 1e-6 the
    cdf residual at the result is about 1e-13, so the tail mass above
    the quantile is right to about 1e-7 of itself. Vectorized over p and
    m (broadcast together).
    """
    alpha = _check_alpha(alpha)
    p_arr = np.asarray(p, dtype=float)
    m_arr = np.asarray(m, dtype=float)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("quantile level must lie strictly between 0 and 1")
    if np.any(m_arr < 0.0):
        raise ValueError("estimate power must be nonnegative")
    out = 0.5 * alpha * chndtrix(p_arr, 2.0, 2.0 * m_arr / alpha)
    return out if np.ndim(out) else float(out)


# ----------------------------------------------------------------------
# joint sampler

def sample_channel_pair(csi: CsiKnowledge, rng: np.random.Generator,
                        n: int) -> ChannelDraw:
    """Draw n iid (estimate power, true power) pairs for one link.

    The draw order is fixed so a given generator state always yields the
    same pairs: estimate real, estimate imag, error real, error imag.
    Perfect CSI returns gain == estimate; absent CSI returns zero
    estimates alongside Exp(1) gains (drawn through the same normal path
    to keep the stream layout identical across levels).
    """
    alpha = csi.error_variance
    s_est = np.sqrt(max(1.0 - alpha, 0.0) / 2.0)
    s_err = np.sqrt(max(alpha, 0.0) / 2.0)
    est_re = rng.normal(0.0, 1.0, size=n) * s_est
    est_im = rng.normal(0.0, 1.0, size=n) * s_est
    err_re = rng.normal(0.0, 1.0, size=n) * s_err
    err_im = rng.normal(0.0, 1.0, size=n) * s_err
    estimate = est_re * est_re + est_im * est_im
    re = est_re + err_re
    im = est_im + err_im
    gain = re * re + im * im
    return ChannelDraw(estimate=estimate, gain=gain)
