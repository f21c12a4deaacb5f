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
    here (conditional_power_inv_cdf); power_allocation reaches the law
    through its moment generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .special_functions import NumericsError

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


_TAIL_BLOCK = 2 ** 14      # nodes per block of rows in _marcum_q1: its temporaries stay in cache
_TAIL_DIGITS = 36.0        # _marcum_q1's target: e^-36 = 2.3e-16 of Q1
_NEAR_GAP = 0.25           # |b - a| below which _marcum_q1 takes out the poles
_HALLEY_STEPS = 20
_HALLEY_DONE = 2.0 ** -20  # a step this small (relative to max(b, 1), or in ln b) is the last


# ----------------------------------------------------------------------
# marginal law of the true power: Exp(1)

def marginal_power_pdf(g):
    g = np.asarray(g, dtype=float)
    out = np.where(g >= 0.0, np.exp(-np.maximum(g, 0.0)), 0.0)
    return out if out.ndim else float(out)


def marginal_power_cdf(g):
    g = np.asarray(g, dtype=float)
    out = np.where(g >= 0.0, -np.expm1(-np.maximum(g, 0.0)), 0.0)
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

def _marcum_q1(a, b, log_eps, digits=_TAIL_DIGITS, lower=False):
    """Q1(a, b), or 1 - Q1(a, b) when lower, near e^log_eps, W =
    e^{-(a^2+b^2)/2} I0(ab) = -dQ1/db / b and dW/db, per element: Simon and
    Alouini's integral for Q1 (Proc. IEEE 86(9), 1998) without
    cancellation, its poles taken out where |b - a| < _NEAR_GAP, by a
    trapezoid rule whose step and reach keep its error below
    e^-(digits - log_eps) of the tail (README, Numerical design)."""
    gap = b - a
    big = np.maximum(a, b)
    zeta, delta, ab = np.minimum(a, b) / big, np.abs(gap) / big, a * b
    L = digits - log_eps
    # 1 - Q1 for b below a with ab < 1 and zeta < 1/2, where e^-X is nearly
    # flat and the poles lie off the axis: over a full turn, poles kept
    flat = lower & (gap < 0.0) & (ab < 1.0) & (zeta < 0.5)
    near = (np.abs(gap) < _NEAR_GAP) & ~flat
    with np.errstate(divide="ignore"):
        reach = np.where(near | flat, np.pi, 2.0 * np.arcsin(np.sqrt(np.minimum(L / (2.0 * ab), 1.0))))
        pole = np.where(near, np.inf, 4.0 * np.pi / L * np.arcsinh(delta / (2.0 * np.sqrt(zeta))))
        step = np.minimum(np.minimum(2.0 * np.pi / (2.0 + 1.05 * np.sqrt(2.0 * L * (ab + 0.25 * L))), pole), reach)
    nodes = int(np.ceil(np.max(reach / step))) + 1
    weights = np.r_[1.0, np.full(nodes - 2, 2.0), 1.0] / (2.0 * np.pi)
    h = reach / (nodes - 1)
    sigma = np.where(gap >= 0.0, 1.0, -1.0)
    c = sigma * delta * (1.0 - 0.5 * delta)
    # 1/2 + c/D = (2 zeta s^2 + c_low)/D, with c_low = -zeta delta below a: the
    # lower tail's form, whose terms do not cancel as zeta -> 0
    c_low = sigma * delta * np.where(gap >= 0.0, 1.0, zeta)
    d2 = delta * delta + (delta == 0.0)       # c = 0 there: keeps 0 / 0 out of node 0
    sums = np.empty((3,) + a.shape)           # of e^-X (1/2 + c/D) (less the poles), e^-X, s^2 e^-X
    rows = max(1, _TAIL_BLOCK // nodes)
    for i in range(0, a.size, rows):
        r = slice(i, i + rows)
        s2 = np.sin(0.5 * h[r, None] * np.arange(nodes)) ** 2
        x = 0.5 * gap[r, None] ** 2 + (2.0 * ab[r, None]) * s2
        e = np.exp(-x)
        D = d2[r, None] + (4.0 * zeta[r, None]) * s2
        if lower:
            # 1 - Q1 is [b >= a] (1 - K) - (1/2pi) int (e^-X - K)(1/2 + c/D) for
            # any constant K: 1 near a, e^-X at phi = 0 where flat, else 0
            less_k = np.where(near[r, None], np.expm1(-x), np.where(
                flat[r, None], np.exp(-0.5 * gap[r, None] ** 2) * np.expm1(-(2.0 * ab[r, None]) * s2), e))
            f = (2.0 * zeta[r, None] * s2 + c_low[r, None]) / D * less_k
        else:
            pole_free = np.where(near[r, None], np.expm1(-x), e) if near[r].any() else e
            f = 0.5 * e + c[r, None] / D * pole_free
        sums[0, r], sums[1, r], sums[2, r] = f @ weights, e @ weights, (e * s2) @ weights
    q, w, w_s = h * sums
    tail = ((gap >= 0.0) & ~near) - q if lower else (gap < 0.0) + 0.5 * sigma * near + q
    return tail, w, -(gap * w + 2.0 * a * w_s)


def _quantile_b(a, tail, lower):
    """b with Q1(a, b) = tail, or 1 - Q1(a, b) = tail when lower, by
    Halley's method on the log of that tail from a normal approximation:
    in b, or in ln b when lower, where the tail goes like b^2 as b -> 0."""
    log_tail = np.log(tail)
    t = np.sqrt(-2.0 * (np.log1p(-tail) if lower else log_tail))
    u = np.sqrt(-2.0 * np.log(np.minimum(tail, 1.0 - tail)))
    z = (-1.0 if lower else np.sign(0.5 - tail)) * (
        u - (2.515517 + 0.802853 * u + 0.010328 * u * u)
        / (1.0 + u * (1.432788 + u * (0.189269 + 0.001308 * u))))
    b = np.maximum(a + z + (t - z) / (1.0 + 2.0 * a * (t - z)), 0.5 * t)
    for k in range(_HALLEY_STEPS):
        q, w, w_b = _marcum_q1(a, b, log_tail, _TAIL_DIGITS if k else 0.5 * _TAIL_DIGITS, lower)
        f = np.log(q) - log_tail
        if lower:   # d(1 - Q1)/db = b W, so the derivatives in ln b
            f1 = b * b * w / q
            f2 = f1 * (2.0 - f1) + b ** 3 * w_b / q
        else:
            f1 = -b * w / q
            f2 = -(w + b * w_b) / q - f1 * f1
        step = -f / (f1 - 0.5 * f * f2 / f1)
        b = b * np.exp(np.maximum(step, -np.log(2.0))) if lower else np.maximum(b + step, 0.5 * b)
        if k and np.all(np.abs(step) <= _HALLEY_DONE * (1.0 if lower else np.maximum(b, 1.0))):
            return b
    raise NumericsError(f"conditional quantile took over {_HALLEY_STEPS} Halley steps")


def conditional_power_inv_cdf(p, m, alpha: float):
    """Quantile of the conditional true-power law: g with 1 - Q1(a, b) = p,
    a = sqrt(2m/alpha), b = sqrt(2g/alpha), to a tail mass within 1e-12 of
    p or 1 - p, whichever is smaller, relative (README, Numerical design):
    levels below 1/2 solve on 1 - Q1, the others on Q1 = 1 - p. Vectorized
    over p and m (broadcast together)."""
    alpha = _check_alpha(alpha)
    p_arr, m_arr = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(m, dtype=float))
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("quantile level must lie strictly between 0 and 1")
    if np.any(m_arr < 0.0):
        raise ValueError("estimate power must be nonnegative")
    p_flat = p_arr.ravel()
    a = np.sqrt(2.0 * m_arr.ravel() / alpha)
    b = np.empty_like(a)
    for lower in (False, True):
        rows = (p_flat < 0.5) == lower
        if rows.any():
            b[rows] = _quantile_b(a[rows], p_flat[rows] if lower else 1.0 - p_flat[rows], lower)
    out = (0.5 * alpha * b * b).reshape(p_arr.shape)
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# joint sampler

def sample_channel_pair(csi: CsiKnowledge, rng: np.random.Generator,
                        n: int) -> ChannelDraw:
    """Draw n iid (estimate power, true power) pairs for one link.

    The draw order is fixed so a given generator state always yields the
    same pairs: estimate real, estimate imag, error real, error imag.
    Perfect CSI returns gain == estimate; absent CSI returns zero
    estimates alongside Exp(1) gains (drawn through the same normal path
    to keep the stream layout identical across levels). The four normal
    arrays are the only ones made: the estimate and the gain are built in
    two of them, with the same operations in the same order as
    est_re^2 + est_im^2 and (est_re + err_re)^2 + (est_im + err_im)^2.
    """
    alpha = csi.error_variance
    s_est = np.sqrt(max(1.0 - alpha, 0.0) / 2.0)
    s_err = np.sqrt(max(alpha, 0.0) / 2.0)
    est_re, est_im, err_re, err_im = (rng.standard_normal(n) for _ in range(4))
    est_re *= s_est
    est_im *= s_est
    err_re *= s_err
    err_im *= s_err
    re = np.add(est_re, err_re, out=err_re)
    im = np.add(est_im, err_im, out=err_im)
    estimate = np.multiply(est_re, est_re, out=est_re)
    estimate += np.multiply(est_im, est_im, out=est_im)
    gain = np.multiply(re, re, out=re)
    gain += np.multiply(im, im, out=im)
    return ChannelDraw(estimate=estimate, gain=gain)
