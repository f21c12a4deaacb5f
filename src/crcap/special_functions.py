"""Numerically stable special functions for the fading and capacity code:
scalars or numpy arrays, finite over the argument ranges the engine
produces."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NumericsError",
    "exp_integral_e1",
]

# top of the polynomial table; above it the continued fraction at eight
# levels is within 2.2e-16 relative (from x = 32 on)
_E1_SCALED_CUTOFF = 40.0
_E1_TERMS = 12        # coefficients per polynomial piece, eight pieces per octave
_E1_LOW = 2.0 ** -53  # start of the lowest octave; below it E1 + ln x is -gamma
_E1_OFFSET = 8 * 51   # 16 m + 8 e + _E1_OFFSET (frexp m, e) counts pieces from _E1_LOW
_E1_SHORT = 8         # arrays this short are summed element by element in Python


class NumericsError(RuntimeError):
    """A numerical routine failed to converge within its iteration budget."""


def _e1_fraction(x, levels):
    """e^x E1(x) = 1/(x+ 1/(1+ 1/(x+ 2/(1+ 2/(x+ ...))))), summed from
    `levels` back up: exact to rounding from x = 32 at 8, from 1 at 120."""
    t = 0.0 * x
    for k in range(levels, 0, -1):
        t = k / (1.0 + k / (x + t))
    return 1.0 / (x + t)


def _e1_table():
    """Coefficients [power 11, 10], ..., [1, 0] (axis 1: odd, even) of each
    piece's (axis 2) interpolant at 12 Chebyshev points of its t in
    [-1/2, 1/2): of E1(x) + ln x below 1 (power series), of e^x E1(x) above."""
    nodes = 0.5 * np.cos(np.pi * (np.arange(_E1_TERMS) + 0.5) / _E1_TERMS)
    k = np.arange(8 * (math.frexp(_E1_SCALED_CUTOFF)[1] + 53))[:, None]
    x = np.ldexp(k % 8 + 8.5 + nodes, k // 8 - 56)    # 16 m = k mod 8 + 8 + t + 1/2
    low = x[:8 * 53]                                  # the octaves below 1
    series = np.zeros_like(low)
    for n in range(24, 0, -1):
        series = series * low + (-1.0) ** (n + 1) / (n * math.factorial(n))
    f = np.concatenate([series * low - np.euler_gamma, _e1_fraction(x[8 * 53:], 120)])
    return np.linalg.solve(np.vander(nodes), f.T).reshape(_E1_TERMS // 2, 2, -1)


_E1_COEF = _e1_table()


def _e1_short(x: float) -> float:
    """The table (or the fraction) at one x: the long path's operations in
    Python floats, as numpy's per-call cost would be most of a short call."""
    if not 0.0 < x < math.inf:
        raise ValueError("exp_integral_e1 requires finite x > 0")
    if x > _E1_SCALED_CUTOFF:
        return _e1_fraction(x, 8)
    m, e = math.frexp(max(x, _E1_LOW))     # exact, as np.frexp
    j = int(m * 16.0)
    t, odd, even = m * 16.0 - j - 0.5, 0.0, 0.0
    for c_odd, c_even in _E1_COEF[..., j + e * 8 + _E1_OFFSET].tolist():
        odd, even = odd * (t * t) + c_odd, even * (t * t) + c_even
    return even + t * odd


def _e1(x, form: int):
    """E1(x) (form 0), e^x E1(x) (1) or e^x E1(x) + ln min(x, 1) (2), x > 0,
    within 1.6e-15 relative of 40-digit mpmath where a normal float; each
    array element equals its scalar call bit for bit (README, Numerical
    design). Form 2 has no cancellation between e^x E1(x) and -ln x."""
    x = np.asarray(x, dtype=float)
    if x.size <= _E1_SHORT:
        t = np.array([_e1_short(v) for v in x.ravel().tolist()]).reshape(x.shape)
    else:
        lo, hi = x.min(), x.max()
        if not (lo > 0.0 and hi < np.inf):
            raise ValueError("exp_integral_e1 requires finite x > 0")
        m, e = np.frexp(np.minimum(np.maximum(x, _E1_LOW), _E1_SCALED_CUTOFF))
        u = m * 16.0
        j = u.astype(np.intp)
        c = np.take(_E1_COEF, j + (e * 8 + _E1_OFFSET), axis=2)
        t = u - j - 0.5
        s, acc = t * t, c[0]
        for ck in c[1:]:
            acc = acc * s + ck
        t = acc[1] + t * acc[0]
        if hi > _E1_SCALED_CUTOFF:
            t = np.where(x > _E1_SCALED_CUTOFF, _e1_fraction(np.maximum(x, _E1_SCALED_CUTOFF), 8), t)
    low, xl = x < 1.0, np.minimum(x, 1.0)
    log = np.log(xl)
    if form == 0:
        out = np.where(low, t - log, np.exp(-x) * t)
    elif form == 1:
        out = np.where(low, np.exp(xl) * (t - log), t)
    else:
        out = np.where(low, np.exp(xl) * t - np.expm1(xl) * log, t)
    return out if out.ndim else float(out)


def exp_integral_e1(x, scaled=False):
    """Exponential integral E1(x) for x > 0 (see _e1); with scaled=True
    e^x E1(x), which stays representable where E1 itself underflows."""
    return _e1(x, 1 if scaled else 0)


def _scaled_e1_log(x):
    """e^x E1(x) + ln min(x, 1) for x > 0: -gamma at 0, e^x E1(x) from 1."""
    return _e1(x, 2)
