"""Optimal transmit power under an average-power budget and an
interference-outage cap.

The transmitter serves its own receiver across a fading link (the direct
link) while interfering with a primary receiver across a second fading
link (the cross link). Knowledge of either link is none, perfect, or an
MMSE estimate; see fading.CsiKnowledge.

Structure of the optimum
------------------------
The interference constraint pins, for each cross-link conditioning state,
a hard per-state power cap: the largest power whose conditional
interference-outage probability stays within epsilon. The average-power
budget contributes a direct-link component through a Lagrange multiplier
lam; the transmitted power is the pointwise minimum of the two.

If the budget exceeds the mean cap (the average-power threshold), the
budget constraint is slack: lam = 0 and the policy transmits at the cap
("saturated" regime). Otherwise lam > 0 is found by bisection on the
average-power equation (_bisect; "power_limited" regime).

The budget component by direct-link knowledge:
  * none       constant (the raw budget by default; optionally rescaled so
                the capped average meets the budget exactly)
  * perfect    water-filling max(0, 1/lam - 1/g) on the true gain g
  * estimated  inverse of the conditional rate derivative
               I(P | m) = E[ g / (1 + P g) | estimate m ],
               i.e. the largest P with I(P | m) = lam, zero when
               I(0 | m) = m + alpha <= lam.

The cap by cross-link knowledge:
  * none       i_peak / quantile(1 - epsilon) of the marginal gain
  * perfect    i_peak / g (instantaneous, zero outage)
  * estimated  i_peak / conditional quantile(1 - epsilon | m)

Numerical scheme
----------------
Expectations over the conditioning states are composite Gauss-Legendre
sums over a truncated support (explicit tail mass). The true direct gain
given its estimate enters through its moment generating function: the
conditional rate and log-rate are trapezoid sums in log s of closed-form
MGF terms (_mgf_log_rate, _mgf_rate), so no density is evaluated on the
solve or capacity paths; the capacity samples every cell's log-rate at
the same powers on one lattice in u = s P (_mgf_lattice) and
interpolates in log P. Expectations of min(a, cap(t)) are split at the
crossing state where the cap equals a, so each quadrature piece is
smooth and converges spectrally; see _CapField.crossing_state. The part
above the crossing, the cap tail integral, depends on the crossing state
alone, so each cap table integrates it once into a cumulative table and
the average-power equation reads it off (_CapField.capped_mean): a
multiplier trial costs one Gauss-Legendre panel per direct-link cell.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fading
from .fading import CsiKnowledge, CsiLevel
from .quadrature import _gl_rule, _refine, panel_rule, panel_rule_batch
from .special_functions import NumericsError, exp_integral_e1

__all__ = [
    "NumericSettings",
    "ScenarioConfig",
    "PowerPolicy",
    "interference_power_cap",
    "rate_integral",
    "invert_rate_integral",
    "average_power_threshold",
    "solve_lambda",
]

_GAIN_FLOOR = 1e-12   # divisor guard for perfect cross-link knowledge
_LAMBDA_LO = 1e-12    # lower end of the multiplier bracket
_CAP_CACHE_SIZE = 64  # cap tables kept per process, one per cross-link setup
_GRID_CACHE_SIZE = 128  # direct-link grids (and budget interpolants) kept per process
_ROW_INVERSION_STEPS = 100  # cap on bracketed Newton steps per row inversion
_RATE_INVERSION_STEPS = 200  # cap on bisection steps of invert_rate_integral
_RATE_KERNEL_TOL = 1e-15    # relative target of the log-power rate interpolant
_CHUNK_ELEMS = 2 ** 18      # largest intermediate of every row-blocked kernel
_MGF_STEP = 0.25            # trapezoid step in y = log s of the MGF rate kernels
_MGF_S_HI = 40.0            # top node s of the MGF rate kernels: e^-40 is left above
_MGF_S_LO = 1e-17           # their bottom node, times 1 / (P_max (m + alpha))


# ----------------------------------------------------------------------
# configuration types

@dataclass(frozen=True)
class NumericSettings:
    """Tolerances and resolutions for the quadrature engine.

    base_panels is the panel count per integration axis at the coarsest
    refinement level; each refinement doubles it. quad_rel_tol is the
    relative agreement between successive levels that stops refinement.
    """

    quad_rel_tol: float = 1e-7
    quad_points: int = 20
    base_panels: int = 8
    max_refinements: int = 4
    bisect_tol: float = 1e-10
    lambda_rel_tol: float = 1e-4
    tail_mass: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.quad_rel_tol < 1.0):
            raise ValueError("quad_rel_tol must lie in (0, 1)")
        if self.quad_points < 2:
            raise ValueError("quad_points must be at least 2")
        if self.base_panels < 1:
            raise ValueError("base_panels must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")
        if not (0.0 < self.bisect_tol < 1.0):
            raise ValueError("bisect_tol must lie in (0, 1)")
        if not (0.0 < self.lambda_rel_tol < 1.0):
            raise ValueError("lambda_rel_tol must lie in (0, 1)")
        if not (0.0 < self.tail_mass < 1e-3):
            raise ValueError("tail_mass must lie in (0, 1e-3)")


@dataclass(frozen=True)
class ScenarioConfig:
    """One operating point: knowledge levels, budget, and outage constraint.

    p_avg is the average transmit-power budget, i_peak the interference
    power the primary receiver tolerates, epsilon the allowed probability
    of exceeding it. All powers are linear (noise power 1); dB conversion
    belongs to the user interface, not here.

    rescale_no_csi_budget only affects a direct link with no knowledge:
    by default that link transmits the raw budget as its constant
    component, which after capping leaves average power on the table;
    with the flag the constant is enlarged until the capped average meets
    p_avg exactly.
    """

    sl_csi: CsiKnowledge
    cl_csi: CsiKnowledge
    p_avg: float
    i_peak: float
    epsilon: float
    numerics: NumericSettings = field(default_factory=NumericSettings)
    rescale_no_csi_budget: bool = False

    def __post_init__(self):
        if not isinstance(self.sl_csi, CsiKnowledge) or not isinstance(self.cl_csi, CsiKnowledge):
            raise TypeError("sl_csi and cl_csi must be CsiKnowledge instances")
        if not (self.p_avg > 0.0 and np.isfinite(self.p_avg)):
            raise ValueError("p_avg must be positive and finite")
        if not (self.i_peak > 0.0 and np.isfinite(self.i_peak)):
            raise ValueError("i_peak must be positive and finite")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie strictly between 0 and 1")

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def with_axis(self, axis: str, value: float) -> "ScenarioConfig":
        """This scenario with one sweep axis set to value (linear units).

        axis is p_avg, i_peak, epsilon, alpha_s or alpha_p. The alpha axes
        set the direct (s) or cross (p) link's knowledge through
        CsiKnowledge.from_alpha: 0 is perfect, 1 is none.
        """
        if axis in ("p_avg", "i_peak", "epsilon"):
            return self.replace(**{axis: value})
        if axis == "alpha_s":
            return self.replace(sl_csi=CsiKnowledge.from_alpha(value))
        if axis == "alpha_p":
            return self.replace(cl_csi=CsiKnowledge.from_alpha(value))
        raise ValueError(f"unknown sweep axis {axis!r}")


# ----------------------------------------------------------------------
# public per-state operations

def interference_power_cap(cl_state, cl_csi: CsiKnowledge, i_peak: float,
                           epsilon: float):
    """Largest power meeting the conditional interference-outage limit.

    cl_state is the true cross gain under perfect knowledge, the estimate
    power under estimated knowledge, and ignored (may be None) with no
    knowledge. Vectorized over cl_state.
    """
    if i_peak <= 0.0:
        raise ValueError("i_peak must be positive")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if cl_csi.level is CsiLevel.NONE:
        denom = fading.marginal_power_quantile(1.0 - epsilon)
        if cl_state is None:
            return i_peak / denom
        shape = np.asarray(cl_state, dtype=float).shape
        out = np.full(shape, i_peak / denom)
        return out if out.ndim else float(out)
    if cl_state is None:
        raise ValueError(f"{cl_csi.describe()} cross-link knowledge needs a state")
    state = np.asarray(cl_state, dtype=float)
    if np.any(state < 0.0):
        raise ValueError("cross-link state must be nonnegative")
    if cl_csi.level is CsiLevel.PERFECT:
        out = i_peak / np.maximum(state, _GAIN_FLOOR)
        return out if out.ndim else float(out)
    q = fading.conditional_power_inv_cdf(1.0 - epsilon, state, cl_csi.alpha)
    out = i_peak / np.asarray(q, dtype=float)
    return out if out.ndim else float(out)


def rate_integral(power, m: float, alpha: float,
                  settings: Optional[NumericSettings] = None):
    """E[ g / (1 + P g) | estimate m ] under error variance alpha.

    The marginal rate of the conditional-expected log-rate in P; equals
    the conditional mean m + alpha at P = 0 and decreases to 0.
    Vectorized over power.

    With n panels the edges are 0 and hi * 1e-14**(1 - k/n), k = 1..n,
    up to the support bound hi: graded geometrically towards 0, so the
    layer g <~ 1/P, where g / (1 + P g) turns from linear to flat, is
    resolved at every power. n starts at 8, about two decades a panel:
    from fewer panels a doubling only splits the negligible bottom panel
    and can agree with itself at the wrong value. Doubling n stops when
    every value changes by at most 1e-11 of itself.
    """
    settings = settings or NumericSettings()
    alpha = float(alpha)
    m = float(m)
    if m < 0.0:
        raise ValueError("estimate power must be nonnegative")
    p_arr = np.asarray(power, dtype=float)
    if np.any(p_arr < 0.0):
        raise ValueError("power must be nonnegative")
    hi = fading.conditional_support_bound(m, alpha, settings.tail_mass * 1e-2)
    p_flat = np.atleast_1d(p_arr).ravel()

    def integrand(g):
        f = fading.conditional_power_pdf(g, m, alpha)
        return f * (g[None, :] / (1.0 + p_flat[:, None] * g[None, :]))

    # one adaptive pass drives all powers at once; converge on the vector
    prev = None
    n_panels = 8
    for _ in range(15):
        edges = hi * np.geomspace(1e-14, 1.0, n_panels + 1)
        edges[0] = 0.0
        x, w = panel_rule(edges, settings.quad_points + 4)
        vals = integrand(x) @ w
        if prev is not None and np.all(np.abs(vals - prev) <= 1e-11 * np.abs(vals)):
            break
        prev = vals
        n_panels *= 2
    else:
        raise NumericsError("rate integral did not converge")
    out = vals.reshape(p_arr.shape)
    return out if out.ndim else float(out)


def invert_rate_integral(lam: float, m: float, alpha: float,
                         settings: Optional[NumericSettings] = None) -> float:
    """Largest P with rate_integral(P) = lam; 0 when m + alpha <= lam."""
    settings = settings or NumericSettings()
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if float(m) + float(alpha) <= lam:
        return 0.0
    # g/(1+Pg) < 1/P pointwise, so P = 1/lam always brackets from above
    lo, hi = 0.0, 1.0 / lam
    for _ in range(_RATE_INVERSION_STEPS):
        mid = 0.5 * (lo + hi)
        r = rate_integral(mid, m, alpha, settings)
        if abs(r - lam) <= settings.bisect_tol * lam:
            return mid
        if r > lam:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            return 0.5 * (lo + hi)
    raise NumericsError(
        f"rate integral inversion did not converge in {_RATE_INVERSION_STEPS} steps")


# ----------------------------------------------------------------------
# quadrature grids over the conditioning states

def _exp_rule(scale: float, panels: int, points: int, tail_mass: float,
              lower: float = 0.0):
    """Nodes/weights for E over Exp(scale), truncated, weights include pdf.

    lower trims the range from below (used when everything beneath it is
    known to contribute zero); a lower at or past the truncation point
    yields an all-zero rule.
    """
    hi = -scale * np.log(tail_mass)
    lo = min(max(lower, 0.0), hi)
    x, w = panel_rule(np.linspace(lo, hi, panels + 1), points)
    return x, w * np.exp(-x / scale) / scale


def _mgf_rule(top: float):
    """Nodes s and weights h e^{-s} of the trapezoid rule in y = log s.

    s = _MGF_S_HI e^{-k h}, h = _MGF_STEP, down to _MGF_S_LO / top, where
    top = max(P_max (m + alpha), 1) over the powers and states served.
    The integrands below decay like e^{-s} above and s P (m + alpha) below
    and are analytic for |Im y| < pi/2, so the rule errs like
    e^{-pi^2 / h} (Trefethen and Weideman, SIAM Review 56, 2014).
    """
    y_hi = np.log(_MGF_S_HI)
    n = int(np.ceil((y_hi - np.log(_MGF_S_LO / max(top, 1.0))) / _MGF_STEP)) + 1
    s = np.exp(y_hi - _MGF_STEP * np.arange(n))
    return s, _MGF_STEP * np.exp(-s)


def _mgf_log_rate(m: np.ndarray, alpha: float, P: np.ndarray) -> np.ndarray:
    """E[log(1 + P[j,k] g) | estimate m[j]] from the conditional MGF.

    Given m the gain has M(u) = exp(-u m / D) / D, D = 1 + alpha u
    (Hamdi, IEEE Trans. Commun. 58, 2010), and
    E[log(1 + P g)] = integral of (1 - M(s P)) e^{-s} ds / s, with
    1 - M = (alpha u - expm1(-u m / D)) / D, on _mgf_rule's nodes. Rows,
    and within a row the powers, are chunked so the (rows, K, N)
    intermediate stays within _CHUNK_ELEMS elements; the nodes come from
    every row, and each sum over them is the same for any chunking.
    """
    J, K = P.shape
    s, w = _mgf_rule(float(P.max()) * (float(m.max()) + alpha))
    N = s.size
    cols = max(1, min(K, _CHUNK_ELEMS // N))
    rows = max(1, _CHUNK_ELEMS // (cols * N))
    out = np.empty((J, K))
    for a in range(0, J, rows):
        mj = m[a:a + rows, None, None]
        for c in range(0, K, cols):
            u = P[a:a + rows, c:c + cols, None] * s
            d = u * alpha + 1.0
            x = np.expm1(-(mj * u) / d)
            u *= alpha
            u -= x
            u /= d
            out[a:a + rows, c:c + cols] = np.einsum("jkn,n->jk", u, w)
    return out


def _mgf_rate(P: np.ndarray, m: np.ndarray, alpha: float, s: np.ndarray,
              w: np.ndarray):
    """r(P_j) = E[g / (1 + P_j g) | estimate m_j] and -r'(P_j) on the
    rule (s, w) of _mgf_rule.

    With M and D as in _mgf_log_rate, r(P) = integral of
    e^{-s} (-M'(s P)) ds and r'(P) = -integral of s e^{-s} M''(s P) ds,
    where -M' = E c / D^2 and M'' = E ((c + alpha)^2 - 2 alpha^2) / D^3
    for E = exp(-u m / D) and c = m / D + alpha.
    """
    ws = w * s
    u = np.multiply.outer(P, s)
    inv = np.divide(1.0, u * alpha + 1.0)
    c = m[:, None] * inv
    u *= c
    e = np.exp(np.negative(u, out=u), out=u)
    e *= inv
    e *= inv
    c += alpha
    r = np.einsum("jn,jn,n->j", e, c, ws)
    c += alpha
    c *= c
    c -= 2.0 * alpha * alpha
    c *= inv
    return r, np.einsum("jn,jn,n->j", e, c, ws * s)


def _mgf_invert_rate(m: np.ndarray, alpha: float, lam: float) -> np.ndarray:
    """Per-state root P_j of r(P) = E[g / (1 + P g) | estimate m_j] = lam.

    r and r' come from _mgf_rate on _mgf_rule's nodes for powers up to
    1/lam. States with m_j + alpha <= lam get P = 0; the others run Newton
    steps on 1/r(P) - 1/lam inside a bracket [lo, hi] kept from the sign
    of the residual; a step leaving the (inclusive) bracket is replaced by
    its midpoint. 1/r is exactly linear for a fixed gain (1/g + P), and
    the start 1/lam - 1/(m_j + alpha), Jensen's upper bound on the root
    (g / (1 + P g) is concave in g), is its root there. 1/lam brackets
    from above since g/(1+Pg) < 1/P. Raises NumericsError if a state has
    not converged after _ROW_INVERSION_STEPS. States are solved in blocks
    of at most _CHUNK_ELEMS node values; each state's iterates depend on
    it alone.
    """
    mean = m + alpha
    out = np.zeros(m.size)
    active = np.flatnonzero(mean > lam)
    if active.size == 0:
        return out
    s, w = _mgf_rule(float(mean[active].max()) / lam)
    tol = 1e-13 * max(1.0, 1.0 / lam)
    rows = max(1, _CHUNK_ELEMS // s.size)
    for a in range(0, active.size, rows):
        idx = active[a:a + rows]
        mj = m[idx]
        lo = np.zeros(idx.size)
        hi = np.full(idx.size, 1.0 / lam)
        P = 1.0 / lam - 1.0 / mean[idx]
        todo = np.arange(idx.size)
        for _ in range(_ROW_INVERSION_STEPS):
            x = P[todo]
            r, slope = _mgf_rate(x, mj[todo], alpha, s, w)
            step = (1.0 / lam - 1.0 / r) * r * r / slope
            above = r > lam
            lo[todo] = l = np.where(above, x, lo[todo])
            hi[todo] = h = np.where(above, hi[todo], x)
            x = x + step
            outside = (x < l) | (x > h)
            P[todo] = np.where(outside, 0.5 * (l + h), x)
            done = (~outside & (np.abs(step) <= tol)) | (h - l <= tol)
            todo = todo[~done]
            if todo.size == 0:
                break
        else:
            raise NumericsError(f"rate inversion at lam={lam:.6g} did not converge "
                                f"in {_ROW_INVERSION_STEPS} steps")
        out[idx] = P
    return out


def _exponential_rate(power, tau: float = 0.0) -> np.ndarray:
    """E[log(1 + P g); g >= tau] for unit-mean exponential g, 0 at P = 0:
    e^{-tau} (log(1 + P tau) + e^{tau + 1/P} E1(tau + 1/P)), elementwise.

    At tau = 0 it is e^{1/P} E1(1/P), the rate without direct-link
    knowledge: _mgf_log_rate's integral at m = 0, alpha = 1, where
    M(u) = 1 / (1 + u). The on-off scheme's burst rate is tau > 0.
    """
    P = np.asarray(power, dtype=float)
    out = np.zeros_like(P)
    pos = P > 0.0
    out[pos] = np.exp(-tau) * (np.log1p(P[pos] * tau)
                               + exp_integral_e1(tau + 1.0 / P[pos], scaled=True))
    return out


def _water_fill(lam: float, g) -> np.ndarray:
    """Perfect-knowledge budget component max(0, 1/lam - 1/g) at gains g;
    exactly 0 for g <= lam, which the _GAIN_FLOOR divisor misses when
    lam < _GAIN_FLOOR."""
    g = np.asarray(g, dtype=float)
    out = np.clip(1.0 / lam - 1.0 / np.maximum(g, _GAIN_FLOOR), 0.0, None)
    return np.where(g <= lam, 0.0, out)


def _chebyshev_points_needed(half_range: float) -> int:
    """Chebyshev points in u = log P that reach _RATE_KERNEL_TOL.

    F(e^u) = E[log1p(e^u g)] is analytic in the strip |Im u| < pi: the
    singularities of log1p(e^u g) sit at u = -ln g +- i pi for g > 0.
    Mapped onto [-1, 1], an interval of half-width h
    sees a strip of half-width b = pi / h, which holds the Bernstein
    ellipse rho = b + sqrt(1 + b^2); interpolation of degree n on
    Chebyshev points then errs like rho^-n.
    """
    b = np.pi / half_range
    rho = b + np.sqrt(1.0 + b * b)
    return int(np.ceil(-np.log(_RATE_KERNEL_TOL) / np.log(rho))) + 1


def _mgf_lattice(m: np.ndarray, alpha: float, P: np.ndarray):
    """Nodes u_n = _MGF_S_HI P_max e^{-n h} shared by the 1-D powers P, and
    weights W[n, l] = h e^{-u_n / P_l}: for u = s P_l, _mgf_rule shifted in
    log s, down to _MGF_S_LO P_min / max(P_max (m_max + alpha), 1), so each
    power gets at least _mgf_rule's window. Weights below 1e-300 are 0:
    subnormal operands slow the product some fiftyfold."""
    p_lo, p_hi = float(P.min()), float(P.max())
    top = max(p_hi * (float(m.max()) + alpha), 1.0)
    u = _mgf_rule(top * p_hi / p_lo)[0] * p_hi
    W = _MGF_STEP * np.exp(-u[:, None] / P)
    W[W < 1e-300] = 0.0
    return u, W


def _mgf_log_rate_shared(m: np.ndarray, alpha: float, P: np.ndarray) -> np.ndarray:
    """_mgf_log_rate at 1-D powers P shared by every row, shape (J, L): one
    pass of 1 - M(u_n) over J x N_u lattice nodes (_mgf_lattice) and one
    (J x N_u) by (N_u x L) product, in blocks of _CHUNK_ELEMS node values.
    einsum sums each row in an order that does not depend on the block;
    BLAS matmul does not."""
    u, W = _mgf_lattice(m, alpha, P)
    d = u * alpha + 1.0
    rows = max(1, _CHUNK_ELEMS // u.size)
    out = np.empty((m.size, P.size))
    for a in range(0, m.size, rows):
        x = (u * alpha - np.expm1(-(m[a:a + rows, None] * u) / d)) / d
        out[a:a + rows] = np.einsum("jn,nl->jl", x, W)
    return out


def _rate_rows_log_power(m: np.ndarray, alpha: float, P: np.ndarray) -> np.ndarray:
    """_mgf_log_rate(m, alpha, P) through a Chebyshev interpolant in
    u = log P, one per row.

    Every row is sampled at the same L Chebyshev powers spanning log P
    over all positive powers, half-width at least 1e-3, on one lattice
    (_mgf_log_rate_shared), and interpolated at its K powers with the
    barycentric formula. L comes from that span (_chebyshev_points_needed);
    the direct sum takes over when L would reach K. Zero powers rate
    exactly 0 and do not widen the span. The passes over P run in blocks
    of rows, so only P and the result span all J rows."""
    J, K = P.shape
    rows = max(1, _CHUNK_ELEMS // K)
    p_hi = float(P.max())
    if p_hi <= 0.0:
        return np.zeros((J, K))
    u_lo = min(np.log(P[s:s + rows].min(initial=np.inf, where=P[s:s + rows] > 0.0))
               for s in range(0, J, rows))
    centre, half = 0.5 * (u_lo + np.log(p_hi)), max(0.5 * (np.log(p_hi) - u_lo), 1e-3)
    L = _chebyshev_points_needed(half)
    if L >= K:
        return _mgf_log_rate(m, alpha, P)
    k = np.arange(L)
    x_nodes = np.cos(np.pi * k / (L - 1))
    bary = np.where(k % 2, -1.0, 1.0)
    bary[[0, -1]] *= 0.5
    f = _mgf_log_rate_shared(m, alpha, np.exp(centre + half * x_nodes))
    out = np.empty((J, K))
    chunk = max(1, _CHUNK_ELEMS // (K * L))
    for s in range(0, J, chunk):
        e = min(s + chunk, J)
        pos = P[s:e] > 0.0
        x = (np.where(pos, np.log(np.where(pos, P[s:e], 1.0)), centre) - centre) / half
        out[s:e] = np.where(pos, _barycentric_rows(x, f[s:e], x_nodes, bary), 0.0)
    return out


def _barycentric_rows(x: np.ndarray, f: np.ndarray, nodes: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Row j's interpolant through (nodes, f[j]) evaluated at x[j].

    The barycentric formula of the second kind with the given weights, for
    decreasing nodes; a point on a node (a non-finite quotient) takes that
    node's value.
    """
    d = x[:, :, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights, d, out=d)
        num_den = d @ np.stack([f, np.ones_like(f)], axis=2)
        vals = num_den[:, :, 0] / num_den[:, :, 1]
    j, k = np.nonzero(~np.isfinite(vals))
    vals[j, k] = f[j, np.searchsorted(-nodes, -x[j, k])]
    return vals


class _SlGrid:
    """Direct-link conditioning states discretized into weighted cells.

    Each cell j carries an outer weight w[j] (the probability weight of
    the conditioning state) and its state. Without knowledge the one cell
    has state 0, weight 1 and the rate _exponential_rate; under estimated
    knowledge the conditional rates come from the MGF kernels.

    When the multiplier lam is known, pass it: the budget component is
    identically zero below a state boundary (gain lam under perfect
    knowledge, estimate lam - alpha under estimated knowledge), and
    states below it contribute nothing to either the budget equation or
    the capacity, so the grid starts at the boundary. Panels straddling
    that kink would otherwise degrade the quadrature order.
    """

    def __init__(self, csi: CsiKnowledge, settings: NumericSettings,
                 panels: int, lam: Optional[float] = None):
        self.csi = csi
        pts = settings.quad_points
        tail = settings.tail_mass
        lower = 0.0 if lam is None else float(lam)
        if csi.level is CsiLevel.NONE:
            self.w = np.array([1.0])
            self.state = np.array([0.0])
        elif csi.level is CsiLevel.PERFECT:
            self.state, self.w = _exp_rule(1.0, panels, pts, tail, lower=lower)
        else:
            self.state, self.w = _exp_rule(1.0 - csi.alpha, panels, pts, tail,
                                           lower=lower - csi.alpha)
        self.n_cells = self.state.size

    def budget_component(self, lam: float) -> np.ndarray:
        """Per-cell budget component A_j at lam (a link with knowledge)."""
        if self.csi.level is CsiLevel.PERFECT:
            return _water_fill(lam, self.state)
        return _mgf_invert_rate(self.state, self.csi.alpha, lam)

    def rate_cells(self, power: np.ndarray, rows=slice(None)) -> np.ndarray:
        """E[log(1 + P g) | cell j] for the cells j in rows at powers P.

        power has shape (J,) or (J, K), J the number of cells in rows; the
        result matches. With estimated knowledge a (J, K) input goes
        through an interpolant in log P (_rate_rows_log_power) instead of
        the (J, K, N) trapezoid sum; its nodes depend on every row it is
        given (see rows_separable).
        """
        P = np.asarray(power, dtype=float)
        if self.csi.level is CsiLevel.NONE:
            return _exponential_rate(P)
        if self.csi.level is CsiLevel.PERFECT:
            state = self.state[rows]
            return np.log1p(P * (state if P.ndim == 1 else state[:, None]))
        if P.ndim == 1:
            return self.rate_cells(P[:, None], rows)[:, 0]
        return _rate_rows_log_power(self.state[rows], self.csi.alpha, P)

    @property
    def rows_separable(self) -> bool:
        """Whether rate_cells over a block of rows equals those rows of the
        whole: not with estimated knowledge, whose interpolant nodes span
        every row it is given."""
        return self.csi.level is not CsiLevel.ESTIMATED


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sl_grid(csi: CsiKnowledge, settings: NumericSettings, panels: int,
             lam: float):
    """A direct link's grid at panels from lam's boundary and its budget
    component A at lam, read-only: one entry serves every search, capacity
    level and thread in the process. Every bisection visits lam = 1,
    1e-12, 0.5, ..., and the capacity at 2 base_panels reads the search's
    final trial. Threads that miss together each build the same bits; no
    lock, so sweep threads never wait. A knowledge_grid round has 132 keys.
    """
    sl = _SlGrid(csi, settings, panels, lam=lam)
    A = sl.budget_component(lam)
    for a in (sl.state, sl.w, A):
        a.setflags(write=False)
    return sl, A


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _budget_interpolant(csi: CsiKnowledge, settings: NumericSettings, lam: float):
    """An estimated direct link's budget component at lam as (m_c, m_hi,
    interpolant) over 1025 estimates in [m_c, m_hi], each inverted by
    _mgf_invert_rate. The component is exactly zero below m_c = lam - alpha,
    so the knots stay on its active side. Memoised like _sl_grid: a copy of
    a policy with another lam reads another entry, and no thread ever
    writes a policy's fields.
    """
    upper = fading.estimate_power_quantile(1.0 - settings.tail_mass, csi.alpha)
    m_c = max(lam - csi.alpha, 0.0)
    grid = np.linspace(m_c, max(upper, m_c + 1.0), 1025)
    return m_c, grid[-1], _Pchip(grid, _mgf_invert_rate(grid, csi.alpha, lam))


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x, y).

    The slopes are Fritsch and Butland's (SIAM J. Sci. Stat. Comput. 5,
    1984): the weighted harmonic mean of the neighbouring secants inside,
    0 where they change sign or one is 0, and a one-sided three-point
    estimate at each end. Outside [x[0], x[-1]] the end cubics continue.

    Built to equal scipy's PchipInterpolator bit for bit: the same
    slopes, the same Hermite coefficients c0..c3 per interval, the same
    interval (x[i] <= v < x[i+1], clipped to the end intervals) and the
    same sum c3 + c2 s + c1 s^2 + c0 s^3 with the powers of s built by
    repeated multiplication.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        if (x.ndim != 1 or x.size < 3 or y.shape != x.shape or np.any(h <= 0.0)
                or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)))):
            raise ValueError("need three or more increasing finite knots, "
                             "one finite value each")
        mk = np.diff(y) / h
        smk = np.sign(mk)
        flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0.0) | (mk[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        d = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0,
                               1.0 / ((w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)))
        d[0] = self._end_slope(h[0], h[1], mk[0], mk[1])
        d[-1] = self._end_slope(h[-1], h[-2], mk[-1], mk[-2])
        t = (d[:-1] + d[1:] - 2.0 * mk) / h
        self._c0 = t / h
        self._c1 = (mk - d[:-1]) / h - t
        self._c2 = d[:-1]
        self._c3 = y[:-1] + 0.0   # scipy's sum starts from 0.0, which turns -0.0 into 0.0
        self._x = x

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        i = np.clip(np.searchsorted(self._x, flat, side="right") - 1,
                    0, self._x.size - 2)
        s = flat - self._x[i]
        out = self._c2[i] * s
        out += self._c3[i]
        z = s * s
        out += self._c1[i] * z
        z *= s
        out += self._c0[i] * z
        return out.reshape(v.shape)


class _CapField:
    """Interference cap as a function of the cross-link conditioning state.

    Exposes the cap, the state distribution, the crossing state where the
    cap equals a given level, quadrature rules over the state, and the
    capped mean E[min(a, cap)]. For estimated knowledge the conditional
    quantile is tabulated once on a dense grid and evaluated through
    monotone (PCHIP) interpolation; the exact quantile stays available
    through interference_power_cap.

    The cap tail G(s) = integral of cap(t) p(t) over [s, upper] is
    tabulated once as well, at knots where cap is smooth in between: the
    1025 PCHIP knots (one cubic piece per interval) under estimated
    knowledge; under perfect knowledge the floor 1e-13 below which
    states are dropped, then _GAIN_FLOOR, where the cap stops being
    constant, and 256 geometric intervals up to upper. Each interval is
    one Gauss-Legendre panel of quad_points nodes; tail_integral adds one
    more panel from s to the next knot. A multiplier trial then costs one
    panel per direct-link cell, and its value does not depend on the
    trial's panel count. Under perfect knowledge the capacity's rate tail
    has a closed form in E1 as well (rate_tail).

    Build instances through _cap_field: one instance per cross-link
    setup is shared by every policy and thread in the process, so the
    class must stay immutable after __init__.
    """

    def __init__(self, csi: CsiKnowledge, i_peak: float, epsilon: float,
                 settings: NumericSettings):
        self.csi = csi
        self.i_peak = float(i_peak)
        self.epsilon = float(epsilon)
        self.settings = settings
        self.level = csi.level
        if self.level is CsiLevel.NONE:
            self.constant = i_peak / fading.marginal_power_quantile(1.0 - epsilon)
            self.upper = 0.0
            return
        self.constant = None
        if self.level is CsiLevel.PERFECT:
            self.upper = -np.log(settings.tail_mass)
            knots = np.concatenate(([1e-13], np.geomspace(_GAIN_FLOOR, self.upper, 257)))
        else:
            self.upper = -(1.0 - csi.alpha) * np.log(settings.tail_mass)
            knots = np.linspace(0.0, self.upper, 1025)
            q = fading.conditional_power_inv_cdf(1.0 - epsilon, knots, csi.alpha)
            self._q_of_m = _Pchip(knots, q)
            self._m_of_q = _Pchip(q, knots)
            self._q_lo = float(q[0])
            self._q_hi = float(q[-1])
        self._knots = knots
        panel = self._panel_integral(knots[:-1], knots[1:])
        self._tail = np.append(np.cumsum(panel[::-1])[::-1], 0.0)

    @property
    def is_constant(self) -> bool:
        return self.level is CsiLevel.NONE

    def quantile_of_state(self, t):
        """Denominator of the cap: the (1 - epsilon) gain quantile at state t."""
        t = np.asarray(t, dtype=float)
        if self.level is CsiLevel.PERFECT:
            return np.maximum(t, _GAIN_FLOOR)
        return np.clip(self._q_of_m(np.clip(t, 0.0, self.upper)),
                       self._q_lo, None)

    def cap(self, t):
        if self.is_constant:
            return np.full(np.asarray(t, dtype=float).shape, self.constant)
        return self.i_peak / self.quantile_of_state(t)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.level is CsiLevel.PERFECT:
            return fading.marginal_power_cdf(t)
        return 1.0 - np.exp(-np.clip(t, 0.0, None) / (1.0 - self.csi.alpha))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.level is CsiLevel.PERFECT:
            return fading.marginal_power_pdf(t)
        return np.exp(-np.clip(t, 0.0, None) / (1.0 - self.csi.alpha)) / (1.0 - self.csi.alpha)

    def crossing_state(self, a):
        """State t* with cap(t*) = a, clipped to [0, upper].

        The cap decreases in t, so min(a, cap(t)) equals a below t* and
        cap(t) above; splitting expectations there keeps both integrands
        smooth. a = 0 maps to upper (the cap never reaches zero).
        """
        a = np.asarray(a, dtype=float)
        with np.errstate(divide="ignore"):
            q_star = np.where(a > 0.0, self.i_peak / np.maximum(a, 1e-300), np.inf)
        if self.level is CsiLevel.PERFECT:
            return np.clip(q_star, 0.0, self.upper)
        t = np.where(q_star >= self._q_hi, self.upper,
                     np.where(q_star <= self._q_lo, 0.0,
                              self._m_of_q(np.clip(q_star, self._q_lo, self._q_hi))))
        return np.clip(t, 0.0, self.upper)

    def tail_rule(self, t_star: np.ndarray, panels: int):
        """Per-row rule for E over states above t_star; weights include pdf."""
        spacing = "geometric" if self.level is CsiLevel.PERFECT else "linear"
        nodes, w = panel_rule_batch(t_star, self.upper, panels,
                                    self.settings.quad_points, spacing=spacing)
        return nodes, w * self.pdf(nodes)

    def full_rule(self, panels: int):
        """Rule for E over the whole state range; weights include pdf.

        With perfect knowledge the cap blows up like 1/t at t -> 0, so the
        state is integrated on a log-spaced grid from a tiny floor; the
        neglected head [0, floor] carries O(floor * log) mass.
        """
        pts = self.settings.quad_points
        if self.level is CsiLevel.PERFECT:
            y_edges = np.linspace(np.log(1e-13), np.log(self.upper),
                                  max(panels, 6) + 1)
            y, wy = panel_rule(y_edges, pts)
            t = np.exp(y)
            return t, wy * t * fading.marginal_power_pdf(t)
        return _exp_rule(1.0 - self.csi.alpha, panels, pts, self.settings.tail_mass)

    def _panel_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """One Gauss-Legendre panel of cap * pdf over each [lo_j, hi_j]."""
        x, w = _gl_rule(self.settings.quad_points)
        half = 0.5 * (hi - lo)[..., None]
        nodes = lo[..., None] + half * (x + 1.0)
        return (half * w * self.cap(nodes) * self.pdf(nodes)).sum(axis=-1)

    def tail_integral(self, t_star):
        """G(t*): the integral of cap * pdf over [t*, upper], from the table.

        States below the first knot count as the first knot, so with
        perfect knowledge G(t*) = G(1e-13) for t* <= 1e-13.
        """
        knots = self._knots
        t = np.clip(np.asarray(t_star, dtype=float), knots[0], self.upper)
        i = np.clip(np.searchsorted(knots, t, side="right"), 1, knots.size - 1)
        return self._tail[i] + self._panel_integral(t, knots[i])

    def rate_tail(self, t_star, g):
        """T(t*): the integral of log(1 + cap(t) g) pdf(t) over the states
        tail_rule covers, [max(t*, 1e-13), upper], for a direct gain g.

        Perfect knowledge only, in closed form. With c = i_peak g,
        b = max(t*, 1e-13, _GAIN_FLOOR) and Ê1 the exp-scaled E1,
        integration by parts gives
        ∫_b^x log(1 + c/t) e^{-t} dt = [e^{-t} (Ê1(t) - Ê1(t + c)
        - log(1 + c/t))] from t = b to x. Below _GAIN_FLOOR the cap is
        the constant i_peak / _GAIN_FLOOR. 0 when t* >= upper.
        """
        c = self.i_peak * np.asarray(g, dtype=float)
        a = np.maximum(np.asarray(t_star, dtype=float), 1e-13)
        b = np.maximum(a, _GAIN_FLOOR)

        def primitive(x):
            return np.exp(-x) * (exp_integral_e1(x, scaled=True)
                                 - exp_integral_e1(x + c, scaled=True)
                                 - np.log1p(c / x))

        sliver = np.log1p(c / _GAIN_FLOOR) * -np.expm1(a - b) * np.exp(-a)
        return np.where(a < self.upper,
                        primitive(self.upper) - primitive(b) + sliver, 0.0)

    def capped_mean(self, a):
        """E over states of min(a, cap(t)), per level in a.

        Split at the crossing state t*: a F(t*) below it, G(t*) above.
        """
        a = np.asarray(a, dtype=float)
        if self.is_constant:
            return np.minimum(a, self.constant)
        t_star = self.crossing_state(a)
        return a * self.cdf(t_star) + self.tail_integral(t_star)

    def mean_cap(self, panels: int) -> float:
        """E[cap] over the truncated state grid.

        With perfect knowledge the untruncated mean is infinite (the cap
        grows like 1/t near a vanishing cross gain); this value is the
        finite amount the policy can actually spend on the truncated
        states, which is what the saturation decision needs.
        """
        if self.is_constant:
            return float(self.constant)
        t, w = self.full_rule(panels)
        return float(w @ self.cap(t))


@functools.lru_cache(maxsize=_CAP_CACHE_SIZE)
def _cap_table(csi: CsiKnowledge, i_peak: float, epsilon: float,
               settings: NumericSettings) -> _CapField:
    return _CapField(csi, i_peak, epsilon, settings)


_CAP_LOCK = threading.Lock()


def _cap_field(csi: CsiKnowledge, i_peak: float, epsilon: float,
               settings: NumericSettings) -> _CapField:
    """The shared cap table for one cross-link setup, built on first use.

    The lock makes threads that miss the cache together wait for a single
    build instead of each building the same table.
    """
    with _CAP_LOCK:
        return _cap_table(csi, i_peak, epsilon, settings)


def _expected_capped(A: np.ndarray, w: np.ndarray, capf: _CapField, panels: int,
                     f, blocks: bool = True) -> float:
    """E over cells j (weights w) and cross states t of f_j(min(A_j, cap(t))).

    f(P, rows) evaluates f_j for the cells rows (a slice or an index
    array) at their powers P, shaped (J,) or (J, K); a rate gives the
    capacity (the expected power needs no f: _CapField.capped_mean). Split
    at each cell's crossing state t*_j: the head is f_j(A_j) F(t*_j), the
    tail sum wt f_j(cap(nodes)) over tail_rule's nodes. A row with t*_j at
    upper has an empty tail (all weights 0) and is skipped; the others are
    built a block at a time so no intermediate outgrows _CHUNK_ELEMS
    elements. Each row's sum is the same however rows are grouped, so the
    value does not depend on the block size. blocks=False hands f every
    live row at once, for an f whose rows are not independent
    (_SlGrid.rows_separable).

    The capacity uses this rule for every pair but one: with perfect
    knowledge of both links the tail has a closed form instead
    (_CapField.rate_tail). A cross link without knowledge has a constant
    cap and needs no rule.
    """
    if capf.is_constant:
        return float(w @ f(np.minimum(A, capf.constant), slice(None)))
    t_star = capf.crossing_state(A)
    head = f(A, slice(None)) * capf.cdf(t_star)
    tail = np.zeros_like(head)
    live = np.flatnonzero(t_star < capf.upper)
    step = max(1, live.size)
    if blocks:
        step = max(1, _CHUNK_ELEMS // (panels * capf.settings.quad_points))
    for s in range(0, live.size, step):
        rows = live[s:s + step]
        nodes, wt = capf.tail_rule(t_star[rows], panels)
        tail[rows] = (wt * f(capf.cap(nodes), rows)).sum(axis=1)
    return float(w @ (head + tail))


# ----------------------------------------------------------------------
# the solved policy

class PowerPolicy:
    """Solved transmit-power rule for one scenario.

    power(sl_state, cl_state) evaluates the rule per sample; states that a
    knowledge level does not provide are ignored and may be None. In the
    saturated regime the rule is the cap alone and direct-link state is
    never consulted. Direct-link grids come from _sl_grid and budget
    interpolants from _budget_interpolant; none is held.

    Large-batch evaluation for estimated knowledge goes through that
    interpolant: against the density-based bisection, which remains
    available as invert_rate_integral, it errs by under 1e-8 of the
    largest component (EP and EN at -10, 0 and 13 dB).
    """

    def __init__(self, config: ScenarioConfig, lam: float, regime: str,
                 p_avg_star: float, cap_field: _CapField,
                 no_csi_const: Optional[float] = None):
        self.config = config
        self.lam = float(lam)
        self.regime = regime
        self.p_avg_star = float(p_avg_star)
        self._capf = cap_field
        self._no_csi_const = no_csi_const

    # -- interface requirements ----------------------------------------
    @property
    def sl_state_kind(self) -> str:
        """Which direct-link state power() reads: none, gain, or estimate."""
        if self.regime == "saturated":
            return "none"
        return self.config.sl_csi.state_kind

    @property
    def cl_state_kind(self) -> str:
        """Which cross-link state power() reads: none, gain, or estimate."""
        return self.config.cl_csi.state_kind

    # -- components ------------------------------------------------------
    def cap_component(self, cl_state=None):
        """Interference cap at the given cross-link states."""
        capf = self._capf
        if cl_state is None:
            if capf.is_constant:
                return capf.constant
            raise ValueError("this policy needs a cross-link state")
        out = capf.cap(cl_state)
        return out if out.ndim else float(out)

    def budget_component(self, sl_state=None):
        """Budget-driven component at the given direct-link states."""
        cfg = self.config
        level = cfg.sl_csi.level
        if self.regime == "saturated":
            raise ValueError("a saturated policy has no budget component")
        if level is CsiLevel.NONE:
            c = cfg.p_avg if self._no_csi_const is None else self._no_csi_const
            if sl_state is None:
                return float(c)
            out = np.full(np.asarray(sl_state, dtype=float).shape, float(c))
            return out if out.ndim else float(out)
        if sl_state is None:
            raise ValueError("this policy needs a direct-link state")
        s = np.asarray(sl_state, dtype=float)
        if level is CsiLevel.PERFECT:
            out = _water_fill(self.lam, s)
            return out if out.ndim else float(out)
        m_c, m_hi, interp = _budget_interpolant(cfg.sl_csi, cfg.numerics, self.lam)
        # strict: when the kink sits at m = 0 the component there is positive
        out = np.where(s < m_c, 0.0, interp(np.clip(s, m_c, m_hi)))
        out = np.clip(out, 0.0, None)
        return out if out.ndim else float(out)

    def power(self, sl_state=None, cl_state=None):
        """Transmit power for per-sample states (vectorized)."""
        cap = self.cap_component(cl_state)
        if self.regime == "saturated":
            return cap
        return np.minimum(self.budget_component(sl_state), cap)

    def expected_power(self, panels: Optional[int] = None) -> float:
        """Average transmitted power under this policy (diagnostic)."""
        cfg = self.config
        panels = panels or cfg.numerics.base_panels * 2
        if self.regime == "saturated":
            return self._capf.mean_cap(panels)
        sl, A = self._grid(panels)
        return float(sl.w @ self._capf.capped_mean(A))

    def _grid(self, panels: int):
        """_sl_grid at lam (a copy with a changed lam reads another entry);
        without direct-link knowledge the one cell and the constant."""
        cfg = self.config
        if cfg.sl_csi.level is CsiLevel.NONE:
            return (_SlGrid(cfg.sl_csi, cfg.numerics, panels),
                    np.array([self.budget_component()]))
        return _sl_grid(cfg.sl_csi, cfg.numerics, panels, self.lam)


# ----------------------------------------------------------------------
# multiplier search

def _bisect(f, target: float, lo: float, hi: float, rel_tol: float,
            what: str) -> float:
    """The first bisection midpoint x with |f(x) - target| <= rel_tol
    |target|, for a decreasing f; f was last evaluated at x.

    hi doubles until f(hi) <= target, then lo shrinks a hundredfold until
    f(lo) > target or lo < 1e-250 (near-threshold budgets under perfect
    cross knowledge need a multiplier far below the usual floor). Raises
    NumericsError, naming what, when 200 doublings or 300 midpoints run out.
    """
    for _ in range(200):
        if f(hi) <= target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericsError(f"failed to bracket the {what}")
    # ends: 280 shrinks take any float lo below 1e-250
    while not (f(lo) > target or lo < 1e-250):
        hi = min(hi, lo)
        lo *= 1e-2
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        e = f(mid)
        if abs(e - target) <= rel_tol * abs(target):
            return mid
        if e > target:
            lo = mid
        else:
            hi = mid
    raise NumericsError(f"{what} bisection did not converge in 300 steps")


def average_power_threshold(config: ScenarioConfig) -> float:
    """Mean interference cap: the budget level where the policy saturates.

    A budget at or above this value leaves the average-power constraint
    slack, so capacity stops growing with p_avg. Infinite under perfect
    cross-link knowledge (the cap has no finite mean there); the solver
    then saturates only once the budget exceeds what the tail-truncated
    state space can spend, beyond which capacity changes at tail-mass
    level.
    """
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, config.numerics)
    if capf.is_constant:
        return float(capf.constant)
    if capf.level is CsiLevel.PERFECT:
        return np.inf
    return _refine(capf.mean_cap, config.numerics)[0]


def solve_lambda(config: ScenarioConfig) -> PowerPolicy:
    """Solve the average-power equation and return the resulting policy.

    Saturation is decided first: when p_avg is at least the mean cap the
    multiplier is 0 and the policy transmits at the cap. Under perfect
    cross-link knowledge the reported threshold is infinite, but the
    truncated state space can only spend a finite average; budgets beyond
    that numeric limit saturate too (the capacity they forgo is at tail-
    mass level). Otherwise _bisect solves for the multiplier until the
    achieved average power is within lambda_rel_tol of the budget,
    relative, and raises NumericsError if it cannot. Each trial reads its
    own direct-link grid from _sl_grid, so a panel edge always sits on the
    zero-power kink; with an estimated direct link a missed entry costs
    one MGF row inversion (_mgf_invert_rate). The cap part of each trial
    comes from the cap table's tail integral (_CapField.capped_mean). The
    policy holds no grid: its capacity and expected power at the same
    panel count read the final trial's entry. A direct link without
    knowledge has no multiplier: its constant is the budget, or with
    rescale_no_csi_budget the one whose capped average meets it.
    """
    ns = config.numerics
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)
    p_star = average_power_threshold(config)
    panels = ns.base_panels * 2
    p_star_numeric = p_star if np.isfinite(p_star) else capf.mean_cap(panels)
    if config.p_avg >= min(p_star, p_star_numeric):
        return PowerPolicy(config, 0.0, "saturated", p_star, capf)

    if config.sl_csi.level is CsiLevel.NONE:
        const = config.p_avg
        if config.rescale_no_csi_budget and not capf.is_constant:
            # enlarge the constant until the capped average meets the budget;
            # the bracket exists because E[min(c, cap)] -> E[cap] > p_avg.
            # Each trial is a single cheap table lookup, so unlike the
            # multiplier solve there is no reason to leave slack here: a
            # budget residual would show up directly in a simulated average
            const = _bisect(lambda c: -float(capf.capped_mean(c)), -config.p_avg,
                            config.p_avg, 2.0 * config.p_avg, 1e-13,
                            "rescaled constant")
        return PowerPolicy(config, 0.0, "power_limited", p_star, capf,
                           no_csi_const=const)

    def achieved(lam: float) -> float:
        sl, A = _sl_grid(config.sl_csi, ns, panels, lam)
        return float(sl.w @ capf.capped_mean(A))

    lam = _bisect(achieved, config.p_avg, _LAMBDA_LO, 1.0, ns.lambda_rel_tol,
                  "power multiplier")
    return PowerPolicy(config, lam, "power_limited", p_star, capf)
