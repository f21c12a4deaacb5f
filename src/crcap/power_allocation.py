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

If the budget is at least the mean cap (the average-power threshold,
read off the cap table), the budget constraint is slack: lam = 0, and
the rule reads no direct-link state and a budget component of +inf, so
it transmits at the cap ("saturated" regime). Otherwise lam > 0 is found
by bisection on the average-power equation of one level (_multiplier;
"power_limited" regime); the low-budget limit is the same search
without the cap.

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
the same powers on one lattice in u = s P (_mgf_lattice) and sums it as
a Chebyshev series in log P. Every expectation over the cross-link state
belongs to the cap table _CapField: E[f(min(a, cap(t)))] is split at the
crossing state where the cap equals a (expect), so each quadrature piece
is smooth and converges spectrally. The power's part above the crossing
depends on the crossing state alone, so each cap table integrates it
once into a cumulative table, whose total is the mean cap and the one
saturation threshold (mean_cap), and the average-power equation reads it
off (capped_mean): a multiplier trial costs one Gauss-Legendre panel per
direct-link cell. The capacity's rate part is a quadrature on one grid
shared by the direct-link cells (shared_tail, with _SlGrid.rate_sums),
the on-off rate's one rule per threshold (tail_sum); under a perfect
cross link both are closed forms in E1 (rate_tail, burst_tail) unless
the direct link is estimated.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fading
from .fading import CsiKnowledge, CsiLevel
from .quadrature import _gl_rule, _refine, panel_rule, panel_rule_batch
from .special_functions import NumericsError, _scaled_e1_log, exp_integral_e1

__all__ = [
    "NumericSettings",
    "ScenarioConfig",
    "PowerPolicy",
    "average_power_threshold",
    "solve_lambda",
]

_GAIN_FLOOR = 1e-12   # divisor guard for perfect cross-link knowledge
_BURST_SERIES_CUT = 0.05    # |i_peak - 1| below which burst_tail sums a Taylor series
_BURST_SERIES_TERMS = 12    # of this many terms; both forms within 1.1e-13 of mpmath there
_LAMBDA_LO = 1e-12    # lower end of the multiplier bracket
_CAP_CACHE_SIZE = 64  # cap tables kept per process, one per cross-link setup
_GRID_CACHE_SIZE = 256  # direct-link grids (and budget series) kept per process
_BUDGET_SERIES_POINTS = 129  # row inversions behind a budget series
_SERIES_TAIL_TOL = 1e-10     # largest last-quarter coefficient of a resolved series, relative
# chebinterpolate's points, matrix and divisors at _BUDGET_SERIES_POINTS, built once
_SERIES_NODES = np.polynomial.chebyshev.chebpts1(_BUDGET_SERIES_POINTS)
_SERIES_BASIS = np.polynomial.chebyshev.chebvander(_SERIES_NODES, _BUDGET_SERIES_POINTS - 1).T
_SERIES_SCALE = np.r_[1.0, np.full(_BUDGET_SERIES_POINTS - 1, 0.5)] * _BUDGET_SERIES_POINTS
_ROW_INVERSION_STEPS = 100  # cap on bracketed Newton steps per row inversion
_RATE_KERNEL_TOL = 1e-15    # relative target of the log-power rate interpolant
_CHUNK_ELEMS = 2 ** 18      # largest intermediate of every row-blocked kernel
_MGF_STEP = 0.25            # trapezoid step in y = log s of the MGF rate kernels
_MGF_S_HI = 40.0            # top node s of the MGF rate kernels: e^-40 is left above
_MGF_S_LO = 1e-17           # their bottom node, times 1 / (P_max (m + alpha))
_MGF_TAIL_TERMS = 8         # K: Taylor terms of _mgf_rate's closed-form tail in s
# delta, that tail's cut in s top: K (K+1) delta^(K-1) = 2^-53 (see _mgf_rate_rule)
_MGF_TAIL_U = (2.0 ** -53 / math.perm(_MGF_TAIL_TERMS + 1, 2)) ** (1 / (_MGF_TAIL_TERMS - 1))


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
# quadrature grids over the conditioning states

def _state_upper(scale: float, tail_mass: float) -> float:
    """Top of every truncated Exp(scale) state range: tail_mass lies above."""
    return -scale * np.log(tail_mass)


def _exp_rule(scale: float, panels: int, points: int, tail_mass: float,
              lower: float = 0.0):
    """Nodes/weights for E over Exp(scale), truncated, weights include pdf.

    lower trims the range from below (used when everything beneath it is
    known to contribute zero); a lower at or past the truncation point
    yields an all-zero rule.
    """
    hi = _state_upper(scale, tail_mass)
    lo = min(max(lower, 0.0), hi)
    x, w = panel_rule(np.linspace(lo, hi, panels + 1), points)
    return x, w * np.exp(-x / scale) / scale


def _mgf_rule(top: float):
    """Nodes s and weights h e^{-s} of the trapezoid rule in y = log s.

    s = _MGF_S_HI e^{-k h}, h = _MGF_STEP, down to _MGF_S_LO / top, where
    top = max(P_max (m + alpha), 1) over the powers and states served.
    The integrands below decay like e^{-s} above and s P (m + alpha) below
    and are analytic for |Im y| < pi/2, so the rule errs like
    e^{-pi^2 / h} (Trefethen and Weideman, SIAM Review 56, 2014). The log
    rates sum every node; _mgf_rate_rule splits them for the rate.
    """
    y_hi = np.log(_MGF_S_HI)
    n = int(np.ceil((y_hi - np.log(_MGF_S_LO / max(top, 1.0))) / _MGF_STEP)) + 1
    s = np.exp(y_hi - _MGF_STEP * np.arange(n))
    return s, _MGF_STEP * np.exp(-s)


def _mgf_rate_rule(m: np.ndarray, alpha: float, top: float):
    """_mgf_rule(top) split at s top = delta = _MGF_TAIL_U for _mgf_rate
    at estimates m: head nodes s and weights w, and the tail's
    T[j, k] = mu_{k+1}(m_j) S_k / k!, k < K = _MGF_TAIL_TERMS, with
    S_k = sum of h e^{-s} s^{k+1} and mu_k = E[g^k | m] = k! alpha^k
    L_k(-m / alpha) = sum over i of k! C(k, i) / i! m^i alpha^{k-i}, whose
    terms are positive. On the tail u (m + alpha) < delta, and e^{-x} cut
    after K terms errs by at most x^K / K!, so as mu_k <= k! (m + alpha)^k
    a tail node errs by at most (K+1) delta^K e^{2 delta} relative in r and
    K (K+1) delta^{K-1} e^{3 delta} = 1.01 * 2^-53 in -r' (by Jensen,
    E[g^i e^{-u g}] >= mu_i e^{-u mu_{i+1} / mu_i}); so does each sum."""
    s, w = _mgf_rule(top)
    head = s * top >= _MGF_TAIL_U
    K = _MGF_TAIL_TERMS
    S = np.einsum("nk,n->k", np.vander(s[~head], K + 1, increasing=True)[:, 1:], w[~head])
    coef = [[math.comb(k, i) * math.factorial(k) // math.factorial(i) * alpha ** max(k - i, 0)
             for i in range(K + 1)] for k in range(1, K + 1)]
    mu = np.einsum("ji,ki->jk", np.vander(m, K + 1, increasing=True), coef)
    return s[head], w[head], mu * (S / [math.factorial(k) for k in range(K)])


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
              w: np.ndarray, T: np.ndarray):
    """r(P_j) = E[g / (1 + P_j g) | estimate m_j] and -r'(P_j) on the
    split rule (s, w, T) of _mgf_rate_rule, T's rows for the m_j.

    With M and D as in _mgf_log_rate, r(P) = integral of
    e^{-s} (-M'(s P)) ds and r'(P) = -integral of s e^{-s} M''(s P) ds,
    where -M' = E c / D^2 and M'' = E ((c + alpha)^2 - 2 alpha^2) / D^3
    for E = exp(-u m / D) and c = m / D + alpha, over the head nodes. On
    the tail -M'(u) = E[g e^{-u g}] = sum of (-u)^k mu_{k+1} / k!, so r's
    part there is p(-P) = sum of T_jk (-P)^k over k, and -r''s is p'(-P).
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
    x = np.vander(-P, _MGF_TAIL_TERMS, increasing=True)
    r = np.einsum("jn,jn,n->j", e, c, ws) + np.einsum("jk,jk->j", x, T)
    c += alpha
    c *= c
    c -= 2.0 * alpha * alpha
    c *= inv
    tail = np.einsum("jk,jk,k->j", x[:, :-1], T[:, 1:], np.arange(1, _MGF_TAIL_TERMS))
    return r, np.einsum("jn,jn,n->j", e, c, ws * s) + tail


def _mgf_invert_rate(m: np.ndarray, alpha: float, lam: float) -> np.ndarray:
    """Per-state root P_j of r(P) = E[g / (1 + P g) | estimate m_j] = lam.

    r and r' come from _mgf_rate on _mgf_rate_rule's split for powers up
    to 1/lam, moments once per call. States with m_j + alpha <= lam get
    P = 0; the others run Newton steps on 1/r(P) - 1/lam inside a bracket
    [lo, hi] kept from the sign of the residual; a step leaving the
    (inclusive) bracket is replaced by its midpoint. 1/r is exactly linear
    for a fixed gain (1/g + P), and the start 1/lam - 1/(m_j + alpha),
    Jensen's upper bound on the root (g / (1 + P g) is concave in g), is
    its root there. 1/lam brackets from above since g/(1+Pg) < 1/P. Raises
    NumericsError if a state has not converged after _ROW_INVERSION_STEPS.
    States are solved in blocks of at most _CHUNK_ELEMS head node values;
    each state's iterates depend on it alone.
    """
    mean = m + alpha
    out = np.zeros(m.size)
    active = np.flatnonzero(mean > lam)
    if active.size == 0:
        return out
    s, w, T = _mgf_rate_rule(m[active], alpha, float(mean[active].max()) / lam)
    tol = 1e-13 * max(1.0, 1.0 / lam)
    rows = max(1, _CHUNK_ELEMS // s.size)
    for a in range(0, active.size, rows):
        idx = active[a:a + rows]
        mj, Tj = m[idx], T[a:a + rows]
        lo = np.zeros(idx.size)
        hi = np.full(idx.size, 1.0 / lam)
        P = 1.0 / lam - 1.0 / mean[idx]
        todo = np.arange(idx.size)
        for _ in range(_ROW_INVERSION_STEPS):
            x = P[todo]
            r, slope = _mgf_rate(x, mj[todo], alpha, s, w, Tj[todo])
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


def _exponential_rate(power, tau=0.0) -> np.ndarray:
    """E[log(1 + P g); g >= tau] for unit-mean exponential g, 0 at P = 0:
    e^{-tau} (log(1 + P tau) + e^{tau + 1/P} E1(tau + 1/P)), elementwise,
    with tau broadcast against power.

    At tau = 0 it is e^{1/P} E1(1/P), the rate without direct-link
    knowledge: _mgf_log_rate's integral at m = 0, alpha = 1, where
    M(u) = 1 / (1 + u). The on-off scheme's burst rate is tau > 0.
    """
    P, tau = np.broadcast_arrays(np.asarray(power, dtype=float),
                                 np.asarray(tau, dtype=float))
    out = np.zeros(P.shape)
    pos = P > 0.0
    P, tau = P[pos], tau[pos]
    out[pos] = np.exp(-tau) * (np.log1p(P * tau)
                               + exp_integral_e1(tau + 1.0 / P, scaled=True))
    return out


def _log1p_ratio(c, x) -> np.ndarray:
    """log(1 + c/x) for c >= 0, x > 0; log c - log x where c/x overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        r = np.divide(c, x)
        return np.where(np.isfinite(r), np.log1p(r), np.log(c) - np.log(x))


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


def _log_rate_sums(m: np.ndarray, alpha: float, shared, own):
    """_SlGrid.rate_sums for estimated knowledge: the rates
    _mgf_log_rate(m, alpha, .) through a Chebyshev series in u = log P.

    Every row is sampled at the same L Chebyshev points spanning log P
    over all powers given, half-width at least 1e-3, on one lattice
    (_mgf_log_rate_shared); L comes from that span
    (_chebyshev_points_needed); chebinterpolate makes each row's series.
    The panel sums are one einsum of the series with the chebvander matrix
    of the shared powers, weighted and summed over each panel in advance;
    each row's own powers get a chebvander matrix of their own. Every
    reduction is a two-operand einsum in blocks of _CHUNK_ELEMS terms:
    einsum sums each row in an order that does not depend on the block,
    BLAS matmul does not.
    """
    (P, w), (Q, v) = shared, own
    u_lo, u_hi = np.log(min(P.min(), Q.min())), np.log(max(P.max(), Q.max()))
    centre, half = 0.5 * (u_lo + u_hi), max(0.5 * (u_hi - u_lo), 1e-3)
    L = _chebyshev_points_needed(half)
    cheb = np.polynomial.chebyshev
    c = cheb.chebinterpolate(
        lambda x: _mgf_log_rate_shared(m, alpha, np.exp(centre + half * x)).T, L - 1).T
    C = np.empty((L, P.shape[0]))
    step = max(1, _CHUNK_ELEMS // (P.shape[1] * L))
    for s in range(0, P.shape[0], step):
        V = cheb.chebvander((np.log(P[s:s + step]) - centre) / half, L - 1)
        C[:, s:s + step] = np.einsum("pnl,pn->lp", V, w[s:s + step])
    own_sums = np.empty(m.size)
    step = max(1, _CHUNK_ELEMS // (Q.shape[1] * L))
    for s in range(0, m.size, step):
        V = cheb.chebvander((np.log(Q[s:s + step]) - centre) / half, L - 1)
        r = np.einsum("jnl,jl->jn", V, c[s:s + step])
        own_sums[s:s + step] = np.einsum("jn,jn->j", r, v[s:s + step])
    return np.einsum("jl,lp->jp", c, C), own_sums


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
    that kink would otherwise degrade the quadrature order. A level
    (_sl_grid, PowerPolicy._grid) also holds A, _budget_component at lam,
    and is read-only apart from its write-once memo of spent() (_spent).
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

    def rate_cells(self, power: np.ndarray, rows=slice(None)) -> np.ndarray:
        """E[log(1 + P g) | cell j] for the cells j in rows at powers P.

        power has shape (J,) or (J, K), J the number of cells in rows; the
        result matches. A closed-form rate also takes (1, K) powers shared
        by every cell. With estimated knowledge it is the trapezoid sum of
        _mgf_log_rate, whose nodes depend on every row it is given; the
        capacity's tail reads its rates through rate_sums instead.
        """
        P = np.asarray(power, dtype=float)
        if self.csi.level is CsiLevel.NONE:
            return _exponential_rate(P)
        if self.csi.level is CsiLevel.PERFECT:
            state = self.state[rows]
            return np.log1p(P * (state if P.ndim == 1 else state[:, None]))
        if P.ndim == 1:
            return self.rate_cells(P[:, None], rows)[:, 0]
        return _mgf_log_rate(self.state[rows], self.csi.alpha, P)

    def rate_sums(self, shared, own, rows: np.ndarray):
        """Weighted sums of the cells' rates, for the cells j in rows (an
        index array): rate_cells' form for powers shared by every cell.

        shared = (P, w), both (panels, n): powers every cell shares, each
        cell's sums taken per panel, (J, panels). own = (Q, v), both
        (J, n): each cell's own powers, one sum per cell, (J,). Every
        power is positive. With estimated knowledge each cell is sampled
        once at Chebyshev powers spanning all of them (_log_rate_sums).
        Closed-form rates run in blocks of cells of _CHUNK_ELEMS values.
        """
        if self.csi.level is CsiLevel.ESTIMATED:
            return _log_rate_sums(self.state[rows], self.csi.alpha, shared, own)
        (P, w), (Q, v) = shared, own
        sums = np.empty((rows.size, P.shape[0]))
        step = max(1, _CHUNK_ELEMS // P.size)
        for s in range(0, rows.size, step):
            r = self.rate_cells(P.reshape(1, -1), rows[s:s + step])
            sums[s:s + step] = np.einsum("jpn,pn->jp", r.reshape(-1, *P.shape), w)
        return sums, np.einsum("jn,jn->j", self.rate_cells(Q, rows), v)

    @functools.cached_property
    def _spent(self) -> weakref.WeakKeyDictionary:
        """Cap table -> spent(table), weak on the table, so a table dropped
        from _cap_table and from every policy leaves no entry."""
        return weakref.WeakKeyDictionary()

    def spent(self, capf: Optional[_CapField]) -> float:
        """The level's average power sum w E[min(A, cap)], capless for None;
        capped, integrated once per cap table (_spent)."""
        if capf is None:
            return float(self.w @ self.A)
        value = self._spent.get(capf)
        if value is None:
            value = self._spent[capf] = float(self.w @ capf.capped_mean(self.A))
        return value

    def rate(self, capf: Optional[_CapField], panels: int) -> float:
        """The level's capacity sum w E[log(1 + min(A, cap) g)], capless for None."""
        if capf is None:
            return float(self.w @ self.rate_cells(self.A))
        if capf.level is not CsiLevel.PERFECT or self.csi.level is CsiLevel.ESTIMATED:
            tail = functools.partial(capf.shared_tail, sums=self.rate_sums, panels=panels)
        else:
            # closed forms at each cell's state: rate_tail at the gain, or, for
            # an unknown link's one cell (state 0), burst_tail at tau = 0
            closed = capf.rate_tail if self.csi.level is CsiLevel.PERFECT else capf.burst_tail

            def tail(t_star, rows):
                return closed(t_star, self.state[rows])
        return float(self.w @ capf.expect(self.A, self.rate_cells, tail))


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _sl_grid(csi: CsiKnowledge, settings: NumericSettings, panels: int,
             lam: float) -> _SlGrid:
    """A direct link's level: its grid at panels from lam's boundary and its
    budget component A at lam (_budget_component, the policy's own rule),
    read-only. One entry serves every search, capacity level and thread in
    the process; an estimated level at any panel count reads lam's budget
    series and inverts no row. Threads that miss together each build the
    same bits; no lock, so sweep threads never wait. It holds a
    knowledge_grid round's 91 keys, or the 161 of low_budget_asymptote's P
    and E direct, perfect cross set at -10, 0, 10 and 13 dB.
    """
    sl = _SlGrid(csi, settings, panels, lam=lam)
    sl.A = _budget_component(csi, settings, lam, sl.state)
    for a in (sl.state, sl.w, sl.A):
        a.setflags(write=False)
    return sl


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _budget_series(csi: CsiKnowledge, settings: NumericSettings, lam: float):
    """An estimated direct link's budget component at lam as (m_c, m_hi,
    series, dropped): 0 below m_c = max(lam - alpha, 0), on [m_c, m_hi] a
    Chebyshev series in x = log(m + alpha), near the entire 1/lam - e^-x,
    interpolating _mgf_invert_rate at _BUDGET_SERIES_POINTS points (as
    Chebyshev.interpolate does); m_hi = max(_state_upper, m_c + 1). It is
    chopped after its last term above twice its noise plateau, the largest
    coefficient of its last quarter (after Aurentz and Trefethen, ACM TOMS
    43(4), 2017); dropped is the largest term cut off. A plateau above
    _SERIES_TAIL_TOL of the largest term raises NumericsError: the
    samples have not resolved the component. Memoised like _sl_grid."""
    alpha = csi.alpha
    m_c = max(lam - alpha, 0.0)
    m_hi = max(_state_upper(1.0 - alpha, settings.tail_mass), m_c + 1.0)
    domain = np.log([m_c + alpha, m_hi + alpha])
    x = np.polynomial.polyutils.mapdomain(_SERIES_NODES, [-1.0, 1.0], domain)
    coef = _SERIES_BASIS @ _mgf_invert_rate(np.exp(x) - alpha, alpha, lam) / _SERIES_SCALE
    env = np.maximum.accumulate(np.abs(coef[::-1]))[::-1]
    plateau = env[-(env.size // 4)]
    if plateau > _SERIES_TAIL_TOL * env[0]:
        raise NumericsError(f"budget series at lam={lam:.6g} reached no plateau: its last "
                            f"quarter rises to {plateau / env[0]:.3g} of its largest term")
    keep = max(int(np.count_nonzero(env > 2.0 * plateau)), 1)
    return m_c, m_hi, np.polynomial.Chebyshev(coef[:keep], domain), float(env[keep])


def _budget_component(csi: CsiKnowledge, settings: NumericSettings, lam: float,
                      state) -> np.ndarray:
    """The budget component at lam of a direct link with knowledge at its
    states, the one rule every level and every policy reads. Perfect:
    water-filling max(0, 1/lam - 1/g) on the gain g, exactly 0 for
    g <= lam, which the _GAIN_FLOOR divisor misses when lam < _GAIN_FLOOR.
    Estimated: lam's budget series (_budget_series) on the estimate."""
    s = np.asarray(state, dtype=float)
    if csi.level is CsiLevel.PERFECT:
        out = np.maximum(1.0 / lam - 1.0 / np.maximum(s, _GAIN_FLOOR), 0.0)
        return np.where(s <= lam, 0.0, out)
    m_c, m_hi, series, _ = _budget_series(csi, settings, lam)
    # strict: when the kink sits at m = 0 the component there is positive
    x = np.log(np.clip(s, m_c, m_hi) + csi.alpha)
    return np.where(s < m_c, 0.0, np.maximum(series(x), 0.0))


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
        i = np.minimum(np.maximum(np.searchsorted(self._x, flat, side="right") - 1, 0),
                       self._x.size - 2)
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
    cap equals a given level, and every expectation over the state: of
    f(min(a, cap)) split there (expect) and of the cap (mean_cap).
    For estimated knowledge the conditional quantile is tabulated once on
    a dense grid and evaluated through monotone (PCHIP) interpolation;
    this table is the library's only interference cap (per sample:
    PowerPolicy.cap_component).

    The cap tail G(s) = integral of cap(t) p(t) over [s, upper] is
    tabulated once as well, at knots where cap is smooth in between: the
    1025 PCHIP knots (one cubic piece per interval) under estimated
    knowledge; under perfect knowledge the floor 1e-13 below which
    states are dropped, then _GAIN_FLOOR, where the cap stops being
    constant, and 256 geometric intervals up to upper. Each interval is
    one Gauss-Legendre panel of quad_points nodes; tail_integral adds one
    more panel from s to the next knot; G at the first knot is mean_cap,
    the saturation threshold. A multiplier trial then costs one
    panel per direct-link cell, and its value does not depend on the
    trial's panel count. Under perfect knowledge the capacity's rate tail
    and the on-off burst tail are closed forms in E1 as well (rate_tail,
    burst_tail); otherwise they run on one grid shared by the direct-link
    cells (shared_tail) and on one rule per threshold (tail_sum).

    Build instances through _cap_field: one instance per cross-link
    setup is shared by every policy and thread in the process, so the
    class must stay immutable after __init__ apart from its write-once
    memo plateau, the saturated (capacity, error).
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
            self.mean_cap = float(self.constant)
            return
        self.constant = None
        if self.level is CsiLevel.PERFECT:
            self.upper = _state_upper(1.0, settings.tail_mass)
            knots = np.concatenate(([1e-13], np.geomspace(_GAIN_FLOOR, self.upper, 257)))
        else:
            self.upper = _state_upper(1.0 - csi.alpha, settings.tail_mass)
            knots = np.linspace(0.0, self.upper, 1025)
            q = fading.conditional_power_inv_cdf(1.0 - epsilon, knots, csi.alpha)
            self._q_of_m = _Pchip(knots, q)
            self._m_of_q = _Pchip(q, knots)
            self._q_lo = float(q[0])
            self._q_hi = float(q[-1])
        self._knots = knots
        panel = self._panel_integral(knots[:-1], knots[1:])
        self._tail = np.append(np.cumsum(panel[::-1])[::-1], 0.0)
        self.mean_cap = float(self._tail[0])   # G at the first knot: the saturation threshold
        self._cap0 = float(self.cap(0.0))   # the largest cap: expect's head stays below it

    @property
    def is_constant(self) -> bool:
        return self.level is CsiLevel.NONE

    def cap(self, t):
        """i_peak over the (1 - epsilon) gain quantile at state t."""
        t = np.asarray(t, dtype=float)
        if self.is_constant:
            return np.full(t.shape, self.constant)
        if self.level is CsiLevel.PERFECT:
            return self.i_peak / np.maximum(t, _GAIN_FLOOR)
        return self.i_peak / np.maximum(self._q_of_m(np.clip(t, 0.0, self.upper)), self._q_lo)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.level is CsiLevel.PERFECT:
            return fading.marginal_power_cdf(t)
        return 1.0 - np.exp(-np.maximum(t, 0.0) / (1.0 - self.csi.alpha))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.level is CsiLevel.PERFECT:
            return fading.marginal_power_pdf(t)
        return np.exp(-np.maximum(t, 0.0) / (1.0 - self.csi.alpha)) / (1.0 - self.csi.alpha)

    def crossing_state(self, a):
        """State t* with cap(t*) = a, clipped to [0, upper].

        The cap decreases in t, so min(a, cap(t)) equals a below t* and
        cap(t) above; splitting expectations there keeps both integrands
        smooth. a = 0 maps to upper (the cap never reaches zero). q* =
        i_peak / a is positive and the interpolated t* never -0.0, so
        np.minimum and np.maximum clip them as np.clip would.
        """
        a = np.asarray(a, dtype=float)
        q_star = np.where(a > 0.0, self.i_peak / np.maximum(a, 1e-300), np.inf)
        if self.level is CsiLevel.PERFECT:
            return np.minimum(q_star, self.upper)
        t = np.where(q_star >= self._q_hi, self.upper,
                     np.where(q_star <= self._q_lo, 0.0,
                              self._m_of_q(np.minimum(np.maximum(q_star, self._q_lo), self._q_hi))))
        return np.minimum(np.maximum(t, 0.0), self.upper)

    def tail_rule(self, t_star: np.ndarray, panels: int):
        """Per-row rule for E over states above t_star; weights include pdf."""
        nodes, w = panel_rule_batch(t_star, self.upper, panels, self.settings.quad_points)
        return nodes, w * self.pdf(nodes)

    def _panel_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """One Gauss-Legendre panel of cap * pdf over each [lo_j, hi_j]."""
        x, w = _gl_rule(self.settings.quad_points)
        half = 0.5 * (hi - lo)[..., None]
        nodes = lo[..., None] + half * (x + 1.0)
        return (half * w * self.cap(nodes) * self.pdf(nodes)).sum(axis=-1)

    def tail_integral(self, t_star):
        """G(t*): the integral of cap * pdf over [t*, upper], from the table.

        States below the first knot count as the first knot, so with
        perfect knowledge G(t*) = G(1e-13) for t* <= 1e-13. t* comes from
        crossing_state, never -0.0, so np.maximum clips it as np.clip would.
        """
        knots = self._knots
        t = np.minimum(np.maximum(np.asarray(t_star, dtype=float), knots[0]), self.upper)
        i = np.minimum(np.searchsorted(knots, t, side="right"), knots.size - 1)
        return self._tail[i] + self._panel_integral(t, knots[i])

    def rate_tail(self, t_star, g):
        """T(t*): the integral of log(1 + cap(t) g) pdf(t) over the states
        [max(t*, 1e-13), upper], for a direct gain g.

        Perfect knowledge only, in closed form. With c = i_peak g,
        b = max(t*, 1e-13, _GAIN_FLOOR) and Ê1 the exp-scaled E1,
        integration by parts gives
        ∫_b^x log(1 + c/t) e^{-t} dt = [e^{-t} (Ê1(t) - Ê1(t + c)
        - log(1 + c/t))] from t = b to x, finite for any finite c. Where
        t < 1 and t < c, Ê1(t) - log(1 + c/t) is summed as
        (Ê1(t) + log t) - log(t + c), without their shared -log t. Below
        _GAIN_FLOOR the cap is the constant i_peak / _GAIN_FLOOR. 0 when
        t* >= upper.
        """
        c = self.i_peak * np.asarray(g, dtype=float)
        a = np.maximum(np.asarray(t_star, dtype=float), 1e-13)
        b = np.maximum(a, _GAIN_FLOOR)

        def primitive(x):
            far = exp_integral_e1(x + c, scaled=True)
            out = exp_integral_e1(x, scaled=True) - far - _log1p_ratio(c, x)
            small = (x < 1.0) & (c > x)   # Ê1(x) and log(1 + c/x) both near -log x
            if np.any(small):
                out = np.where(small, _scaled_e1_log(x) - np.log(x + c) - far, out)
            return np.exp(-x) * out

        sliver = _log1p_ratio(c, _GAIN_FLOOR) * -np.expm1(a - b) * np.exp(-a)
        return np.where(a < self.upper,
                        primitive(self.upper) - primitive(b) + sliver, 0.0)

    def burst_tail(self, t_star, tau):
        """rate_tail's on-off twin: the integral of the burst rate
        _exponential_rate(cap(t), tau) pdf(t) over the same states, per tau.
        Perfect knowledge only, in closed form: e^{-tau} rate_tail(t*, tau)
        plus, from e^{t/I} E1(tau + t/I) (I = i_peak), the primitive
        I e^{-tau-t} (Ê1(y) - Ê1(I y)) / (1 - I) at y = tau + t/I. Near
        I = 1 the quotient is the Taylor series of Ê1(I y) about y, with
        Ê1^(k) = Ê1^(k-1) + (-1)^k (k-1)!/y^k; it is exact at I = 1.
        """
        i_peak = self.i_peak
        a = np.maximum(np.asarray(t_star, dtype=float), 1e-13)
        b = np.maximum(a, _GAIN_FLOOR)

        def primitive(x):
            y = tau + x / i_peak
            q = exp_integral_e1(y, scaled=True)
            if abs(i_peak - 1.0) >= _BURST_SERIES_CUT:
                q = (q - exp_integral_e1(i_peak * y, scaled=True)) / (1.0 - i_peak)
            else:
                term, q, power = q, 0.0, 1.0      # term_k = Ê1^(k)(y) y^k / k!
                for k in range(1, _BURST_SERIES_TERMS + 1):
                    term = term * y / k + (-1.0) ** k / k
                    q, power = q + power * term, power * (i_peak - 1.0)
            return i_peak * np.exp(-x) * q

        sliver = (exp_integral_e1(tau + _GAIN_FLOOR / i_peak, scaled=True)
                  * -np.expm1(a - b) * np.exp(-a))
        return np.exp(-tau) * (self.rate_tail(t_star, tau) + np.where(
            a < self.upper, primitive(self.upper) - primitive(b) + sliver, 0.0))

    def expect(self, A: np.ndarray, f, tail) -> np.ndarray:
        """E over states t of f_j(min(A_j, cap(t))), per row j of the 1-D A.

        f(P, rows) evaluates f_j for the rows (a slice or an index array)
        at powers P shaped (J,) or (J, K). Split at each crossing state t*_j:
        f_j(min(A_j, cap(0))) F(t*_j) below it, and above it tail(t*[rows],
        rows) for the rows whose t* lies below upper (not called when there
        are none): tail_integral, rate_tail, burst_tail, shared_tail or
        tail_sum. F(t*) = 0 means no head; a constant cap needs no split.
        """
        if self.is_constant:
            return f(np.minimum(A, self.constant), slice(None))
        t_star = self.crossing_state(A)
        F = self.cdf(t_star)
        head = np.where(F > 0.0, f(np.minimum(A, self._cap0), slice(None)) * F, 0.0)
        above = np.zeros_like(head)
        rows = np.flatnonzero(t_star < self.upper)
        if rows.size:
            above[rows] = tail(t_star[rows], rows)
        return head + above

    def tail_sum(self, t_star: np.ndarray, rows: np.ndarray, f,
                 panels: int) -> np.ndarray:
        """expect's tail by quadrature, one rule per row: the sum of
        wt f(cap(nodes), rows) over tail_rule's nodes above the row's t*,
        in blocks of rows so no intermediate outgrows _CHUNK_ELEMS
        elements. A row's sum depends on its own t* and f alone, so the
        on-off rate of a threshold does not depend on the other thresholds
        of its call.
        """
        out = np.empty(rows.size)
        step = max(1, _CHUNK_ELEMS // (panels * self.settings.quad_points))
        for s in range(0, rows.size, step):
            nodes, wt = self.tail_rule(t_star[s:s + step], panels)
            out[s:s + step] = (wt * f(self.cap(nodes), rows[s:s + step])).sum(axis=1)
        return out

    def shared_tail(self, t_star: np.ndarray, rows: np.ndarray, sums,
                    panels: int) -> np.ndarray:
        """expect's tail by quadrature on one grid shared by the rows.

        The grid has panels Gauss-Legendre panels of quad_points nodes
        from the lowest t* to upper: geometric above a 1e-13
        floor under perfect knowledge, linear under estimated. Row j adds
        one panel of its own from t*_j up to the next knot, and its tail
        is that panel plus its panel sums from that knot up, a reverse
        cumulative sum like the cap-tail table's. The cap and pdf are
        evaluated once per shared node. sums(shared, own, rows) takes
        (powers, weights) pairs shaped (panels, n) and (rows, n) and
        returns each row's panel sums (rows, panels) and own-panel sums
        (rows,) (_SlGrid.rate_sums).
        """
        pts = self.settings.quad_points
        lo = float(t_star.min())
        if self.level is CsiLevel.PERFECT:
            lo = max(lo, 1e-13)
            knots = np.geomspace(lo, self.upper, panels + 1)
        else:
            knots = np.linspace(lo, self.upper, panels + 1)
        t = np.maximum(t_star, lo)
        i = np.searchsorted(knots, t)   # the first knot at or above t*
        nodes, w = panel_rule(knots, pts)
        own, v = panel_rule_batch(t, knots[i], 1, pts)
        panel_sums, own_sums = sums(
            (self.cap(nodes).reshape(panels, pts), (w * self.pdf(nodes)).reshape(panels, pts)),
            (self.cap(own), v * self.pdf(own)), rows)
        above = np.zeros((rows.size, panels + 1))
        above[:, :-1] = np.cumsum(panel_sums[:, ::-1], axis=1)[:, ::-1]
        return own_sums + above[np.arange(rows.size), i]

    def capped_mean(self, a):
        """E over states of min(a, cap(t)), per level in a (any shape):
        a F(t*) below the crossing state, G(t*) from the table above it."""
        a = np.asarray(a, dtype=float)
        mean = self.expect(a.ravel(), lambda P, rows: P,
                           lambda t_star, rows: self.tail_integral(t_star))
        return mean.reshape(a.shape)

    @functools.cached_property
    def plateau(self) -> tuple:
        """The saturated policy's (capacity, error): its level is one cell
        without direct-link knowledge at A = inf whatever the direct link
        and p_avg, so each table refines it once."""
        def rate(panels):
            sl = _SlGrid(CsiKnowledge.no_csi(), self.settings, panels)
            sl.A = np.array([np.inf])
            return sl.rate(self, panels)
        return _refine(rate, self.settings)


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


# ----------------------------------------------------------------------
# the solved policy

class PowerPolicy:
    """Solved transmit-power rule for one scenario.

    power(sl_state, cl_state) evaluates the rule per sample; states that a
    knowledge level does not provide are ignored and may be None. Its
    budget component is _budget_component, the rule its levels (_grid, from
    _sl_grid) integrate; none is held. Saturated, it reads no direct-link
    state and its budget component is +inf: one cell at A = inf.
    """

    def __init__(self, config: ScenarioConfig, lam: float, regime: str,
                 p_avg_star: float, cap_field: _CapField,
                 no_csi_const: Optional[float] = None):
        self.config = config
        self.lam = float(lam)
        self.regime = regime
        self.p_avg_star = float(p_avg_star)
        self._capf = cap_field
        self._no_csi_const = config.p_avg if no_csi_const is None else no_csi_const
        self._sl_csi = CsiKnowledge.no_csi() if regime == "saturated" else config.sl_csi

    # -- interface requirements ----------------------------------------
    @property
    def sl_state_kind(self) -> str:
        """Which direct-link state power() reads: none, gain, or estimate."""
        return self._sl_csi.state_kind

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
        if self._sl_csi.level is CsiLevel.NONE:
            out = np.full(np.shape(sl_state), float(self._no_csi_const))
        elif sl_state is None:
            raise ValueError("this policy needs a direct-link state")
        else:
            out = _budget_component(cfg.sl_csi, cfg.numerics, self.lam, sl_state)
        return out if out.ndim else float(out)

    def power(self, sl_state=None, cl_state=None):
        """Transmit power for per-sample states (vectorized)."""
        cap = self.cap_component(cl_state)
        return np.minimum(self.budget_component(sl_state), cap)

    def expected_power(self, panels: Optional[int] = None) -> float:
        """Average transmitted power under this policy (diagnostic): the
        mean cap, bit for bit, when saturated."""
        return self._grid(panels or self.config.numerics.base_panels * 2).spent(self._capf)

    def _grid(self, panels: int) -> _SlGrid:
        """The level _sl_grid at lam (a copy with a changed lam reads another
        entry); without direct-link knowledge the one cell, A the constant."""
        cfg = self.config
        if self._sl_csi.level is CsiLevel.NONE:
            sl = _SlGrid(self._sl_csi, cfg.numerics, panels)
            sl.A = np.array([self.budget_component()])
            return sl
        return _sl_grid(cfg.sl_csi, cfg.numerics, panels, self.lam)


# ----------------------------------------------------------------------
# multiplier search

class _Replay:
    """The points one bisection has evaluated, and the midpoints they decide.

    A side is +1 above the band |f - target| <= tol, 0 in it, -1 below it.
    For a non-increasing f: x <= y with y above the band is above it,
    x >= y with y below it is below it, x between two points in it is in it.
    """

    def __init__(self, f, target: float, tol: float):
        self.f, self.target, self.tol = f, target, tol
        self.seen = {}
        self.above = -math.inf           # largest point above the band
        self.below = math.inf            # smallest point below it
        self.band = (math.inf, -math.inf)  # smallest and largest point in it

    def side(self, e: float) -> int:
        if abs(e - self.target) <= self.tol:
            return 0
        return 1 if e > self.target else -1

    def value(self, x: float) -> float:
        if x not in self.seen:
            e = self.seen[x] = self.f(x)
            s = self.side(e)
            if s > 0:
                self.above = max(self.above, x)
            elif s < 0:
                self.below = min(self.below, x)
            else:
                self.band = (min(self.band[0], x), max(self.band[1], x))
        return self.seen[x]

    def known(self, x: float) -> Optional[int]:
        """x's side if the points evaluated decide it, else None."""
        if x in self.seen:
            return self.side(self.seen[x])
        if x <= self.above:
            return 1
        if x >= self.below:
            return -1
        if self.band[0] <= x <= self.band[1]:
            return 0
        return None

    def model(self, lo: float):
        """f's secant through the two points evaluated nearest the target:
        log f against log x, linear where a sign or a tie forbids that."""
        (x1, e1), (x2, e2) = sorted(self.seen.items(),
                                    key=lambda p: abs(p[1] - self.target))[:2]
        if self.target > 0 and min(lo, x1, x2, e1, e2) > 0:
            u1, u2 = math.log(x1), math.log(x2)
            if u1 != u2:
                v1 = math.log(e1)
                slope = (math.log(e2) - v1) / (u2 - u1)
                return lambda x: math.exp(min(v1 + slope * (math.log(x) - u1), 709.0))
        slope = (e2 - e1) / (x2 - x1)
        return lambda x: e1 + slope * (x - x1)

    def predict(self, lo: float, hi: float, steps: int):
        """The rest of the path from (lo, hi) as the model sees it: the
        midpoints the points do not decide, with their predicted sides, and
        the predicted stop (None if the path runs out first)."""
        model = self.model(lo)
        path = []
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            s = self.known(mid)
            if s is None:
                s = self.side(model(mid))
                path.append((mid, s))
            if s == 0:
                return path, mid
            lo, hi = (mid, hi) if s > 0 else (lo, mid)
        return path, None

    def settle(self, lo: float, hi: float, steps: int) -> None:
        """Evaluate what should decide the undecided midpoint of (lo, hi):
        the predicted stop, then, if that does not, the last lo (or hi) on
        the midpoint's side of the path predicted anew from what it showed."""
        stop = self.predict(lo, hi, steps)[1]
        if stop is not None:
            self.value(stop)
        if self.known(0.5 * (lo + hi)) is None:
            path = self.predict(lo, hi, steps)[0]
            side = path[0][1]  # the midpoint's
            ends = [x for x, s in path if s == side]
            self.value(min(ends) if side < 0 else max(ends))


def _bisect(f, target: float, lo: float, hi: float, rel_tol: float,
            what: str) -> float:
    """The first bisection midpoint x with |f(x) - target| <= rel_tol
    |target|, for a non-increasing f; f has been evaluated at x.

    hi doubles until f(hi) <= target, then lo shrinks a hundredfold until
    f(lo) > target or lo < 1e-250 (near-threshold budgets under perfect
    cross knowledge need a multiplier far below the usual floor). Raises
    NumericsError, naming what, when 200 doublings or 300 midpoints run out.

    The midpoints are replayed, not all evaluated: a midpoint is evaluated
    only when the points evaluated so far cannot decide its side of the
    band (_Replay). Once lo has left the bracket's end, an undecided
    midpoint is first settled by a secant model of f that predicts the
    rest of the path (_Replay.settle); every probe is a midpoint some path
    visits, and the returned midpoint is always evaluated. The model only
    picks which points to evaluate: the returned x and every error are
    those of the bisection that evaluates every midpoint (tests/oracles.py,
    plain_bisect). That exactness rests on the computed f being
    non-increasing; a computed f that rises somewhere may give another x.
    """
    replay = _Replay(f, target, rel_tol * abs(target))
    for _ in range(200):
        if replay.value(hi) <= target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericsError(f"failed to bracket the {what}")
    # ends: 280 shrinks take any float lo below 1e-250
    while not (replay.value(lo) > target or lo < 1e-250):
        hi = min(hi, lo)
        lo *= 1e-2
    end = lo
    for step in range(300):
        mid = 0.5 * (lo + hi)
        s = replay.known(mid)
        if s is None and lo != end:
            replay.settle(lo, hi, 300 - step)
            s = replay.known(mid)
        if s is None or s == 0:
            s = replay.side(replay.value(mid))
        if s == 0:
            return mid
        if s > 0:
            lo = mid
        else:
            hi = mid
    raise NumericsError(f"{what} bisection did not converge in 300 steps")


def _multiplier(config: ScenarioConfig, capf: Optional[_CapField], panels: int,
                rel_tol: float, what: str) -> float:
    """_bisect's lam on [_LAMBDA_LO, 1] whose level at panels spends p_avg
    within rel_tol, capped by capf or, for None, capless. The search reads
    a level from _sl_grid only at the midpoints that decide its answer."""
    def spent(lam: float) -> float:
        return _sl_grid(config.sl_csi, config.numerics, panels, lam).spent(capf)

    return _bisect(spent, config.p_avg, _LAMBDA_LO, 1.0, rel_tol, what)


def average_power_threshold(config: ScenarioConfig) -> float:
    """Mean interference cap (_CapField.mean_cap): the budget level where
    the policy saturates.

    A budget at or above this value leaves the average-power constraint
    slack, so capacity stops growing with p_avg. Infinite under perfect
    cross-link knowledge (the cap has no finite mean there), although the
    solver saturates there too at the truncated states' mean cap.
    """
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, config.numerics)
    return np.inf if capf.level is CsiLevel.PERFECT else capf.mean_cap


def solve_lambda(config: ScenarioConfig) -> PowerPolicy:
    """Solve the average-power equation and return the resulting policy.

    Saturation is decided first: when p_avg is at least the cap table's
    mean cap (_CapField.mean_cap, finite under perfect cross-link knowledge
    too, where the reported threshold is infinite) the multiplier is 0: the
    policy reads no direct-link state and transmits at the cap, its budget
    component +inf. Otherwise _multiplier bisects until the achieved
    average power is within lambda_rel_tol of the budget, relative, and
    raises NumericsError if it cannot. The bisection is replayed (_bisect):
    it evaluates only the midpoints that decide its answer, and returns the
    midpoint that evaluating every one would. Each evaluated trial reads
    its own level from _sl_grid, so a panel edge always sits on the
    zero-power kink; with an estimated direct link a new multiplier builds
    the budget series (_budget_series) its levels read. The cap part of
    each trial comes from the cap table's tail integral
    (_CapField.capped_mean). The policy holds no grid: its capacity and
    expected power read its multiplier's levels. A direct link without
    knowledge has no multiplier: its constant is the budget, or with
    rescale_no_csi_budget the one whose capped average meets it.
    """
    ns = config.numerics
    capf = _cap_field(config.cl_csi, config.i_peak, config.epsilon, ns)
    p_star = average_power_threshold(config)
    if config.p_avg >= capf.mean_cap:
        return PowerPolicy(config, 0.0, "saturated", p_star, capf, no_csi_const=np.inf)

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

    lam = _multiplier(config, capf, ns.base_panels * 2, ns.lambda_rel_tol, "power multiplier")
    return PowerPolicy(config, lam, "power_limited", p_star, capf)
