"""Scalar oracles for the conditional law of the true power given its estimate.

Given the estimate power m of an MMSE channel estimate with error
variance alpha, the true power g has the noncentral chi-square law with
2 degrees of freedom

    f(g | m) = (1/alpha) exp(-(g + m)/alpha) I0(2 sqrt(m g)/alpha),

with mean m + alpha and cdf 1 - Q1(sqrt(2m/alpha), sqrt(2g/alpha)).
The library evaluates this law only through its moment generating
function and scipy's chndtrix; the tests check those kernels against the
density, the Marcum-Q cdf and the adaptive quadrature here. The
per-sample interference cap on the exact quantile and the on-off rule
built on it serve the Monte Carlo checks of the library's cap table and
on-off rate. Water-filling without a binding cap and the best on-off
rate under a constant cap have closed forms in E1 (water_filling,
best_onoff_rate_constant_cap). plain_bisect is the bisection the multiplier search replays,
and plain_sample_channel_pair the sampler before it drew in place.
Nothing here imports from crcap
(test_oracles_share_no_code_with_crcap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate, optimize
from scipy import special as _sp

# the rate integral's integration range leaves out this conditional mass
_RATE_TAIL_MASS = 1e-16
_GAIN_FLOOR = 1e-12  # divisor guard for a perfectly known cross gain


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


# ----------------------------------------------------------------------
# first-order Marcum Q function

def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b).

    Poisson-mixture form: Q1 = sum_n Pois(n; a^2/2) * P(Pois(b^2/2) <= n),
    summed outward from the Poisson mode with log-domain initialization, so
    a^2/2 in the thousands is fine. Wings truncate when the running term
    drops below 1e-14 of the partial sum; hard cap of 1e5 terms. Absolute
    error is below 1e-10.
    """
    a, a_scalar = _as_array(a)
    b, b_scalar = _as_array(b)
    scalar = a_scalar and b_scalar
    a, b = np.broadcast_arrays(a, b)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")

    out = np.empty(a.shape, dtype=float)
    zero_b = b == 0.0
    zero_a = (a == 0.0) & ~zero_b
    out[zero_b] = 1.0
    out[zero_a] = np.exp(-0.5 * b[zero_a] ** 2)

    gen = ~zero_b & ~zero_a
    if gen.any():
        out[gen] = _marcum_series(a[gen], b[gen])

    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def _marcum_series(a, b):
    shape = a.shape
    u = (0.5 * a * a).ravel()
    v = (0.5 * b * b).ravel()
    n0 = np.floor(u)

    lg = _sp.gammaln(n0 + 1.0)
    pu = np.exp(n0 * np.log(u) - u - lg)   # Pois(u) pmf at the mode
    pv = np.exp(n0 * np.log(v) - v - lg)   # Pois(v) pmf at the same index
    g0 = _sp.gammaincc(n0 + 1.0, v)        # P(Pois(v) <= n0)

    total = pu * g0
    budget = 100_000

    # upward wing; lanes drop out once their term falls below 1e-14 * sum
    pos = np.arange(u.size)
    p, q, g, n = pu.copy(), pv.copy(), g0.copy(), n0.copy()
    uu, vv = u, v
    for _ in range(budget):
        if pos.size == 0:
            break
        n = n + 1.0
        p = p * uu / n
        q = q * vv / n
        g = np.minimum(g + q, 1.0)
        term = p * g
        total[pos] += term
        keep = term > 1e-14 * total[pos]
        pos, p, q, g, n, uu, vv = (x[keep] for x in (pos, p, q, g, n, uu, vv))
    else:
        raise RuntimeError("marcum_q1 upward wing exceeded term budget")

    # downward wing from the mode toward n = 0
    keep = n0 > 0
    pos = np.arange(u.size)[keep]
    p, q, g, n = pu[keep], pv[keep], g0[keep], n0[keep]
    uu, vv = u[keep], v[keep]
    for _ in range(budget):
        if pos.size == 0:
            break
        g = np.maximum(g - q, 0.0)   # g at n-1
        p = p * n / uu
        q = q * n / vv
        n = n - 1.0
        term = p * g
        total[pos] += term
        keep = (n > 0) & (term > 1e-14 * total[pos])
        pos, p, q, g, n, uu, vv = (x[keep] for x in (pos, p, q, g, n, uu, vv))
    else:
        raise RuntimeError("marcum_q1 downward wing exceeded term budget")

    return total.reshape(shape)


# ----------------------------------------------------------------------
# conditional law of the true power given the estimate power

def conditional_power_pdf(g, m, alpha: float):
    """Density of the true power at g given estimate power m.

    Evaluated in scaled form, i0e(x) exp(-(sqrt(g) - sqrt(m))^2 / alpha)
    / alpha with x = 2 sqrt(g m) / alpha and i0e(x) = exp(-x) I0(x): the
    exponent -(g + m)/alpha + x is folded exactly into one square, so
    neither a large I0 argument nor the cancellation of two large
    exponents loses digits. m = 0 reduces to the Exp(alpha) density;
    g < 0 gives 0.
    """
    alpha = _check_alpha(alpha)
    g = np.asarray(g, dtype=float)
    m = np.asarray(m, dtype=float)
    g_b, m_b = np.broadcast_arrays(g, m)
    sg = np.sqrt(np.clip(g_b, 0.0, None))
    sm = np.sqrt(m_b)
    pdf = _sp.i0e(2.0 * sg * sm / alpha) * np.exp(-((sg - sm) ** 2) / alpha) / alpha
    out = np.where(g_b >= 0.0, pdf, 0.0)
    return out if out.ndim else float(out)


def conditional_power_cdf(g, m, alpha: float):
    """P(true power <= g | estimate power m) = 1 - Q1(sqrt(2m/a), sqrt(2g/a))."""
    alpha = _check_alpha(alpha)
    g = np.asarray(g, dtype=float)
    m = np.asarray(m, dtype=float)
    g_b, m_b = np.broadcast_arrays(g, m)
    gc = np.clip(g_b, 0.0, None)
    q = marcum_q1(np.sqrt(2.0 * m_b / alpha), np.sqrt(2.0 * gc / alpha))
    out = np.where(g_b >= 0.0, 1.0 - q, 0.0)
    return out if out.ndim else float(out)


def conditional_support_bound(m, alpha: float, tail_mass: float = 1e-10):
    """Upper truncation point leaving at most tail_mass conditional mass above.

    Uses the Gaussian-tail envelope of the underlying Rician amplitude:
    with b = sqrt(2m/alpha) + sqrt(-2 ln tail_mass), the bound is
    alpha * b^2 / 2. Exact (not just a bound) when m = 0.
    """
    alpha = _check_alpha(alpha)
    if not (0.0 < tail_mass < 1.0):
        raise ValueError("tail_mass must lie strictly between 0 and 1")
    m = np.asarray(m, dtype=float)
    b = np.sqrt(2.0 * np.clip(m, 0.0, None) / alpha) + np.sqrt(-2.0 * np.log(tail_mass))
    out = 0.5 * alpha * b * b
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# conditional rate integral and its inverse

def rate_integral(power, m: float, alpha: float):
    """E[ g / (1 + P g) | estimate m ] under error variance alpha.

    The marginal rate of the conditional-expected log-rate in P; equals
    the conditional mean m + alpha at P = 0 and decreases to 0.
    Vectorized over power. scipy.integrate.quad (epsabs=0, epsrel=1e-13)
    of the density times g / (1 + P g) over [0, hi], hi the support
    bound at tail mass 1e-16, with breaks at m and at g = 1/P, where the
    integrand turns from linear to flat, and one a decade from there up
    to hi: with the single break at 1/P, quad stops on roundoff at large
    m and P, 3.4e-11 relative off. With the decade breaks it is within
    4.4e-16 of 30-digit mpmath on 60 random points (alpha in
    [0.05, 0.95], m in [0, 20], P in [1e-3, 1e7]).
    """
    alpha = _check_alpha(alpha)
    m = float(m)
    if m < 0.0:
        raise ValueError("estimate power must be nonnegative")
    p_arr = np.asarray(power, dtype=float)
    if np.any(p_arr < 0.0):
        raise ValueError("power must be nonnegative")
    hi = conditional_support_bound(m, alpha, _RATE_TAIL_MASS)
    sm = math.sqrt(m)

    def one(p):
        def f(g):
            # conditional_power_pdf's scaled form, in scalar math: quad
            # calls the integrand one point at a time
            sg = math.sqrt(g)
            pdf = _sp.i0e(2.0 * sg * sm / alpha) * math.exp(-((sg - sm) ** 2) / alpha) / alpha
            return pdf * g / (1.0 + p * g)
        points = [m] if 0.0 < m < hi else []
        if p * hi > 1.0:
            decades = math.ceil(math.log10(p * hi))
            points += list(np.geomspace(1.0 / p, hi, decades + 1)[:-1])
        val, _ = integrate.quad(f, 0.0, hi, points=sorted(points) or None,
                                epsabs=0.0, epsrel=1e-13, limit=400)
        return val

    out = np.array([one(p) for p in p_arr.ravel()]).reshape(p_arr.shape)
    return out if out.ndim else float(out)


def invert_rate_integral(lam: float, m: float, alpha: float) -> float:
    """Largest P with rate_integral(P) = lam; 0 when m + alpha <= lam.

    brentq on [0, 1/lam], run to its rounding floor: g/(1+Pg) < 1/P
    pointwise, so P = 1/lam always brackets the root from above.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if float(m) + float(alpha) <= lam:
        return 0.0
    return optimize.brentq(lambda p: rate_integral(p, m, alpha) - lam,
                           0.0, 1.0 / lam, xtol=1e-300, maxiter=200)


# ----------------------------------------------------------------------
# interference cap and the on-off rule, per sample

def interference_power_cap(cl_state, cl_csi, i_peak: float, epsilon: float):
    """Largest power meeting the conditional interference-outage limit.

    i_peak over the (1 - epsilon) quantile of the cross gain given what
    the transmitter reads (cl_csi.state_kind): cl_state is the true cross
    gain ("gain"), the estimate power ("estimate"; the exact quantile
    through chndtrix), or ignored and may be None ("none"). Vectorized
    over cl_state.
    """
    if i_peak <= 0.0:
        raise ValueError("i_peak must be positive")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    kind = cl_csi.state_kind
    if kind == "none":
        denom = float(-np.log1p(-(1.0 - epsilon)))   # Exp(1) quantile
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
    if kind == "gain":
        out = i_peak / np.maximum(state, _GAIN_FLOOR)
        return out if out.ndim else float(out)
    alpha = _check_alpha(cl_csi.alpha)
    q = 0.5 * alpha * _sp.chndtrix(1.0 - epsilon, 2.0, 2.0 * state / alpha)
    out = i_peak / np.asarray(q, dtype=float)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class OnOffPolicy:
    """An on-off rule for the simulator: threshold plus the state-dependent
    on-level. config is a crcap ScenarioConfig."""

    tau: float
    config: object

    def __post_init__(self):
        if self.config.sl_csi.state_kind != "gain":
            raise ValueError(
                "the on-off scheme thresholds the true direct gain and needs "
                "perfect direct-link knowledge; got "
                f"{self.config.sl_csi.describe()}"
            )
        if self.tau < 0.0:
            raise ValueError("threshold must be nonnegative")

    # state kinds consumed by the simulator's interface guard
    @property
    def sl_state_kind(self) -> str:
        return "gain"

    @property
    def cl_state_kind(self) -> str:
        return self.config.cl_csi.state_kind

    def power(self, sl_state=None, cl_state=None):
        """Transmit power per sample: the on-level above tau, else 0."""
        if sl_state is None:
            raise ValueError("the on-off rule needs the true direct gain")
        g = np.asarray(sl_state, dtype=float)
        out = np.where(g >= self.tau, on_level(self.tau, cl_state, self.config), 0.0)
        return out if out.ndim else float(out)


def on_level(tau: float, cl_state, config):
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


def onoff_rate_perfect_cross(tau: float, p_avg: float, i_peak: float,
                             upper: float, drop: float = 1e-13) -> float:
    """On-off rate at threshold tau under a perfectly known cross gain.

    A burst at power P above the threshold earns
    R(P) = e^{-tau} (log(1 + P tau) + e^x E1(x)), x = tau + 1/P (valid
    while x < 700). The cross gain t ~ Exp(1) sets the power
    min(p_avg e^tau, i_peak / max(t, _GAIN_FLOOR)), and the rate is
    scipy.integrate.quad of R of that power times e^{-t} over [0, t*],
    t* = i_peak / (p_avg e^tau), and over [max(t*, drop), upper] in
    s = log t, with a break at the gain floor. Like the library it leaves
    out the states above upper (mass e^{-upper}) and, for t* < drop, the
    states between t* and drop.
    """
    budget = p_avg * math.exp(tau)

    def rate(t):
        p = min(budget, i_peak / max(t, _GAIN_FLOOR))
        x = tau + 1.0 / p
        return math.exp(-tau) * (math.log1p(p * tau) + math.exp(x) * _sp.exp1(x))

    t_star = min(i_peak / budget, upper)
    head, _ = integrate.quad(lambda t: rate(t) * math.exp(-t), 0.0, t_star,
                             epsabs=0.0, epsrel=1e-13)
    lo = math.log(max(t_star, drop))
    if lo >= math.log(upper):
        return head
    floor = math.log(_GAIN_FLOOR)
    tail, _ = integrate.quad(lambda s: rate(math.exp(s)) * math.exp(s - math.exp(s)),
                             lo, math.log(upper), points=[floor] if lo < floor else None,
                             epsabs=0.0, epsrel=1e-13, limit=400)
    return head + tail


def perfect_cross_rate_tail(t_star: float, c: float, upper: float,
                            drop: float = 1e-13) -> float:
    """Integral of log(1 + c / max(t, _GAIN_FLOOR)) e^{-t} over the cross
    gains t in [max(t_star, drop), upper]: the rate tail of a direct gain g
    under the cap i_peak / t, with c = i_peak g.

    scipy.integrate.quad in s = log t, with a break at the gain floor. The
    log is log1p(c / t), or log c - log t + log1p(t / c) where c / t
    overflows, so the integrand stays finite for every finite c.
    """
    def log_ratio(t):
        r = c / t
        if math.isinf(r):
            return math.log(c) - math.log(t) + math.log1p(t / c)
        return math.log1p(r)

    lo = math.log(max(t_star, drop))
    if lo >= math.log(upper):
        return 0.0
    floor = math.log(_GAIN_FLOOR)
    val, _ = integrate.quad(
        lambda s: log_ratio(max(math.exp(s), _GAIN_FLOOR)) * math.exp(s - math.exp(s)),
        lo, math.log(upper), points=[floor] if lo < floor else None,
        epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def scaled_e1(x: float) -> float:
    """e^x E1(x) by mpmath at 30 digits, rounded once: as a product of
    doubles e^x overflows past x = 709.78, while the scaled value is
    about 1/x there."""
    with mpmath.workdps(30):
        return float(mpmath.exp(x) * mpmath.e1(x))


def water_filling(p_avg: float):
    """(lam, C) of water-filling max(0, 1/lam - 1/g) on a Rayleigh direct
    gain g without a cap (Goldsmith and Varaiya, IEEE Trans. Inf. Theory
    43, 1997): p_avg = e^-lam / lam - E1(lam) and C = E1(lam). lam is
    scipy's brentq on e^-lam (1/lam - e^lam E1(lam)) = p_avg, to a few ulps.
    """
    def spent(lam):
        return math.exp(-lam) * (1.0 / lam - scaled_e1(lam)) - p_avg

    lam = optimize.brentq(spent, 1e-6, 700.0, xtol=1e-300, rtol=8.9e-16, maxiter=500)
    return lam, float(_sp.exp1(lam))


def best_onoff_rate_constant_cap(p_avg: float, cap: float) -> float:
    """The best on-off rate on a Rayleigh direct link under a constant cap.

    A burst at power P above the threshold tau earns
    R = e^-tau (log(1 + P tau) + e^x E1(x)), x = tau + 1/P, with
    P = min(p_avg e^tau, cap). Past tau_c = ln(cap / p_avg) the power stays
    at the cap and R falls with tau, so the maximum lies in [0, tau_c]:
    scipy's bounded minimize_scalar of -R there, to 1e-12 in tau. Needs
    p_avg < cap.
    """
    def minus_rate(tau):
        power = min(p_avg * math.exp(tau), cap)
        return -math.exp(-tau) * (math.log1p(power * tau) + scaled_e1(tau + 1.0 / power))

    best = optimize.minimize_scalar(minus_rate, bounds=(0.0, math.log(cap / p_avg)),
                                    method="bounded", options={"xatol": 1e-12})
    return -float(best.fun)


def plain_bisect(f, target: float, lo: float, hi: float, rel_tol: float,
                 what: str) -> float:
    """The first bisection midpoint x with |f(x) - target| <= rel_tol
    |target|, for a decreasing f, evaluating f at every step: the multiplier
    search as the library ran it before it replayed its midpoints.

    hi doubles until f(hi) <= target, then lo shrinks a hundredfold until
    f(lo) > target or lo < 1e-250. Raises RuntimeError, naming what, when
    200 doublings or 300 midpoints run out, with the library's messages.
    """
    for _ in range(200):
        if f(hi) <= target:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError(f"failed to bracket the {what}")
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
    raise RuntimeError(f"{what} bisection did not converge in 300 steps")


def plain_sample_channel_pair(error_variance: float, rng, n: int):
    """(estimate, gain) powers of n draws of a link with MMSE error variance
    error_variance (0 perfect, 1 none), each product its own array: the
    library's sampler before it built both in place. Draw order: estimate
    real, estimate imaginary, error real, error imaginary."""
    s_est = np.sqrt(max(1.0 - error_variance, 0.0) / 2.0)
    s_err = np.sqrt(max(error_variance, 0.0) / 2.0)
    est_re = rng.normal(0.0, 1.0, size=n) * s_est
    est_im = rng.normal(0.0, 1.0, size=n) * s_est
    err_re = rng.normal(0.0, 1.0, size=n) * s_err
    err_im = rng.normal(0.0, 1.0, size=n) * s_err
    re = est_re + err_re
    im = est_im + err_im
    return est_re * est_re + est_im * est_im, re * re + im * im
