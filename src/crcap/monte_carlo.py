"""Monte Carlo simulator: the independent check on every quadrature result.

Draws (estimate, true) power pairs for both links, evaluates a policy on
exactly the states its knowledge level permits, and accumulates the
empirical rate, average power, and interference-outage frequency, the
latter binned by deciles of the cross-link conditioning state. The
policy's power() is called on blocks of POLICY_BLOCK samples, so it must
act elementwise. A shard holds the estimate and gain arrays of both links,
its powers and one block's temporaries.

Reproducibility contract: streams come from the counter-based Philox
generator keyed by SeedSequence((seed, shard_index)) with a fixed draw
order per shard (direct-link pair first, then cross-link pair), shards
are a fixed 65536 samples, and shard results are reduced in shard order.
Identical (policy, config, n_samples, seed) therefore give bit-identical
reports, serial or threaded.

Outage semantics: an outage is interference strictly above i_peak with a
1e-9 relative guard band. Policies built from perfect cross-link
knowledge transmit exactly at the boundary, where float rounding would
otherwise flag spurious half-ulp crossings; genuine exceedances under
estimated or absent knowledge are continuously distributed above the
boundary and are unaffected by the band.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .fading import (
    ChannelDraw,
    CsiKnowledge,
    CsiLevel,
    estimate_power_quantile,
    marginal_power_quantile,
    sample_channel_pair,
)
from .power_allocation import ScenarioConfig

__all__ = ["OutageBin", "SimReport", "simulate_policy", "verify_outage"]

SHARD_SIZE = 65536
POLICY_BLOCK = 8192  # samples per power() call: a shard's temporaries stay this small
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_OUTAGE_GUARD = 1.0 + 1e-9
N_OUTAGE_BINS = 10


@dataclass(frozen=True)
class OutageBin:
    """Conditional outage tally for one cross-link state decile."""

    lower: float
    upper: float
    count: int
    outages: int

    @property
    def outage_rate(self) -> float:
        return self.outages / self.count if self.count else 0.0


@dataclass(frozen=True)
class SimReport:
    """Empirical estimates with 95% confidence half-widths."""

    empirical_rate: float
    rate_ci: float
    empirical_avg_power: float
    power_ci: float
    outage_fraction: float
    outage_ci: float
    bins: Tuple[OutageBin, ...]
    n_samples: int
    seed: int


def _check_policy_interface(policy, config: ScenarioConfig):
    """Reject a policy whose declared state needs exceed the CSI level."""
    for attr, csi, link in (("sl_state_kind", config.sl_csi, "direct"),
                            ("cl_state_kind", config.cl_csi, "cross")):
        want = getattr(policy, attr, None)
        if want is None or want == "none":
            continue
        have = csi.state_kind
        if want != have:
            raise ValueError(
                f"policy requests {link}-link state {want!r} but the "
                f"scenario only provides {have!r} ({csi.describe()})"
            )


def _bin_edges(csi: CsiKnowledge) -> np.ndarray:
    """Interior decile edges of the cross-link conditioning state; none,
    so one bin, without knowledge."""
    probs = np.arange(1, N_OUTAGE_BINS) / N_OUTAGE_BINS
    if csi.level is CsiLevel.PERFECT:
        return marginal_power_quantile(probs)
    if csi.level is CsiLevel.ESTIMATED:
        return estimate_power_quantile(probs, csi.alpha)
    return np.empty(0)


def _readable_state(draw: ChannelDraw, csi: CsiKnowledge):
    """The state of a drawn link that its knowledge lets a policy read:
    the true gain, the estimate power, or None."""
    return {"gain": draw.gain, "estimate": draw.estimate}.get(csi.state_kind)


def _run_shard(power_fn: Callable, config: ScenarioConfig, seed: int,
               shard: int, n: int, edges: np.ndarray):
    """The shard's sums of rate, rate^2, power and power^2, and its (2, bins)
    tally of samples and outages per bin of the cross-link state.

    The policy fills P block by block; the four sums run over the whole
    shard's arrays, so their bits do not depend on the block size. Once P
    is filled, the direct link's draw is dead and holds the rate and the
    squares."""
    rng = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((seed, shard))))
    sl = sample_channel_pair(config.sl_csi, rng, n)
    cl = sample_channel_pair(config.cl_csi, rng, n)
    sl_state = _readable_state(sl, config.sl_csi)
    cl_state = _readable_state(cl, config.cl_csi)

    P = np.empty(n)
    for lo in range(0, n, POLICY_BLOCK):
        b = slice(lo, min(lo + POLICY_BLOCK, n))
        p = np.asarray(power_fn(None if sl_state is None else sl_state[b],
                                None if cl_state is None else cl_state[b]),
                       dtype=float)
        if p.shape not in ((), (b.stop - lo,)):
            raise ValueError("policy returned powers with an unexpected shape")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("policy returned negative or non-finite power")
        P[b] = p

    log_rate = np.log1p(np.multiply(P, sl.gain, out=sl.gain), out=sl.gain)
    sq = sl.estimate
    sums = np.array([log_rate.sum(), np.multiply(log_rate, log_rate, out=sq).sum(),
                     P.sum(), np.multiply(P, P, out=sq).sum()])
    outage = np.multiply(P, cl.gain, out=sq) > config.i_peak * _OUTAGE_GUARD
    if not edges.size:  # one bin: no search
        return sums, np.array([[n], [np.count_nonzero(outage)]], dtype=np.int64)
    k = edges.size + 1
    idx = np.searchsorted(edges, cl_state, side="right")
    return sums, np.array([np.bincount(idx, minlength=k),
                           np.bincount(idx[outage], minlength=k)], dtype=np.int64)


def simulate_policy(policy, config: ScenarioConfig, n_samples: int,
                    seed: int, threads: int = 1) -> SimReport:
    """Simulate a power rule and report empirical rate, power, and outage.

    policy exposes power(sl_state, cl_state), as the solved PowerPolicy
    does. The states passed are only those the scenario's
    knowledge levels permit: the true gain under perfect knowledge, the
    estimate power under estimated knowledge, None when the link is
    unknown. Policies that declare needing more (sl_state_kind /
    cl_state_kind attributes) are rejected up front. power() is called on
    consecutive blocks of up to POLICY_BLOCK samples and must act
    elementwise: a sample's power may depend on its own states only. It
    returns one power per sample of the block, or one for all.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if threads < 1:
        raise ValueError("threads must be positive")
    _check_policy_interface(policy, config)

    edges = _bin_edges(config.cl_csi)
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    sizes = [min(SHARD_SIZE, n_samples - i * SHARD_SIZE)
             for i in range(n_shards)]

    def job(i: int):
        return _run_shard(policy.power, config, seed, i, sizes[i], edges)

    if threads > 1 and n_shards > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, range(n_shards)))
    else:
        results = [job(i) for i in range(n_shards)]

    # reduce in shard order: sums only, so the merge is order-independent
    # in value and made bit-identical by fixing the order anyway
    sums = np.zeros(4)
    tally = np.zeros((2, edges.size + 1), dtype=np.int64)
    for s, t in results:
        sums += s
        tally += t

    n = float(n_samples)
    rate, rate_sq, power, power_sq = (float(v) / n for v in sums)
    rate_var = max(rate_sq - rate * rate, 0.0)
    power_var = max(power_sq - power * power, 0.0)
    out_frac = int(tally[1].sum()) / n
    lowers = np.concatenate(([0.0], edges))
    uppers = np.concatenate((edges, [np.inf]))
    bins = tuple(
        OutageBin(float(lo), float(hi), int(c), int(o))
        for lo, hi, c, o in zip(lowers, uppers, *tally)
    )
    return SimReport(
        empirical_rate=rate,
        rate_ci=_Z95 * float(np.sqrt(rate_var / n)),
        empirical_avg_power=power,
        power_ci=_Z95 * float(np.sqrt(power_var / n)),
        outage_fraction=out_frac,
        outage_ci=_Z95 * float(np.sqrt(max(out_frac * (1.0 - out_frac), 0.0) / n)),
        bins=bins,
        n_samples=int(n_samples),
        seed=int(seed),
    )


def _allowed_outage(config: ScenarioConfig) -> float:
    """A bin's allowed outage rate: epsilon, 0 under a pointwise (perfect) cap."""
    return 0.0 if config.cl_csi.level is CsiLevel.PERFECT else config.epsilon


def _outage_bound(eps: float, count: int) -> float:
    """The largest outage rate verify_outage accepts in a bin of count
    samples allowed rate eps: eps plus 3 binomial standard errors at count."""
    return eps + 3.0 * float(np.sqrt(eps * (1.0 - eps) / count))


def verify_outage(policy, config: ScenarioConfig, n_samples: int, seed: int,
                  threads: int = 1) -> Tuple[bool, SimReport]:
    """Check the interference-outage constraint empirically: every bin with
    samples stays within _outage_bound of _allowed_outage: per decile of
    the cross-link state, or in the one bin of an unknown cross link."""
    report = simulate_policy(policy, config, n_samples, seed, threads=threads)
    eps = _allowed_outage(config)
    return all(b.outage_rate <= _outage_bound(eps, b.count)
               for b in report.bins if b.count), report
