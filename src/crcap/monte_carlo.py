"""Monte Carlo simulator: the independent check on every quadrature result.

Draws (estimate, true) power pairs for both links, evaluates a policy on
exactly the states its knowledge level permits, and accumulates the
empirical rate, average power, and interference-outage frequency, the
latter binned by deciles of the cross-link conditioning state.

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
from typing import Callable, Optional, Tuple

import numpy as np

from .fading import (
    CsiKnowledge,
    CsiLevel,
    estimate_power_quantile,
    marginal_power_quantile,
    sample_channel_pair,
)
from .power_allocation import ScenarioConfig

__all__ = ["OutageBin", "SimReport", "simulate_policy", "verify_outage"]

SHARD_SIZE = 65536
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

    @property
    def ci_halfwidth(self) -> float:
        if not self.count:
            return 0.0
        p = self.outage_rate
        return _Z95 * float(np.sqrt(p * (1.0 - p) / self.count))


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

    def to_dict(self) -> dict:
        return {
            "empirical_rate": self.empirical_rate,
            "rate_ci": self.rate_ci,
            "empirical_avg_power": self.empirical_avg_power,
            "power_ci": self.power_ci,
            "outage_fraction": self.outage_fraction,
            "outage_ci": self.outage_ci,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "bins": [
                {
                    "lower": b.lower,
                    "upper": b.upper,
                    "count": b.count,
                    "outages": b.outages,
                    "outage_rate": b.outage_rate,
                    "ci_halfwidth": b.ci_halfwidth,
                }
                for b in self.bins
            ],
        }


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


def _bin_edges(csi: CsiKnowledge) -> Optional[np.ndarray]:
    """Interior decile edges of the cross-link conditioning state, or None."""
    probs = np.arange(1, N_OUTAGE_BINS) / N_OUTAGE_BINS
    if csi.level is CsiLevel.PERFECT:
        return marginal_power_quantile(probs)
    if csi.level is CsiLevel.ESTIMATED:
        return estimate_power_quantile(probs, csi.alpha)
    return None


def _run_shard(power_fn: Callable, config: ScenarioConfig, seed: int,
               shard: int, n: int, edges: Optional[np.ndarray]):
    rng = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((seed, shard))))
    sl = sample_channel_pair(config.sl_csi, rng, n)
    cl = sample_channel_pair(config.cl_csi, rng, n)

    sl_kind = config.sl_csi.state_kind
    cl_kind = config.cl_csi.state_kind
    sl_state = sl.gain if sl_kind == "gain" else (
        sl.estimate if sl_kind == "estimate" else None)
    cl_state = cl.gain if cl_kind == "gain" else (
        cl.estimate if cl_kind == "estimate" else None)

    P = np.asarray(power_fn(sl_state, cl_state), dtype=float)
    if P.shape not in ((), (n,)):
        raise ValueError("policy returned powers with an unexpected shape")
    P = np.broadcast_to(P, (n,))
    if np.any(P < 0.0) or not np.all(np.isfinite(P)):
        raise ValueError("policy returned negative or non-finite power")

    log_rate = np.log1p(P * sl.gain)
    outage = (P * cl.gain) > (config.i_peak * _OUTAGE_GUARD)

    if edges is None:
        counts = np.array([n], dtype=np.int64)
        outs = np.array([int(outage.sum())], dtype=np.int64)
    else:
        cond = cl.gain if cl_kind == "gain" else cl.estimate
        idx = np.searchsorted(edges, cond, side="right")
        counts = np.bincount(idx, minlength=N_OUTAGE_BINS).astype(np.int64)
        outs = np.bincount(idx, weights=outage.astype(np.int64),
                           minlength=N_OUTAGE_BINS).astype(np.int64)
    return (float(log_rate.sum()), float((log_rate * log_rate).sum()),
            float(P.sum()), float((P * P).sum()),
            int(outage.sum()), counts, outs)


def simulate_policy(policy, config: ScenarioConfig, n_samples: int,
                    seed: int, threads: int = 1) -> SimReport:
    """Simulate a power rule and report empirical rate, power, and outage.

    policy is either an object exposing power(sl_state, cl_state) (the
    solved PowerPolicy / OnOffPolicy objects) or a bare callable with the
    same signature. The states passed are only those the scenario's
    knowledge levels permit: the true gain under perfect knowledge, the
    estimate power under estimated knowledge, None when the link is
    unknown. Policies that declare needing more (sl_state_kind /
    cl_state_kind attributes) are rejected up front.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if threads < 1:
        raise ValueError("threads must be positive")
    _check_policy_interface(policy, config)
    power_fn = policy.power if hasattr(policy, "power") else policy
    if not callable(power_fn):
        raise TypeError("policy must be callable or expose .power")

    edges = _bin_edges(config.cl_csi)
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    sizes = [min(SHARD_SIZE, n_samples - i * SHARD_SIZE)
             for i in range(n_shards)]

    def job(i: int):
        return _run_shard(power_fn, config, seed, i, sizes[i], edges)

    if threads > 1 and n_shards > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, range(n_shards)))
    else:
        results = [job(i) for i in range(n_shards)]

    # reduce in shard order: sums only, so the merge is order-independent
    # in value and made bit-identical by fixing the order anyway
    r_sum = r_sq = p_sum = p_sq = 0.0
    out_total = 0
    n_bins = 1 if edges is None else N_OUTAGE_BINS
    counts = np.zeros(n_bins, dtype=np.int64)
    outs = np.zeros(n_bins, dtype=np.int64)
    for rs, rq, ps, pq, ot, c, o in results:
        r_sum += rs
        r_sq += rq
        p_sum += ps
        p_sq += pq
        out_total += ot
        counts += c
        outs += o

    n = float(n_samples)
    rate = r_sum / n
    power = p_sum / n
    rate_var = max(r_sq / n - rate * rate, 0.0)
    power_var = max(p_sq / n - power * power, 0.0)
    out_frac = out_total / n
    if edges is None:
        lowers = np.array([0.0])
        uppers = np.array([np.inf])
    else:
        lowers = np.concatenate(([0.0], edges))
        uppers = np.concatenate((edges, [np.inf]))
    bins = tuple(
        OutageBin(float(lo), float(hi), int(c), int(o))
        for lo, hi, c, o in zip(lowers, uppers, counts, outs)
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


def verify_outage(policy, config: ScenarioConfig, n_samples: int, seed: int,
                  threads: int = 1) -> Tuple[bool, SimReport]:
    """Check the interference-outage constraint empirically.

    Perfect cross-link knowledge must give zero outages (the cap is
    pointwise). Estimated knowledge must keep every conditioning-state
    decile at or below epsilon + 3 sigma with sigma the binomial standard
    error of epsilon at the bin count; absent knowledge applies the same
    bound to the unconditional fraction.
    """
    report = simulate_policy(policy, config, n_samples, seed, threads=threads)
    eps = config.epsilon
    if config.cl_csi.level is CsiLevel.PERFECT:
        passed = report.outage_fraction == 0.0
        return passed, report
    passed = True
    for b in report.bins:
        if not b.count:
            continue
        sigma = float(np.sqrt(eps * (1.0 - eps) / b.count))
        if b.outage_rate > eps + 3.0 * sigma:
            passed = False
            break
    return passed, report
