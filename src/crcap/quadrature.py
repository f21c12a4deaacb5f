"""Composite Gauss-Legendre quadrature with panel-doubling refinement.

The engine discretizes every fading law into weighted nodes on a truncated
support (tail mass bounded explicitly) and integrates with fixed composite
rules, doubling panel counts until two resolutions agree. The helpers here
build those rules, and _refine is the one driver that doubles the panels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["panel_rule", "panel_rule_batch"]


@lru_cache(maxsize=128)
def _gl_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_rule(edges, points: int):
    """Nodes and weights of a composite Gauss-Legendre rule over given edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gl_rule(points)
    lo = edges[:-1][:, None]
    half = 0.5 * (edges[1:][:, None] - lo)
    nodes = (lo + half * (x[None, :] + 1.0)).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def panel_rule_batch(lo, hi, n_panels: int, points: int):
    """Per-row composite rule on [lo_j, hi_j] of n_panels equal panels.

    Returns nodes and weights shaped (J, n_panels * points). Rows with
    lo >= hi produce zero weights.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))[:, None]
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    hi = np.broadcast_to(hi[:, None] if hi.ndim == 1 else hi, lo.shape)
    width = np.maximum(hi - lo, 0.0)
    edges = lo + width * np.linspace(0.0, 1.0, n_panels + 1)[None, :]   # (J, P+1)
    x, w = _gl_rule(points)
    a = edges[:, :-1, None]
    half = 0.5 * (edges[:, 1:, None] - a)
    nodes = a + half * (x[None, None, :] + 1.0)           # (J, P, n)
    weights = half * w[None, None, :]
    J = lo.shape[0]
    return nodes.reshape(J, -1), weights.reshape(J, -1)


def _refine(evaluate, settings):
    """Run evaluate(panels) with doubling panels until two levels agree.

    Starts at settings.base_panels and doubles at most
    settings.max_refinements times; two levels agree when they differ by
    at most max(settings.quad_rel_tol * |value|, 1e-12). Returns
    (value, error_estimate), the estimate being the last change; when the
    budget runs out first, the last level comes back with its last change.

    evaluate may return an array. Each element then stops at the first
    level where it agrees with the one before and keeps that level's value
    and change; later levels, still computed for the others, leave it as
    it is. The doubling ends when every element has stopped, and arrays
    come back as arrays, scalars as floats.
    """
    panels = settings.base_panels
    level = evaluate(panels)
    value, error = level, np.full(np.shape(level), np.inf)
    done = np.zeros(np.shape(level), dtype=bool)
    for _ in range(settings.max_refinements):
        panels *= 2
        prev, level = level, evaluate(panels)
        change = np.abs(level - prev)
        value = np.where(done, value, level)
        error = np.where(done, error, change)
        done = done | (change <= np.maximum(settings.quad_rel_tol * np.abs(level),
                                            1e-12))
        if done.all():
            break
    if np.ndim(value) == 0:
        return float(value), float(error)
    return value, error
