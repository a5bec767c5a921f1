"""Seeded sampling helpers shared by the learners."""

from __future__ import annotations

import numpy as np


def dirichlet_rows(conc, rng):
    """Draw one simplex along the last axis of a concentration array.

    Uses normalised gamma draws so any batch shape works. Rows whose
    gamma draws all underflow to zero (possible for very small
    concentrations) fall back to a point mass on the largest
    concentration, keeping every returned row a valid simplex.
    """
    conc = np.asarray(conc, dtype=np.float64)
    g = rng.standard_gamma(conc)
    width = conc.shape[-1]
    flat = g.reshape(-1, width)
    totals = flat.sum(axis=1)
    dead = np.flatnonzero(totals == 0.0)
    if len(dead):
        conc_flat = np.broadcast_to(conc, g.shape).reshape(-1, width)
        for r in dead:
            flat[r] = 0.0
            flat[r, int(np.argmax(conc_flat[r]))] = 1.0
            totals[r] = 1.0
    out = flat / totals[:, None]
    return out.reshape(g.shape)


def categorical(weights, rng):
    """Draw one index from an unnormalised weight vector."""
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(min(np.searchsorted(cum, u, side="right"), len(weights) - 1))


def inverse_cdf(cum, u):
    """One index per row of cumulative weights ``cum``: row ``i`` gives
    ``categorical``'s draw when ``rng.random()`` returns ``u[i]``."""
    hits = (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)
    return np.minimum(hits, cum.shape[1] - 1)
