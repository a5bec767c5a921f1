"""Exact inference on a fixed factored model.

All likelihood accumulation happens in the natural-log domain so that
corpora with thousands of nodes cannot underflow. Label marginals work
on normalised per-node distributions and stay in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rand import categorical

NEG_INF = float("-inf")


@dataclass
class LatentAssignment:
    """Hidden states plus per-slot cluster choices.

    ``q[u]`` is the hidden state of node ``u``; ``z[u]`` exists for
    every internal node and holds one cluster index per child slot,
    absent children included.
    """

    q: np.ndarray
    z: dict


def _log(x):
    return math.log(x) if x > 0.0 else NEG_INF


def _logsumexp(values):
    m = np.max(values)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.exp(values - m).sum()))


def cluster_tuple(tree, q, node, assign, n_states):
    """Per-slot clusters (``assign``) of the extended child states of ``node``."""
    return tuple(
        int(assign[l][n_states if child < 0 else q[child]])
        for l, child in enumerate(tree.children[node].tolist())
    )


def complete_log_likelihood(tree, latent, params):
    """Joint log probability of labels and a full latent assignment.

    Returns ``-inf`` exactly when some stored cluster choice disagrees
    with the hard clustering of the corresponding child state; that is
    the distinguished impossible-assignment value, never an exception.
    """
    n_states = params.n_states
    clustering = params.clustering
    total = 0.0
    for u in tree.bottom_up_order():
        u = int(u)
        j = int(latent.q[u])
        total += _log(params.emission[j, tree.labels[u]])
        if tree.leaf_mask[u]:
            total += _log(params.leaf_prior[tree.position[u], j])
        else:
            zt = tuple(latent.z[u])
            if zt != cluster_tuple(tree, latent.q, u, clustering.assign, n_states):
                return NEG_INF
            total += _log(params.core_entry(zt)[j])
        if total == NEG_INF:
            return NEG_INF
    return total


def _cluster_members_real(clustering, n_states):
    """Per slot, the real (non-bottom) states inside each cluster."""
    out = []
    for l in range(clustering.n_slots):
        a = clustering.assign[l]
        out.append([np.flatnonzero(a[:n_states] == i) for i in range(clustering.k[l])])
    return out


def _upward_log_tables(tree, params, log_core_flat, members_real):
    """Upward pass: per node the log joint of its subtree and its state."""
    n_states = params.n_states
    clustering = params.clustering
    k = clustering.k
    with np.errstate(divide="ignore"):
        log_prior = np.log(params.leaf_prior)
        log_emit = np.log(params.emission)
    beta = np.empty((tree.n_nodes, n_states))
    for u in tree.bottom_up_order():
        u = int(u)
        if tree.leaf_mask[u]:
            beta[u] = log_prior[tree.position[u]] + log_emit[:, tree.labels[u]]
            continue
        grid = None
        for l in range(tree.n_slots):
            child = tree.children[u, l]
            if child < 0:
                g = np.full(k[l], NEG_INF)
                g[clustering.assign[l][n_states]] = 0.0
            else:
                g = np.array(
                    [
                        _logsumexp(beta[child][mem]) if len(mem) else NEG_INF
                        for mem in members_real[l]
                    ]
                )
            grid = g if grid is None else (grid[:, None] + g[None, :]).reshape(-1)
        scores = log_core_flat + grid[:, None]
        m = scores.max(axis=0)
        safe = m != NEG_INF
        acc = np.full(n_states, NEG_INF)
        if np.any(safe):
            acc[safe] = m[safe] + np.log(
                np.exp(scores[:, safe] - m[safe]).sum(axis=0)
            )
        beta[u] = log_emit[:, tree.labels[u]] + acc
    return beta


def marginal_log_likelihood(tree, params):
    """Log probability of the observed labels, all latents summed out.

    Upward dynamic program: child state tables are first collapsed onto
    clusters per slot, then contracted with the core table, so the cost
    per node is the core size times ``n_states``.
    """
    return float(corpus_log_likelihoods([tree], params)[0])


def corpus_log_likelihoods(trees, params):
    """Marginal log likelihood of each tree, sharing one core snapshot."""
    with np.errstate(divide="ignore"):
        log_core_flat = np.log(params.dense_core().reshape(-1, params.n_states))
    members_real = _cluster_members_real(params.clustering, params.n_states)
    out = np.empty(len(trees))
    for i, tree in enumerate(trees):
        beta = _upward_log_tables(tree, params, log_core_flat, members_real)
        out[i] = _logsumexp(beta[tree.root])
    return out


def state_marginals(tree, params):
    """Exact per-node hidden-state marginals for a bare structure.

    Disjoint subtrees are independent under the bottom-up generative
    process, so per-slot cluster marginals multiply exactly.
    """
    n_states = params.n_states
    clustering = params.clustering
    k = clustering.k
    core_flat = params.dense_core().reshape(-1, n_states)
    members_real = _cluster_members_real(clustering, n_states)
    marg = np.empty((tree.n_nodes, n_states))
    for u in tree.bottom_up_order():
        u = int(u)
        if tree.leaf_mask[u]:
            marg[u] = params.leaf_prior[tree.position[u]]
            continue
        grid = None
        for l in range(tree.n_slots):
            child = tree.children[u, l]
            if child < 0:
                g = np.zeros(k[l])
                g[clustering.assign[l][n_states]] = 1.0
            else:
                g = np.array(
                    [marg[child][mem].sum() for mem in members_real[l]]
                )
            grid = g if grid is None else np.multiply.outer(grid, g).reshape(-1)
        marg[u] = grid @ core_flat
    return marg


def node_label_marginals(tree, params):
    """Exact per-node label distributions given only the structure."""
    return state_marginals(tree, params) @ params.emission


def ancestral_sample(tree, params, rng):
    """Draw latents and labels for a fixed structure, leaves to root.

    Cluster choices follow the hard clustering of the sampled child
    states (deterministic); internal states are drawn from the core row
    at that cluster tuple; labels are drawn from the emissions.
    """
    n_states = params.n_states
    clustering = params.clustering
    q = np.empty(tree.n_nodes, dtype=np.int64)
    z = {}
    labels = np.empty(tree.n_nodes, dtype=np.int64)
    for u in tree.bottom_up_order():
        u = int(u)
        if tree.leaf_mask[u]:
            q[u] = categorical(params.leaf_prior[tree.position[u]], rng)
        else:
            zt = cluster_tuple(tree, q, u, clustering.assign, n_states)
            z[u] = zt
            q[u] = categorical(params.core_entry(zt), rng)
        labels[u] = categorical(params.emission[q[u]], rng)
    return LatentAssignment(q, z), labels
