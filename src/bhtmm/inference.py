"""Exact inference on a fixed model, either kind.

Likelihoods and label marginals come from one upward recursion
(``upward``) over a packed corpus. It works in the linear domain; with
labels observed it normalises every node's row, so corpora with
thousands of nodes cannot underflow, and the log normalisers carry the
likelihood. The only model-specific step is the params'
``transition_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import extended_states
from .rand import categorical
from .trees import LabelledTree, PackedCorpus

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


def cluster_tuple(tree, q, node, clustering):
    """Per-slot clusters of the extended child states of ``node``."""
    return clustering.map_ext(extended_states(tree.children[node], q, clustering.n_states))


def complete_log_likelihood(tree, latent, params):
    """Joint log probability of labels and a full latent assignment.

    Returns ``-inf`` exactly when some stored cluster choice disagrees
    with the hard clustering of the corresponding child state; that is
    the distinguished impossible-assignment value, never an exception.
    """
    total = 0.0
    for u in tree.bottom_up_order():
        u = int(u)
        j = int(latent.q[u])
        total += _log(params.emission[j, tree.labels[u]])
        if tree.leaf_mask[u]:
            total += _log(params.leaf_prior[tree.position[u], j])
        else:
            zt = tuple(latent.z[u])
            if zt != cluster_tuple(tree, latent.q, u, params.clustering):
                return NEG_INF
            total += _log(params.core_entry(zt)[j])
        if total == NEG_INF:
            return NEG_INF
    return total


def _packed(trees, n_slots):
    """``trees`` (one tree, an iterable of trees, or a ``PackedCorpus``) packed."""
    if isinstance(trees, PackedCorpus):
        return trees
    return PackedCorpus([trees] if isinstance(trees, LabelledTree) else trees, n_slots)


def upward(pack, params, observed):
    """Scaled upward pass over a packed corpus, one height level at a time.

    A node's row is its model's parent-state row for its children's
    extended distributions (leaves: the positional prior); unobserved,
    the rows are the exact state marginals. When ``observed``, rows are
    weighted by their label's emission and normalised; each node's log
    normaliser is returned with the rows, and summed over a tree gives
    its log likelihood (a zero-mass row stays zero: ``-inf``, no NaN).
    """
    n_states = params.n_states
    step = params.transition_map()
    # Row u: node u's row and a zero bottom entry. The extra last row,
    # which the empty-slot id -1 selects, is an absent child.
    ext = np.zeros((pack.n_nodes + 1, n_states + 1))
    ext[-1, n_states] = 1.0
    norm = np.ones(pack.n_nodes)
    for height, nodes in enumerate(pack.levels):
        if height == 0:
            level = params.leaf_prior[pack.position[nodes]]
        else:
            level = step(ext[pack.children[nodes]])
        if observed:
            level = level * params.emission[:, pack.labels[nodes]].T
            total = level.sum(axis=1)
            norm[nodes] = total
            level /= np.where(total > 0.0, total, 1.0)[:, None]
        ext[nodes, :n_states] = level
    with np.errstate(divide="ignore"):
        return ext[:-1, :n_states], np.log(norm)


def marginal_log_likelihood(tree, params):
    """Log probability of the observed labels, all latents summed out."""
    return float(corpus_log_likelihoods([tree], params)[0])


def corpus_log_likelihoods(trees, params):
    """Marginal log likelihood of each tree (``trees`` may be packed),
    from one upward pass over the whole corpus."""
    pack = _packed(trees, params.n_slots)
    _, log_norm = upward(pack, params, observed=True)
    return np.bincount(pack.tree, log_norm, minlength=len(pack))


def state_marginals(trees, params):
    """Exact per-node hidden-state marginals of bare structures: one
    tree's nodes, or every node of a ``PackedCorpus`` by global id."""
    return upward(_packed(trees, params.n_slots), params, observed=False)[0]


def node_label_marginals(trees, params):
    """Exact per-node label distributions given only the structure."""
    return state_marginals(trees, params) @ params.emission


def ancestral_sample(tree, params, rng):
    """Draw latents and labels for a fixed structure, leaves to root.

    Cluster choices follow the hard clustering of the sampled child
    states (deterministic); internal states are drawn from the core row
    at that cluster tuple; labels are drawn from the emissions.
    """
    q = np.empty(tree.n_nodes, dtype=np.int64)
    z = {}
    labels = np.empty(tree.n_nodes, dtype=np.int64)
    for u in tree.bottom_up_order():
        u = int(u)
        if tree.leaf_mask[u]:
            q[u] = categorical(params.leaf_prior[tree.position[u]], rng)
        else:
            zt = cluster_tuple(tree, q, u, params.clustering)
            z[u] = zt
            q[u] = categorical(params.core_entry(zt), rng)
        labels[u] = categorical(params.emission[q[u]], rng)
    return LatentAssignment(q, z), labels
