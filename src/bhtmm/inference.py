"""Exact inference on a fixed model, either kind.

Likelihoods and label marginals come from one upward recursion
(``upward``) over a packed corpus. It works in the linear domain; with
labels observed it normalises every node's row, so corpora with
thousands of nodes cannot underflow, and the log normalisers carry the
likelihood. The only model-specific step is the params'
``transition_map``. The complete-data likelihood and the ancestral draw
of a tf model reuse the learner's packed kernels in ``gibbs``.

Given the pack a corpus holds (``TreeCorpus.pack``) and read a second
time, the recursion runs once per distinct subtree (``PackedCorpus.fold``,
computed on that read and kept with the pack) and its rows are gathered
back to every node; the first read runs node by node, since a fold read
once costs more than it saves. A tree or a list of trees is packed for
the call and, like any other pack, always runs node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gibbs import (NEG_INF, Latents, SufficientStats, cluster_keys,
                    complete_data_log_likelihood, propose_latents)
# ``categorical`` stays for the benchmark's draw counter; inference draws none.
from .rand import categorical, inverse_cdf  # noqa: F401
from .trees import LabelledTree, PackedCorpus


@dataclass
class LatentAssignment:
    """Hidden states plus per-slot cluster choices.

    ``q[u]`` is the hidden state of node ``u``; ``z[u]`` exists for
    every internal node and holds one cluster index per child slot,
    absent children included.
    """

    q: np.ndarray
    z: dict


def complete_log_likelihood(tree, latent, params):
    """Joint log probability of labels and a full latent assignment,
    from the count tables of the tree packed on its own.

    Returns ``-inf``, before any core row is read, exactly when some
    stored cluster choice disagrees with the hard clustering of the
    corresponding child state: the impossible-assignment value, never
    an exception.
    """
    pack = PackedCorpus([tree], params.n_slots)
    keys = cluster_keys(pack, latent.q, pack.internal, params.clustering)
    stored = np.array([latent.z[u] for u in pack.internal.tolist()], dtype=np.int64)
    if not np.array_equal(stored.reshape(keys.shape), keys):
        return NEG_INF
    stats = SufficientStats.from_latents(pack, Latents(latent.q), params)
    return complete_data_log_likelihood(stats, stats.tuple_counts(params.clustering), params)


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
    unique, folded = pack.fold(labelled=True)
    _, log_norm = upward(folded, params, observed=True)
    return np.bincount(pack.tree, log_norm[unique], minlength=len(pack))


def state_marginals(trees, params):
    """Exact per-node hidden-state marginals of bare structures: one
    tree's nodes, or every node of a ``PackedCorpus`` by global id."""
    unique, folded = _packed(trees, params.n_slots).fold(labelled=False)
    return upward(folded, params, observed=False)[0][unique]


def node_label_marginals(trees, params):
    """Exact per-node label distributions given only the structure."""
    return state_marginals(trees, params) @ params.emission


def ancestral_sample(trees, params, rng):
    """Draw latents and labels for fixed structures (one tree, several,
    or a ``PackedCorpus``; node ids are the pack's), leaves to root.

    States come from ``gibbs.propose_latents``, cluster choices from the
    hard clustering of the child states, and then each node's label from
    its state's emission row, one uniform per node in id order.
    """
    pack = _packed(trees, params.n_slots)
    q = propose_latents(pack, params, rng).q
    keys = cluster_keys(pack, q, pack.internal, params.clustering)
    z = dict(zip(pack.internal.tolist(), map(tuple, keys.tolist())))
    labels = inverse_cdf(np.cumsum(params.emission, axis=1)[q], rng.random(pack.n_nodes))
    return LatentAssignment(q, z), labels
