"""Exact inference on a fixed model, either kind.

Likelihoods and label marginals come from one upward recursion
(``upward``) over a packed corpus. It works in the linear domain; with
labels observed it normalises every node's row, so corpora with
thousands of nodes cannot underflow, and the log normalisers carry the
likelihood. The only model-specific step is the params'
``transition_map``.

The recursion runs over ``PackedCorpus.fold``, whose ids run bottom up,
so each height level is one slice. Given the pack a corpus holds
(``TreeCorpus.pack``) that fold is its distinct subtrees (computed on
the first read with a key and kept with the pack). A tree or a list of
trees is packed for the call, where folding one tree would cost more
than it saves, and its fold is its own nodes renumbered bottom up. Either
way the pass's result is gathered back to every node of the pack.
"""

from __future__ import annotations

import numpy as np

# ``categorical`` stays for the benchmark's draw counter; inference draws none.
from .rand import categorical  # noqa: F401
from .trees import LabelledTree, PackedCorpus


def _packed(trees, n_slots):
    """``trees`` (one tree, an iterable of trees, or a ``PackedCorpus``) packed."""
    if isinstance(trees, PackedCorpus):
        return trees
    return PackedCorpus([trees] if isinstance(trees, LabelledTree) else trees, n_slots)


def upward(pack, params, observed):
    """Scaled upward pass over a packed corpus, one height level at a time.

    A node's row is its model's parent-state row for its children's
    extended distributions (leaves: the positional prior). Unobserved,
    the rows are the exact state marginals, and they are the result.
    When ``observed``, rows are weighted by their label's emission and
    normalised, and the result is each node's log normaliser, which
    summed over a tree gives its log likelihood (a zero-mass row stays
    zero: ``-inf``, no NaN). The pass runs over ``pack.fold``; the
    result is indexed by the node ids of ``pack``.
    """
    unique, pack = pack.fold(observed)
    n_states = params.n_states
    step = params.transition_map()
    # Row u: node u's row and a zero bottom entry. The extra last row,
    # which the empty-slot id -1 selects, is an absent child.
    ext = np.zeros((pack.n_nodes + 1, n_states + 1))
    ext[-1, n_states] = 1.0
    norm = np.ones(pack.n_nodes) if observed else None
    # ``take`` along axis 0 gathers the same rows as indexing, faster.
    bounds, emission = pack.bounds, params.emission.T
    for a, b in zip(bounds, bounds[1:]):
        if a == 0:
            level = params.leaf_prior.take(pack.position[:b], axis=0)
        else:
            level = step(ext.take(pack.children[a:b], axis=0))
        if observed:
            level = level * emission.take(pack.labels[a:b], axis=0)
            total = level.sum(axis=1)
            norm[a:b] = total
            level /= np.where(total > 0.0, total, 1.0)[:, None]
        ext[a:b, :n_states] = level
    if not observed:
        return ext[unique, :n_states]
    with np.errstate(divide="ignore"):
        return np.log(norm)[unique]


def marginal_log_likelihood(tree, params):
    """Log probability of the observed labels, all latents summed out."""
    return float(corpus_log_likelihoods([tree], params)[0])


def corpus_log_likelihoods(trees, params):
    """Marginal log likelihood of each tree (``trees`` may be packed),
    from one upward pass over the whole corpus."""
    pack = _packed(trees, params.n_slots)
    return np.bincount(pack.tree, upward(pack, params, observed=True), minlength=len(pack))


def state_marginals(trees, params):
    """Exact per-node hidden-state marginals of bare structures: one
    tree's nodes, or every node of a ``PackedCorpus`` by global id."""
    return upward(_packed(trees, params.n_slots), params, observed=False)


def node_label_marginals(trees, params):
    """Exact per-node label distributions given only the structure."""
    return state_marginals(trees, params) @ params.emission
