"""Exact inference on a fixed model, either kind.

Likelihoods and label marginals come from one upward recursion
(``upward``) over a packed corpus. It works in the linear domain; with
labels observed it normalises every node's row, so corpora with
thousands of nodes cannot underflow, and the log normalisers carry the
likelihood. The only model-specific step is the params'
``transition_map``.

Given the pack a corpus holds (``TreeCorpus.pack``), the recursion runs
once per distinct subtree (``PackedCorpus.fold``, computed on the first
read with a key and kept with the pack) and its rows are gathered back
to every node. A tree or a list of trees is packed for the call and,
like any other pack, runs node by node: folding one tree costs more
than it saves.
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

