"""Switching-parent baseline.

Instead of conditioning a parent state on the joint configuration of
its children, this model picks one child slot per internal node from a
global mixture and conditions only on that child's (extended) state.
Training runs the factored learner's annealed latent loop
(``gibbs.anneal``) over the packed corpus with this model's proposals
and acceptance terms, the slot choice playing the role of the cluster
variables, followed by conjugate Dirichlet redraws. Mixture weights
and per-slot transition rows carry flat Dirichlet priors
(concentration 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gibbs import (
    Latents, anneal, check_compatible, count_cells, count_log_dot, node_counts,
    node_log_likelihood, tempered_ratio,
)
from .inference import marginal_log_likelihood, node_label_marginals, state_marginals
from .model import SpModelParams, extended_states, init_node_tables
# ``categorical`` stays for the benchmark's draw counter; training draws none.
from .rand import categorical, dirichlet_rows, inverse_cdf  # noqa: F401


def init_sp_params(hyper, rng):
    """Draw fresh baseline parameters from flat priors."""
    leaf_prior, emission = init_node_tables(hyper, rng)
    switch_weights = dirichlet_rows(np.ones(hyper.n_slots), rng)
    child_transitions = dirichlet_rows(
        np.ones((hyper.n_slots, hyper.n_states + 1, hyper.n_states)), rng
    )
    return SpModelParams(
        leaf_prior=leaf_prior,
        emission=emission,
        switch_weights=switch_weights,
        child_transitions=child_transitions,
    )


def selected_ext(pack, latents, nodes, n_states):
    """Extended state of the child in each node's selected slot."""
    return extended_states(pack.children[nodes, latents.s[nodes]], latents.q, n_states)


def sp_propose_latents(pack, params, rng):
    """Ancestral proposal of states and slot choices, one height level
    at a time across all trees. Leaves take one uniform each, internal
    nodes two (slot, then state from that slot's transition row), in
    ``pack.order``: a single tree gets the draws of a per-node
    ``categorical`` sampler walking ``bottom_up_order()``."""
    n_leaves = len(pack.levels[0])
    internal = pack.internal
    u = rng.random(n_leaves + 2 * len(internal))
    pair = np.empty((pack.n_nodes, 2))
    pair[internal] = u[n_leaves:].reshape(-1, 2)
    latents = Latents(np.empty(pack.n_nodes, dtype=np.int64),
                      np.full(pack.n_nodes, -1, dtype=np.int64))
    leaves = pack.levels[0]
    latents.q[leaves] = inverse_cdf(
        np.cumsum(params.leaf_prior, axis=1)[pack.position[leaves]], u[:n_leaves])
    latents.s[internal] = inverse_cdf(np.tile(np.cumsum(params.switch_weights),
                                              (len(internal), 1)), pair[internal, 0])
    trans_cum = np.cumsum(params.child_transitions, axis=2)
    for nodes in pack.levels[1:]:
        ext = selected_ext(pack, latents, nodes, params.n_states)
        latents.q[nodes] = inverse_cdf(trans_cum[latents.s[nodes], ext], pair[nodes, 1])
    return latents


def sp_latent_acceptance(current, proposed, pack, params, temp, mode="cross"):
    """Per-tree tempered acceptance probabilities, transition terms only.

    The factored learner's ratio (``gibbs.tempered_ratio``) with the
    selected-slot transition row in place of the core row.
    """
    nodes, n_states = pack.internal, params.n_states
    rows = [x.s[nodes] * (n_states + 1) + selected_ext(pack, x, nodes, n_states)
            for x in (proposed, current)]
    return tempered_ratio(pack, params.child_transitions.reshape(-1, n_states), *rows,
                          proposed.q[nodes], current.q[nodes], temp, mode)


@dataclass
class SpStats:
    """Count tables for the baseline's conjugate updates."""

    leaf: np.ndarray
    emission: np.ndarray
    switch: np.ndarray
    trans: np.ndarray

    @classmethod
    def from_latents(cls, pack, latents, hyper):
        """Counts of a packed corpus (``trees.PackedCorpus``) under its latents."""
        n_states, n_slots = hyper.n_states, hyper.n_slots
        nodes = pack.internal
        s = latents.s[nodes]
        ext = selected_ext(pack, latents, nodes, n_states)
        return cls(
            *node_counts(pack, latents.q, hyper),
            switch=count_cells((s,), (n_slots,)),
            trans=count_cells((s, ext, latents.q[nodes]), (n_slots, n_states + 1, n_states)),
        )


def sp_train(corpus, hyper, rng, log=None, on_sweep=None):
    """Annealed Gibbs training of the baseline; returns the parameters.

    The factored learner's annealed latent loop (``gibbs.anneal``) over
    the corpus's own pack (``corpus.pack``), with each sweep followed by
    conjugate redraws of the leaf prior, emissions, mixture weights and
    transition rows. The
    per-sweep log line keeps the factored column layout with ``-`` in
    the size-move and cluster-count columns.
    """
    check_compatible(corpus, hyper)
    params = init_sp_params(hyper, rng)
    pack = corpus.pack

    def redraw(m, temp, latents):
        stats = SpStats.from_latents(pack, latents, hyper)
        params.leaf_prior = dirichlet_rows(hyper.leaf_conc + stats.leaf, rng)
        params.emission = dirichlet_rows(hyper.emit_conc + stats.emission, rng)
        params.switch_weights = dirichlet_rows(1.0 + stats.switch, rng)
        params.child_transitions = dirichlet_rows(1.0 + stats.trans, rng)
        return (lambda: _complete_data_ll(stats, params)), "-\t-"

    anneal(
        pack, hyper, params, rng, sp_propose_latents, sp_latent_acceptance,
        redraw, log, on_sweep,
    )
    return params


def _complete_data_ll(stats, params):
    return (node_log_likelihood(stats, params)
            + count_log_dot(stats.switch, params.switch_weights)
            + count_log_dot(stats.trans, params.child_transitions))


# Inference is the generic upward recursion; these names are its sp entry points.
sp_marginal_log_likelihood = marginal_log_likelihood
sp_state_marginals = state_marginals
sp_node_label_marginals = node_label_marginals
