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
    Latents, anneal, check_compatible, count_cells, count_log_dot, draw_levels, node_counts,
    node_log_likelihood, tempered_ratio,
)
from .inference import marginal_log_likelihood, node_label_marginals, state_marginals
from .model import SpModelParams, init_node_tables
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


def sp_propose_latents(pack, params, rng):
    """Ancestral proposal of states and slot choices, one height level
    at a time across all trees (``gibbs.draw_levels``). Leaves take one
    uniform each, internal nodes two (slot, then state from that slot's
    transition row), in ``pack.order``: a single tree gets the draws of
    a per-node ``categorical`` sampler walking ``bottom_up_order()``.
    The selected children's extended states come back in ``Latents.ext``."""
    n_leaves, n_internal = pack.bounds[1], len(pack.internal)
    u = rng.random(n_leaves + 2 * n_internal)
    pair = u[n_leaves:].reshape(-1, 2)
    slot = inverse_cdf(np.cumsum(params.switch_weights)[None], np.zeros(n_internal, np.int64),
                       pair[:, 0])
    s = np.full(pack.n_nodes, -1, dtype=np.int64)
    s[pack.internal] = slot
    n_states = params.n_states
    trans_cum = np.cumsum(params.child_transitions, axis=2).reshape(-1, n_states)
    q, ext = draw_levels(
        pack, params, u[:n_leaves], pack.internal_children[np.arange(n_internal), slot],
        lambda rows, ext: inverse_cdf(trans_cum, slot[rows] * (n_states + 1) + ext,
                                      pair[rows, 1]))
    return Latents(q, s, ext)


def sp_latent_acceptance(current, proposed, pack, params, temp, mode="cross"):
    """Per-tree tempered acceptance probabilities, transition terms only.

    The factored learner's ratio (``gibbs.tempered_ratio``) with the
    selected-slot transition row in place of the core row, read at the
    extended states each side carries (``Latents.rows``).
    """
    nodes, n_states = pack.internal, params.n_states
    rows = [x.s[nodes] * (n_states + 1) + x.rows(pack, n_states) for x in (proposed, current)]
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
        ext = latents.rows(pack, n_states)
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
