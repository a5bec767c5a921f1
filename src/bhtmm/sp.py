"""Switching-parent baseline.

Instead of conditioning a parent state on the joint configuration of
its children, this model picks one child slot per internal node from a
global mixture and conditions only on that child's (extended) state.
Training runs the factored learner's annealed latent loop
(``gibbs.anneal``) with this model's proposals and acceptance terms,
the slot choice playing the role of the cluster variables, followed by
conjugate Dirichlet redraws. Mixture weights and per-slot transition
rows carry flat Dirichlet priors (concentration 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .gibbs import anneal, check_compatible, count_log_dot, tempered_ratio
from .inference import NEG_INF, ext_state
from .model import SpModelParams
from .rand import categorical, dirichlet_rows


@dataclass
class SpLatentAssignment:
    """Hidden states plus the selected child slot per internal node."""

    q: np.ndarray
    s: dict


def sp_transition(params, ext_states):
    """Parent-state simplex for one joint child configuration.

    Convex combination over slots of the transition row selected by
    that slot's extended child state (bottom row for absent children).
    """
    rows = params.child_transitions[
        np.arange(params.n_slots), np.asarray(ext_states, dtype=np.int64), :
    ]
    return params.switch_weights @ rows


def init_sp_params(hyper, rng):
    """Draw fresh baseline parameters from flat priors."""
    leaf_prior = dirichlet_rows(
        np.full((hyper.n_slots, hyper.n_states), hyper.leaf_conc), rng
    )
    emission = dirichlet_rows(
        np.full((hyper.n_states, hyper.n_labels), hyper.emit_conc), rng
    )
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


def sp_propose_latents(tree, params, rng):
    """Ancestral proposal of states and slot choices, leaves first."""
    n_states = params.n_states
    q = np.empty(tree.n_nodes, dtype=np.int64)
    s = {}
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            q[u] = categorical(params.leaf_prior[tree.position[u]], rng)
        else:
            slot = categorical(params.switch_weights, rng)
            ext = ext_state(tree, q, u, slot, n_states)
            q[u] = categorical(params.child_transitions[slot, ext], rng)
            s[u] = slot
    return SpLatentAssignment(q, s)


def sp_latent_acceptance(current, proposed, tree, params, temp, mode="cross"):
    """Tempered acceptance probability, transition terms only.

    The factored learner's ratio (``gibbs.tempered_ratio``) with the
    selected-slot transition row in place of the core row.
    """
    n_states = params.n_states
    trans = params.child_transitions
    return tempered_ratio(
        (
            (trans[slot, ext_state(tree, proposed.q, u, slot, n_states)],
             trans[current.s[u], ext_state(tree, current.q, u, current.s[u], n_states)],
             int(proposed.q[u]), int(current.q[u]))
            for u, slot in proposed.s.items()
        ),
        temp,
        mode,
    )


@dataclass
class SpStats:
    """Count tables for the baseline's conjugate updates."""

    leaf: np.ndarray
    emission: np.ndarray
    switch: np.ndarray
    trans: np.ndarray

    @classmethod
    def from_latents(cls, trees, latents, hyper):
        n_states = hyper.n_states
        leaf = np.zeros((hyper.n_slots, n_states), dtype=np.int64)
        emission = np.zeros((n_states, hyper.n_labels), dtype=np.int64)
        switch = np.zeros(hyper.n_slots, dtype=np.int64)
        trans = np.zeros((hyper.n_slots, n_states + 1, n_states), dtype=np.int64)
        for tree, latent in zip(trees, latents):
            q = latent.q
            mask = tree.leaf_mask
            np.add.at(leaf, (tree.position[mask], q[mask]), 1)
            np.add.at(emission, (q, tree.labels), 1)
            for u, slot in latent.s.items():
                switch[slot] += 1
                trans[slot, ext_state(tree, q, u, slot, n_states), q[u]] += 1
        return cls(leaf=leaf, emission=emission, switch=switch, trans=trans)


def sp_train(corpus, hyper, rng, log=None, on_sweep=None):
    """Annealed Gibbs training of the baseline; returns the parameters.

    The factored learner's annealed latent loop (``gibbs.anneal``), with
    each sweep followed by conjugate redraws of the leaf prior,
    emissions, mixture weights and transition rows. The per-sweep log
    line keeps the factored column layout with ``-`` in the size-move
    and cluster-count columns.
    """
    check_compatible(corpus, hyper)
    params = init_sp_params(hyper, rng)
    trees = corpus.trees

    def redraw(m, temp, latents):
        stats = SpStats.from_latents(trees, latents, hyper)
        params.leaf_prior = dirichlet_rows(hyper.leaf_conc + stats.leaf, rng)
        params.emission = dirichlet_rows(hyper.emit_conc + stats.emission, rng)
        params.switch_weights = dirichlet_rows(1.0 + stats.switch, rng)
        params.child_transitions = dirichlet_rows(1.0 + stats.trans, rng)
        return (lambda: _complete_data_ll(stats, params)), "-\t-"

    anneal(
        trees, hyper, params, rng, sp_propose_latents, sp_latent_acceptance,
        redraw, log, on_sweep,
    )
    return params


def _complete_data_ll(stats, params):
    return (
        count_log_dot(stats.leaf, params.leaf_prior)
        + count_log_dot(stats.emission, params.emission)
        + count_log_dot(stats.switch, params.switch_weights)
        + count_log_dot(stats.trans, params.child_transitions)
    )


def sp_marginal_log_likelihood(tree, params):
    """Log probability of the observed labels under the baseline.

    Upward pass where each slot term combines the transition from that
    slot's child with the total subtree evidence of every other child;
    non-selected children integrate out to their evidence.
    """
    n_states = params.n_states
    with np.errstate(divide="ignore"):
        log_prior = np.log(params.leaf_prior)
        log_emit = np.log(params.emission)
        log_switch = np.log(params.switch_weights)
        log_trans = np.log(params.child_transitions)
    beta = np.empty((tree.n_nodes, n_states))
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            beta[u] = log_prior[tree.position[u]] + log_emit[:, tree.labels[u]]
            continue
        kids = tree.children[u]
        evidence = np.zeros(tree.n_slots)
        for l in range(tree.n_slots):
            if kids[l] >= 0:
                evidence[l] = logsumexp(beta[kids[l]])
        if np.any(evidence == NEG_INF):
            beta[u] = NEG_INF
            continue
        total_evidence = float(evidence.sum())
        terms = np.empty((tree.n_slots, n_states))
        for l in range(tree.n_slots):
            if kids[l] < 0:
                inner = log_trans[l, n_states, :]
                others = total_evidence
            else:
                inner = logsumexp(
                    log_trans[l, :n_states, :] + beta[kids[l]][:, None], axis=0
                )
                others = total_evidence - evidence[l]
            terms[l] = log_switch[l] + inner + others
        beta[u] = log_emit[:, tree.labels[u]] + logsumexp(terms, axis=0)
    return float(logsumexp(beta[tree.root]))


def sp_state_marginals(tree, params):
    """Exact per-node hidden-state marginals for a bare structure."""
    n_states = params.n_states
    marg = np.empty((tree.n_nodes, n_states))
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            marg[u] = params.leaf_prior[tree.position[u]]
            continue
        acc = np.zeros(n_states)
        for l in range(tree.n_slots):
            child = tree.children[u, l]
            if child < 0:
                row = params.child_transitions[l, n_states, :]
            else:
                row = marg[child] @ params.child_transitions[l, :n_states, :]
            acc += params.switch_weights[l] * row
        marg[u] = acc
    return marg


def sp_node_label_marginals(tree, params):
    """Exact per-node label distributions given only the structure."""
    return sp_state_marginals(tree, params) @ params.emission
