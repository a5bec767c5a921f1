"""Annealed Gibbs learning, shared by both model kinds.

``anneal`` is the one annealed latent loop: per sweep, a Metropolis
update of each tree's latents proposed by ancestral sampling, tempered
by a schedule that cools to one, then the model's own moves and
conjugate redraws. ``train`` supplies those for the tensor-factorised
model: a split/merge Metropolis move on the per-slot cluster counts
(tempered the same way) and Dirichlet redraws of every parameter table.
The switching-parent learner in ``sp`` runs the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError
from .inference import NEG_INF, LatentAssignment, _log, cluster_tuple
from .model import (
    HardClustering,
    LATENT_RATIOS,
    init_params,
    size_prior_log,
)
from .rand import categorical, dirichlet_rows


@dataclass(frozen=True)
class AnnealingSchedule:
    """Temperature decay from ``init_temp`` down to one."""

    init_temp: float
    anneal_iters: int

    def __post_init__(self):
        if self.init_temp < 1 or self.anneal_iters < 1:
            raise ConfigError("need init_temp >= 1 and anneal_iters >= 1")


def temperature(m, sched):
    """Annealing temperature at sweep ``m``: geometric decay, floored at 1."""
    if m < 0:
        raise DomainError("sweep index must be non-negative")
    return float(max(sched.init_temp ** (1.0 - m / sched.anneal_iters), 1.0))


@dataclass
class SufficientStats:
    """Count tables driving every conjugate update.

    ``raw`` is keyed by the joint *extended child state* tuple of an
    internal node (not by clusters), so the cluster-tuple counts under
    any candidate clustering can be re-aggregated without touching the
    trees again.
    """

    leaf: np.ndarray
    emission: np.ndarray
    raw: dict

    @classmethod
    def from_latents(cls, trees, latents, hyper):
        n_states = hyper.n_states
        leaf = np.zeros((hyper.n_slots, n_states), dtype=np.int64)
        emission = np.zeros((n_states, hyper.n_labels), dtype=np.int64)
        raw = {}
        for tree, latent in zip(trees, latents):
            q = latent.q
            mask = tree.leaf_mask
            np.add.at(leaf, (tree.position[mask], q[mask]), 1)
            np.add.at(emission, (q, tree.labels), 1)
            children = tree.children
            for u in map(int, tree.internal_nodes):
                key = tuple(
                    n_states if children[u, l] < 0 else int(q[children[u, l]])
                    for l in range(tree.n_slots)
                )
                vec = raw.get(key)
                if vec is None:
                    vec = np.zeros(n_states, dtype=np.int64)
                    raw[key] = vec
                vec[q[u]] += 1
        return cls(leaf=leaf, emission=emission, raw=raw)

    def tuple_counts(self, clustering):
        """Aggregate the raw counts onto the clusters of ``clustering``."""
        out = {}
        for key, vec in self.raw.items():
            ck = clustering.map_ext(key)
            acc = out.get(ck)
            if acc is None:
                out[ck] = vec.copy()
            else:
                acc += vec
        return out

    def equals(self, other):
        return (
            np.array_equal(self.leaf, other.leaf)
            and np.array_equal(self.emission, other.emission)
            and self.raw.keys() == other.raw.keys()
            and all(np.array_equal(v, other.raw[k]) for k, v in self.raw.items())
        )


def propose_latents(tree, params, rng):
    """Ancestral proposal of states and cluster choices, leaves first.

    Leaf states come from the positional prior; each cluster choice is
    the (deterministic) hard cluster of the proposed child state, with
    the bottom symbol standing in for absent children; internal states
    are then drawn from the core row at that cluster tuple.
    """
    n_states = params.n_states
    assign = params.clustering.assign
    q = np.empty(tree.n_nodes, dtype=np.int64)
    z = {}
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            q[u] = categorical(params.leaf_prior[tree.position[u]], rng)
        else:
            zt = cluster_tuple(tree, q, u, assign, n_states)
            z[u] = zt
            q[u] = categorical(params.core_entry(zt), rng)
    return LatentAssignment(q, z)


def tempered_ratio(terms, temp, mode):
    """Tempered Metropolis acceptance from per-node transition terms.

    ``terms`` yields ``(proposed row, current row, proposed state,
    current state)`` per internal node. ``"cross"`` evaluates the
    proposed row at both the proposed and the current state in the
    numerator and the current row at both states in the denominator;
    ``"plain"`` keeps only the proposed/current terms. Impossible
    configurations (zero mass) resolve to acceptance 0 or 1 by the
    ratio's sign; two impossible sides accept, so the chain can leave a
    dead state.
    """
    if mode not in LATENT_RATIOS:
        raise ConfigError(f"mode must be one of {LATENT_RATIOS}")
    log_num = 0.0
    log_den = 0.0
    for row_prop, row_cur, q_prop, q_cur in terms:
        log_num += _log(row_prop[q_prop])
        log_den += _log(row_cur[q_cur])
        if mode == "cross":
            log_num += _log(row_prop[q_cur])
            log_den += _log(row_cur[q_prop])
    if log_num == NEG_INF:
        return 1.0 if log_den == NEG_INF else 0.0
    if log_den == NEG_INF:
        return 1.0
    return math.exp(min(0.0, (log_num - log_den) / temp))


def latent_acceptance(current, proposed, params, temp, mode="cross"):
    """Tempered acceptance probability for a latent proposal; the
    transition terms are the core rows at the two cluster tuples."""
    return tempered_ratio(
        (
            (params.core_entry(z_prop), params.core_entry(current.z[u]),
             int(proposed.q[u]), int(current.q[u]))
            for u, z_prop in proposed.z.items()
        ),
        temp,
        mode,
    )


def marginal_likelihood_k(stats, clustering, core_conc, base_measure):
    """Log marginal likelihood of the transition counts, core summed out.

    Product over occupied cluster tuples of the ratio of multivariate
    Beta functions between posterior and prior concentrations; empty
    tuples contribute a factor of one.
    """
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    if np.any(conc <= 0):
        raise DomainError("core prior concentrations must be positive")
    log_prior_beta = float(gammaln(conc).sum() - gammaln(conc.sum()))
    total = 0.0
    for counts in stats.tuple_counts(clustering).values():
        post = conc + counts
        total += float(gammaln(post).sum() - gammaln(post.sum())) - log_prior_beta
    return total


def _random_split(clustering, slot, rng):
    """Split one splittable cluster of ``slot`` uniformly at random.

    Each member moves to the new cluster by a fair coin; an attempt that
    empties either side is retried, with a single-member move as a
    last-resort fallback. Only clusters with at least two members are
    candidates, so a valid split always exists.
    """
    sizes = [len(clustering.members(slot, i)) for i in range(clustering.k[slot])]
    splittable = [i for i, s in enumerate(sizes) if s >= 2]
    target = splittable[int(rng.integers(len(splittable)))]
    members = clustering.members(slot, target)
    for _ in range(100):
        mask = rng.random(len(members)) < 0.5
        if 0 < mask.sum() < len(members):
            return clustering.split(slot, target, members[mask])
    return clustering.split(slot, target, [members[int(rng.integers(len(members)))]])


def _random_merge(clustering, slot, rng):
    first, second = (int(v) for v in rng.choice(clustering.k[slot], 2, replace=False))
    return clustering.merge(slot, first, second)


def propose_size_move(clustering, hyper, rng):
    """One split/merge move on the cluster counts, window repairs included.

    A uniform slot gets a coin-tossed increase or decrease (forced to
    increase at one cluster, forced to decrease at the full extended
    alphabet). If the active-slot count leaves its window, a repair move
    runs at another random slot; an increase that still violates the
    upper bound after the repair is rolled back.
    """
    full = hyper.n_states + 1
    slot = int(rng.integers(hyper.n_slots))
    increase = bool(rng.integers(2) == 0)
    if clustering.k[slot] == 1:
        increase = True
    if clustering.k[slot] == full:
        increase = False
    before = clustering
    if increase:
        new = _random_split(clustering, slot, rng)
    else:
        new = _random_merge(clustering, slot, rng)
    if new.n_active() > hyper.max_active:
        others = [l for l in range(hyper.n_slots) if l != slot and new.k[l] > 1]
        other = others[int(rng.integers(len(others)))]
        new = _random_merge(new, other, rng)
        if new.n_active() > hyper.max_active:
            # Undo the increase at ``slot``; the repair merge stays.
            arrays = list(new.assign)
            arrays[slot] = before.assign[slot]
            new = HardClustering(arrays)
    if new.n_active() < hyper.min_active:
        ones = [l for l in range(hyper.n_slots) if new.k[l] == 1]
        grow = ones[int(rng.integers(len(ones)))]
        new = _random_split(new, grow, rng)
    return new


def size_acceptance(old, new, stats, hyper, base_measure, temp):
    """Tempered acceptance probability for a cluster-count move."""
    log_num = marginal_likelihood_k(stats, new, hyper.core_conc, base_measure)
    log_den = marginal_likelihood_k(stats, old, hyper.core_conc, base_measure)
    for k_new, k_old in zip(new.k, old.k):
        log_num += size_prior_log(k_new, hyper.size_decay)
        log_den += size_prior_log(k_old, hyper.size_decay)
    return math.exp(min(0.0, (log_num - log_den) / temp))


def resample_parameters(stats, hyper, base_measure, clustering, rng):
    """Fresh conjugate draws of the leaf prior, emissions, and core rows.

    Core rows are drawn only for occupied cluster tuples (in sorted key
    order); unoccupied tuples fall back to the lazy prior draw on their
    next access.
    """
    leaf_prior = dirichlet_rows(hyper.leaf_conc + stats.leaf, rng)
    emission = dirichlet_rows(hyper.emit_conc + stats.emission, rng)
    counts = stats.tuple_counts(clustering)
    keys = sorted(counts)
    core = {}
    if keys:
        conc = hyper.core_conc * base_measure + np.stack([counts[k] for k in keys])
        rows = dirichlet_rows(conc, rng)
        core = {key: rows[i] for i, key in enumerate(keys)}
    return leaf_prior, emission, core


def crp_table_count(n, weight, rng):
    """Successes of the sequential Bernoulli cascade over ``n`` draws.

    Draw ``p`` (1-based) succeeds with probability
    ``weight / (p - 1 + weight)``; the expected total is the partial sum
    ``weight / weight + weight / (1 + weight) + ...``.
    """
    if n <= 0:
        return 0
    offsets = np.arange(n, dtype=np.float64)
    return int((rng.random(n) * (offsets + weight) < weight).sum())


def resample_base_measure(stats, clustering, base_measure, core_conc, base_conc, rng):
    """Redraw the shared core base measure via per-cell cascade counts.

    Every occupied (cluster tuple, state) cell contributes the cascade
    successes for its count; the totals shift a symmetric Dirichlet with
    concentration ``base_conc / n_states``.
    """
    n_states = len(base_measure)
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    totals = np.zeros(n_states)
    counts = stats.tuple_counts(clustering)
    for key in sorted(counts):
        vec = counts[key]
        for c in np.flatnonzero(vec):
            totals[c] += crp_table_count(int(vec[c]), float(conc[c]), rng)
    return dirichlet_rows(base_conc / n_states + totals, rng)


@dataclass
class ChainState:
    """Everything one sampler chain owns after (or during) training."""

    params: object
    latents: list
    stats: SufficientStats
    iteration: int
    rng: np.random.Generator
    latent_accepts: int = 0
    latent_proposals: int = 0
    size_accepts: int = 0
    size_proposals: int = 0


def count_log_dot(counts, probs):
    """Sum of ``counts * log(probs)`` over the cells with positive counts."""
    mask = counts > 0
    if not np.any(mask):
        return 0.0
    with np.errstate(divide="ignore"):
        return float((counts[mask] * np.log(probs[mask])).sum())


def complete_data_log_likelihood(stats, params):
    """Joint log likelihood of data and latents from the count tables."""
    total = count_log_dot(stats.leaf, params.leaf_prior) + count_log_dot(
        stats.emission, params.emission
    )
    for key, vec in stats.tuple_counts(params.clustering).items():
        row = params.core_entry(key)
        for c in np.flatnonzero(vec):
            total += vec[c] * _log(row[c])
    return total


def _remap_latent_clusters(trees, latents, clustering, n_states):
    """Recompute every stored cluster choice under a new clustering."""
    for tree, latent in zip(trees, latents):
        for u in latent.z:
            latent.z[u] = cluster_tuple(tree, latent.q, u, clustering.assign, n_states)


def check_compatible(corpus, hyper):
    if corpus.n_slots != hyper.n_slots:
        raise ConfigError(
            f"corpus has {corpus.n_slots} slots but hyper declares {hyper.n_slots}"
        )
    if corpus.n_labels != hyper.n_labels:
        raise ConfigError(
            f"corpus has {corpus.n_labels} labels but hyper declares {hyper.n_labels}"
        )


def anneal(trees, hyper, params, rng, propose, accept, redraw, log=None, on_sweep=None):
    """The annealed latent loop; returns the final latents and the
    number of accepted latent proposals.

    Trees start from ``propose(tree, params, rng)``. At sweep ``m`` every
    tree gets a fresh proposal, kept with probability ``accept(current,
    proposal, tree, params, temp, hyper.latent_ratio)``. Then
    ``redraw(m, temp, latents)`` updates ``params`` in place and returns
    ``(complete_ll, columns)``: a function giving the complete-data log
    likelihood, called only when logging, and the last two log columns.
    ``log`` gets one tab-separated line per sweep: iteration,
    temperature, complete-data log likelihood, latent acceptance rate,
    ``columns``. ``on_sweep(m, params)`` runs after each sweep.
    """
    sched = AnnealingSchedule(hyper.init_temp, hyper.anneal_iters)
    latents = [propose(tree, params, rng) for tree in trees]
    total = 0
    for m in range(hyper.iterations):
        temp = temperature(m, sched)
        accepted = 0
        for i, tree in enumerate(trees):
            proposal = propose(tree, params, rng)
            prob = accept(latents[i], proposal, tree, params, temp, hyper.latent_ratio)
            if rng.random() < prob:
                latents[i] = proposal
                accepted += 1
        total += accepted
        complete_ll, columns = redraw(m, temp, latents)
        if log is not None:
            rate = accepted / max(1, len(trees))
            print(f"{m}\t{temp:.6g}\t{complete_ll():.6f}\t{rate:.4f}\t{columns}", file=log)
        if on_sweep is not None:
            on_sweep(m, params)
    return latents, total


def train(corpus, hyper, log=None, on_sweep=None):
    """Run the full annealed sampler and return the final chain state.

    After each sweep's latent step (``anneal``), the count tables are
    rebuilt, one cluster split/merge is attempted, and all parameters
    are redrawn from their conjugate posteriors. The result is the last
    chain state; given the same corpus, hyper-parameters and seed the
    outcome is bit-identical.

    The log's last two columns are the size-move accepted flag and the
    cluster-count vector.
    """
    check_compatible(corpus, hyper)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, rng)
    trees = corpus.trees
    state = ChainState(params=params, latents=[], stats=None, iteration=0, rng=rng)

    def redraw(m, temp, latents):
        stats = SufficientStats.from_latents(trees, latents, hyper)
        move = propose_size_move(params.clustering, hyper, rng)
        prob = size_acceptance(
            params.clustering, move, stats, hyper, params.base_measure, temp
        )
        moved = rng.random() < prob
        state.size_proposals += 1
        if moved:
            state.size_accepts += 1
            params.clustering = move
            _remap_latent_clusters(trees, latents, move, hyper.n_states)
        params.leaf_prior, params.emission, params.core = resample_parameters(
            stats, hyper, params.base_measure, params.clustering, rng
        )
        params.base_measure = resample_base_measure(
            stats,
            params.clustering,
            params.base_measure,
            hyper.core_conc,
            hyper.base_conc,
            rng,
        )
        state.stats = stats
        state.iteration = m + 1
        k_str = ",".join(str(v) for v in params.clustering.k)
        return (lambda: complete_data_log_likelihood(stats, params)), f"{int(moved)}\t{k_str}"

    state.latents, state.latent_accepts = anneal(
        trees, hyper, params, rng, propose_latents,
        lambda current, proposal, tree, *rest: latent_acceptance(current, proposal, *rest),
        redraw, log, on_sweep,
    )
    state.latent_proposals = hyper.iterations * len(trees)
    if state.stats is None:
        state.stats = SufficientStats.from_latents(trees, state.latents, hyper)
    return state
