"""Annealed Gibbs learning, shared by both model kinds.

``anneal`` is the one annealed latent loop: per sweep, a Metropolis
update of each tree's latents proposed by ancestral sampling, tempered
by a schedule that cools to one, then the model's own moves and
conjugate redraws. ``train`` supplies those for the tensor-factorised
model: a split/merge Metropolis move on the per-slot cluster counts
(tempered the same way) and Dirichlet redraws of every parameter table.
The switching-parent learner in ``sp`` runs the same loop.

Every phase works on the whole corpus packed into flat arrays
(``trees.PackedCorpus``): proposals run one height level at a time
across all trees, acceptance terms are summed per tree with
``bincount``, and the count tables are ``bincount``s over raveled
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError
from .inference import NEG_INF
from .model import (
    HardClustering,
    LATENT_RATIOS,
    init_params,
    size_prior_log,
)
# ``categorical`` stays for the benchmark's draw counter; training draws none.
from .rand import categorical, dirichlet_rows, inverse_cdf  # noqa: F401
from .trees import PackedCorpus


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
class TupleCounts:
    """Per-state count rows ``counts[i]`` keyed by distinct integer
    tuples ``keys[i]`` (sorted where built here)."""

    keys: np.ndarray
    counts: np.ndarray

    def __len__(self):
        return len(self.keys)


def distinct_rows(rows, base):
    """Sorted distinct rows of an integer matrix with entries below
    ``base``, and each row's index among them. Columns fold into one
    int64 id per row; before a fold could overflow, the ids are replaced
    by their dense rank, so any width works."""
    ids, span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T:
        if span * base >= 2**63:
            _, ids = np.unique(ids, return_inverse=True)
            span = len(rows)
        ids = ids * base + col
        span *= base
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return rows[first], inverse.reshape(-1)


def ext_states(pack, q, nodes, n_states):
    """Extended child states of ``nodes``, ``n_states`` (bottom) for empty slots."""
    kids = pack.children[nodes]
    return np.where(kids >= 0, q[kids], n_states)


def cluster_keys(pack, q, nodes, clustering):
    """Cluster tuple of each of ``nodes`` under ``clustering``."""
    ext = ext_states(pack, q, nodes, clustering.n_states)
    return clustering.table[np.arange(pack.n_slots), ext]


def core_rows(params, keys):
    """Stacked core rows at the cluster tuples ``keys``, unseen ones drawn in order."""
    rows = [params.core_entry(key) for key in map(tuple, keys.tolist())]
    return np.array(rows).reshape(-1, params.n_states)


def count_cells(index, shape):
    """Count table of ``shape`` from a tuple of index arrays, one per axis."""
    flat = np.ravel_multi_index(index, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def node_counts(pack, q, hyper):
    """Leaf-prior counts per (slot, state), emissions per (state, label)."""
    leaf = pack.leaf_mask
    return (count_cells((pack.position[leaf], q[leaf]), (hyper.n_slots, hyper.n_states)),
            count_cells((q, pack.labels), (hyper.n_states, hyper.n_labels)))


@dataclass
class Latents:
    """Per-node latents of a packed corpus: hidden state ``q`` and, for
    the switching-parent model, the selected slot ``s`` (-1 at leaves).
    The factored model's cluster choices follow from ``q``
    (``cluster_keys``) and are not stored."""

    q: np.ndarray
    s: np.ndarray | None = None

    def adopt(self, other, nodes):
        """Take ``other``'s values at the boolean node mask ``nodes``."""
        self.q[nodes] = other.q[nodes]
        if self.s is not None:
            self.s[nodes] = other.s[nodes]


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
    raw: TupleCounts

    @classmethod
    def from_latents(cls, pack, latents, hyper):
        """Counts of a packed corpus (``trees.PackedCorpus``) under its latents."""
        n_states = hyper.n_states
        q = latents.q
        nodes = pack.internal
        keys, inverse = distinct_rows(ext_states(pack, q, nodes, n_states), n_states + 1)
        counts = count_cells((inverse, q[nodes]), (len(keys), n_states))
        return cls(*node_counts(pack, q, hyper), raw=TupleCounts(keys, counts))

    def tuple_counts(self, clustering):
        """Aggregate the raw counts onto the clusters of ``clustering``."""
        ext = self.raw.keys
        keys, inverse = distinct_rows(
            clustering.table[np.arange(ext.shape[1]), ext], clustering.n_states + 1
        )
        counts = np.zeros((len(keys), self.raw.counts.shape[1]), dtype=np.int64)
        np.add.at(counts, inverse, self.raw.counts)
        return TupleCounts(keys, counts)


def propose_latents(pack, params, rng):
    """Ancestral proposal of every tree's states, one height level at a time.

    One uniform per node, taken in ``pack.order``; leaves draw from
    their positional prior by inverse CDF. At each higher level the
    child states fix every node's cluster tuple, unseen core rows are
    drawn lazily in sorted key order, and each node draws from its core
    row. With the core complete, a single tree gets the draws of a
    per-node ``categorical`` sampler walking ``bottom_up_order()``.
    """
    u = np.empty(pack.n_nodes)
    u[pack.order] = rng.random(pack.n_nodes)
    q = np.empty(pack.n_nodes, dtype=np.int64)
    leaves = pack.levels[0]
    q[leaves] = inverse_cdf(np.cumsum(params.leaf_prior, axis=1)[pack.position[leaves]],
                            u[leaves])
    for nodes in pack.levels[1:]:
        keys, inverse = distinct_rows(
            cluster_keys(pack, q, nodes, params.clustering), params.n_states + 1
        )
        cum = np.cumsum(core_rows(params, keys), axis=1)
        q[nodes] = inverse_cdf(cum[inverse], u[nodes])
    return Latents(q)


def tempered_ratio(pack, table, row_prop, row_cur, q_prop, q_cur, temp, mode):
    """Per-tree tempered Metropolis acceptance from transition rows.

    Rows ``row_prop[i]``/``row_cur[i]`` of ``table`` are the proposed/
    current transition rows of node ``pack.internal[i]``, in state
    ``q_prop[i]``/``q_cur[i]``.
    ``"cross"`` evaluates the proposed row at both states in the
    numerator and the current row at both in the denominator;
    ``"plain"`` keeps only the proposed/current terms. Each tree sums
    its nodes' log terms. Zero mass resolves to acceptance 0 or 1 by
    the ratio's sign; two impossible sides accept, so the chain can
    leave a dead state.
    """
    if mode not in LATENT_RATIOS:
        raise ConfigError(f"mode must be one of {LATENT_RATIOS}")
    num, den = [table[row_prop, q_prop]], [table[row_cur, q_cur]]
    if mode == "cross":
        num.append(table[row_prop, q_cur])
        den.append(table[row_cur, q_prop])
    tree = np.tile(pack.tree[pack.internal], len(num))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_num, log_den = (
            np.bincount(tree, np.log(np.concatenate(terms)), minlength=len(pack))
            for terms in (num, den)
        )
        ratio = np.exp(np.minimum(0.0, (log_num - log_den) / temp))
    return np.where(log_den == NEG_INF, 1.0, np.where(log_num == NEG_INF, 0.0, ratio))


def latent_acceptance(current, proposed, pack, params, temp, mode="cross"):
    """Per-tree tempered acceptance probabilities of a packed proposal;
    the transition terms are the core rows at the cluster tuples."""
    nodes = pack.internal
    keys, inverse = distinct_rows(
        np.concatenate([cluster_keys(pack, x.q, nodes, params.clustering)
                        for x in (proposed, current)]),
        params.n_states + 1,
    )
    n = len(nodes)
    return tempered_ratio(pack, core_rows(params, keys), inverse[:n], inverse[n:],
                          proposed.q[nodes], current.q[nodes], temp, mode)


def marginal_likelihood_k(counts, core_conc, base_measure):
    """Log marginal likelihood of the cluster-tuple counts (``TupleCounts``
    under one clustering), core summed out.

    Product over occupied cluster tuples of the ratio of multivariate
    Beta functions between posterior and prior concentrations; empty
    tuples contribute a factor of one.
    """
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    if np.any(conc <= 0):
        raise DomainError("core prior concentrations must be positive")
    log_prior_beta = float(gammaln(conc).sum() - gammaln(conc.sum()))
    post = conc + counts.counts
    return float((gammaln(post).sum(axis=1) - gammaln(post.sum(axis=1)) - log_prior_beta).sum())


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


def size_acceptance(old, new, old_counts, new_counts, hyper, base_measure, temp):
    """Tempered acceptance probability for a cluster-count move from the
    clustering ``old`` to ``new``, given the tuple counts under each."""
    log_num = marginal_likelihood_k(new_counts, hyper.core_conc, base_measure)
    log_den = marginal_likelihood_k(old_counts, hyper.core_conc, base_measure)
    for k_new, k_old in zip(new.k, old.k):
        log_num += size_prior_log(k_new, hyper.size_decay)
        log_den += size_prior_log(k_old, hyper.size_decay)
    return math.exp(min(0.0, (log_num - log_den) / temp))


def resample_parameters(stats, counts, hyper, base_measure, rng):
    """Fresh conjugate draws of the leaf prior, emissions, and core rows.

    ``counts`` are the cluster-tuple counts under the current clustering.
    Core rows are drawn only for occupied cluster tuples (in sorted key
    order); unoccupied tuples fall back to the lazy prior draw on their
    next access.
    """
    leaf_prior = dirichlet_rows(hyper.leaf_conc + stats.leaf, rng)
    emission = dirichlet_rows(hyper.emit_conc + stats.emission, rng)
    rows = dirichlet_rows(hyper.core_conc * base_measure + counts.counts, rng)
    return leaf_prior, emission, dict(zip(map(tuple, counts.keys.tolist()), rows))


def crp_table_count(n, weight, rng):
    """Successes of sequential Bernoulli cascades, one per entry of ``n``.

    Draw ``p`` (1-based) of a cascade with ``n`` draws succeeds with
    probability ``weight / (p - 1 + weight)``; the expected total is the
    partial sum ``weight / weight + weight / (1 + weight) + ...``. One
    ``rng.random`` call serves all cascades in entry order; scalar ``n`` gives an int.
    """
    n = np.maximum(n, 0)
    cascade = np.repeat(np.arange(np.size(n)), n)
    offsets = np.arange(len(cascade)) - (np.cumsum(n) - n)[cascade]
    w = np.broadcast_to(weight, np.shape(n)).reshape(-1)[cascade]
    hits = np.bincount(cascade, rng.random(len(cascade)) * (offsets + w) < w,
                       minlength=np.size(n)).astype(np.int64)
    return int(hits[0]) if np.ndim(n) == 0 else hits


def resample_base_measure(counts, base_measure, core_conc, base_conc, rng):
    """Redraw the shared core base measure via per-cell cascade counts.

    Every occupied (cluster tuple, state) cell of ``counts`` (the
    ``TupleCounts`` under the current clustering), in sorted key and then
    state order, contributes the cascade successes for its count; the
    totals shift a symmetric Dirichlet with concentration
    ``base_conc / n_states``.
    """
    n_states = len(base_measure)
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    flat = counts.counts.reshape(-1)
    cells = np.flatnonzero(flat)
    state = cells % n_states
    hits = crp_table_count(flat[cells], conc[state], rng)
    totals = np.bincount(state, hits, minlength=n_states)
    return dirichlet_rows(base_conc / n_states + totals, rng)


@dataclass
class ChainState:
    """Everything one sampler chain owns after (or during) training."""

    params: object
    latents: Latents
    stats: SufficientStats
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


def complete_data_log_likelihood(stats, counts, params):
    """Joint log likelihood of data and latents from the count tables;
    ``counts`` are the cluster-tuple counts under ``params.clustering``."""
    return (
        count_log_dot(stats.leaf, params.leaf_prior)
        + count_log_dot(stats.emission, params.emission)
        + count_log_dot(counts.counts, core_rows(params, counts.keys))
    )


def check_compatible(corpus, hyper):
    if corpus.n_slots != hyper.n_slots:
        raise ConfigError(
            f"corpus has {corpus.n_slots} slots but hyper declares {hyper.n_slots}"
        )
    if corpus.n_labels != hyper.n_labels:
        raise ConfigError(
            f"corpus has {corpus.n_labels} labels but hyper declares {hyper.n_labels}"
        )


def anneal(pack, hyper, params, rng, propose, accept, redraw, log=None, on_sweep=None):
    """The annealed latent loop over a packed corpus; returns the final
    latents and the number of accepted latent proposals.

    Latents start from ``propose(pack, params, rng)`` (all trees at
    once). At sweep ``m`` each tree keeps a fresh proposal with the
    probability ``accept(current, proposal, pack, params, temp,
    hyper.latent_ratio)`` gives it, one uniform per tree. Then
    ``redraw(m, temp, latents)`` updates ``params`` in place and returns
    ``(complete_ll, columns)``: a function giving the complete-data log
    likelihood, called only when logging, and the last two log columns.
    ``log`` gets one tab-separated line per sweep: iteration,
    temperature, complete-data log likelihood, latent acceptance rate,
    ``columns``. ``on_sweep(m, params)`` runs after each sweep.
    """
    sched = AnnealingSchedule(hyper.init_temp, hyper.anneal_iters)
    latents = propose(pack, params, rng)
    total = 0
    for m in range(hyper.iterations):
        temp = temperature(m, sched)
        proposal = propose(pack, params, rng)
        prob = accept(latents, proposal, pack, params, temp, hyper.latent_ratio)
        keep = rng.random(len(pack)) < prob
        latents.adopt(proposal, keep[pack.tree])
        accepted = int(keep.sum())
        total += accepted
        complete_ll, columns = redraw(m, temp, latents)
        if log is not None:
            rate = accepted / max(1, len(pack))
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
    outcome is bit-identical. The corpus is packed once
    (``trees.PackedCorpus``); ``state.latents`` are ``Latents`` over it.

    The log's last two columns are the size-move accepted flag and the
    cluster-count vector.
    """
    check_compatible(corpus, hyper)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, rng)
    pack = PackedCorpus(corpus.trees, corpus.n_slots)
    state = ChainState(params=params, latents=None, stats=None)

    def redraw(m, temp, latents):
        stats = SufficientStats.from_latents(pack, latents, hyper)
        move = propose_size_move(params.clustering, hyper, rng)
        counts, move_counts = stats.tuple_counts(params.clustering), stats.tuple_counts(move)
        prob = size_acceptance(
            params.clustering, move, counts, move_counts, hyper, params.base_measure, temp
        )
        moved = rng.random() < prob
        state.size_proposals += 1
        if moved:
            state.size_accepts += 1
            params.clustering, counts = move, move_counts
        params.leaf_prior, params.emission, params.core = resample_parameters(
            stats, counts, hyper, params.base_measure, rng
        )
        params.base_measure = resample_base_measure(
            counts, params.base_measure, hyper.core_conc, hyper.base_conc, rng
        )
        state.stats = stats
        k_str = ",".join(str(v) for v in params.clustering.k)
        return ((lambda: complete_data_log_likelihood(stats, counts, params)),
                f"{int(moved)}\t{k_str}")

    state.latents, state.latent_accepts = anneal(
        pack, hyper, params, rng, propose_latents, latent_acceptance, redraw, log, on_sweep,
    )
    state.latent_proposals = hyper.iterations * len(pack)
    if state.stats is None:
        state.stats = SufficientStats.from_latents(pack, state.latents, hyper)
    return state
