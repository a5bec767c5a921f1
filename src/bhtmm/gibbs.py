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
indices. A sweep gathers each internal node's extended child states
once, in the proposal; the latents carry them (``Latents.ext``) to the
acceptance and the count tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError
from .model import HardClustering, LATENT_RATIOS, init_params, size_prior_log
# ``categorical`` stays for the benchmark's draw counter; training draws none.
from .rand import categorical, dirichlet_rows, inverse_cdf  # noqa: F401

NEG_INF = float("-inf")


def temperature(m, hyper):
    """Annealing temperature at sweep ``m``: geometric decay from
    ``hyper.init_temp``, reaching 1 at ``hyper.anneal_iters`` and floored there."""
    if m < 0:
        raise DomainError("sweep index must be non-negative")
    return float(max(hyper.init_temp ** (1.0 - m / hyper.anneal_iters), 1.0))


def count_cells(index, shape):
    """Count table of ``shape`` from a tuple of index arrays, one per axis."""
    flat = np.ravel_multi_index(index, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def node_counts(pack, q, hyper):
    """Leaf-prior counts per (slot, state), emissions per (state, label)."""
    leaves = pack.levels[0]
    return (count_cells((pack.position[leaves], q[leaves]), (hyper.n_slots, hyper.n_states)),
            count_cells((q, pack.labels), (hyper.n_states, hyper.n_labels)))


@dataclass
class Latents:
    """Per-node latents of a packed corpus: hidden state ``q`` and, for
    the switching-parent model, the selected slot ``s`` (-1 at leaves).
    The factored model's cluster choices follow from ``q``. A proposal
    carries, per node of ``pack.internal``, the extended child states
    its transition row reads, ``ext`` (the selected slot's for the
    switching-parent model), and for the factored model their raveled
    core ``cell`` under the live clustering. Latents built by hand carry
    neither, and ``rows`` gathers ``ext`` afresh.
    """

    q: np.ndarray
    s: np.ndarray | None = None
    ext: np.ndarray | None = None
    cell: np.ndarray | None = None

    def rows(self, pack, n_states):
        """``ext``, or a fresh gather when these latents carry none."""
        if self.ext is not None:
            return self.ext
        kids = pack.internal_children
        if self.s is not None:
            kids = kids[np.arange(len(kids)), self.s[pack.internal]]
        return np.where(kids >= 0, self.q[kids], n_states)

    def adopt(self, other, nodes, rows):
        """Take ``other``'s values at the boolean node mask ``nodes``, and
        its carried rows at ``rows``, the same mask at ``pack.internal``,
        so the rows go on matching ``q``."""
        for mine, theirs, where in ((self.q, other.q, nodes), (self.s, other.s, nodes),
                                    (self.ext, other.ext, rows), (self.cell, other.cell, rows)):
            if mine is not None:
                # Transposed, a row mask broadcasts over tf's slot columns.
                np.copyto(mine.T, theirs.T, where=where)


@dataclass
class SufficientStats:
    """Count tables driving every conjugate update.

    ``raw`` holds one row per internal node, in ``pack.internal`` order:
    its extended child states (not clusters), then its own state. The
    cluster-tuple counts under any candidate clustering are counted from
    it without touching the trees again.
    """

    leaf: np.ndarray
    emission: np.ndarray
    raw: np.ndarray

    @classmethod
    def from_latents(cls, pack, latents, hyper):
        """Counts of a packed corpus (``trees.PackedCorpus``) under its latents."""
        q = latents.q
        raw = np.column_stack([latents.rows(pack, hyper.n_states), q[pack.internal]])
        return cls(*node_counts(pack, q, hyper), raw=raw)

    def tuple_counts(self, clustering):
        """``(prod(clustering.k), n_states)`` table of the raw rows by core
        cell under ``clustering`` and parent state."""
        return count_cells((clustering.cells(self.raw[:, :-1]), self.raw[:, -1]),
                           (math.prod(clustering.k), clustering.n_states))


def draw_levels(pack, params, u, kids, draw):
    """``(q, ext)`` of an ancestral proposal, one height level at a time.

    Leaves draw from their positional prior with the uniforms ``u``;
    ``kids`` are the child ids each of ``pack.internal`` reads, and
    ``draw(rows, ext)`` gives the states of the internal ``rows`` (one
    level's slice). ``q`` is a view of a buffer whose extra last entry,
    the bottom symbol, is what id -1 reads: a level's ``ext`` is one gather.
    """
    qx = np.empty(pack.n_nodes + 1, dtype=np.int64)
    qx[-1] = params.n_states
    leaves = pack.levels[0]
    qx[leaves] = inverse_cdf(np.cumsum(params.leaf_prior, axis=1), pack.position[leaves], u)
    ext = np.empty(kids.shape, dtype=np.int64)
    first = pack.bounds[1]
    for nodes, a, b in zip(pack.levels[1:], pack.bounds[1:], pack.bounds[2:]):
        rows = slice(a - first, b - first)
        ext[rows] = qx[kids[rows]]
        qx[nodes] = draw(rows, ext[rows])
    return qx[:-1], ext


def propose_latents(pack, params, rng):
    """Ancestral proposal of every tree's states, one height level at a time.

    One uniform per node, taken in ``pack.order``. Each level gathers
    its extended child states once (``draw_levels``), which fix every
    node's raveled core cell, and each node draws from its row of a
    cumulative core table built once per call. The rows come back in
    ``Latents.ext`` and ``Latents.cell``. A single tree gets the draws
    of a per-node ``categorical`` sampler walking ``bottom_up_order()``.
    """
    u = rng.random(pack.n_nodes)
    n_leaves = pack.bounds[1]
    cum = np.cumsum(params.core, axis=1)
    cell = np.empty(len(pack.internal), dtype=np.int64)

    def draw(rows, ext):
        cell[rows] = params.clustering.cells(ext)
        return inverse_cdf(cum, cell[rows], u[n_leaves:][rows])

    q, ext = draw_levels(pack, params, u[:n_leaves], pack.internal_children, draw)
    return Latents(q, ext=ext, cell=cell)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        log_table = np.log(table)
        num, den = [log_table[row_prop, q_prop]], [log_table[row_cur, q_cur]]
        if mode == "cross":
            num.append(log_table[row_prop, q_cur])
            den.append(log_table[row_cur, q_prop])
        tree = np.tile(pack.tree[pack.internal], len(num))
        log_num, log_den = (
            np.bincount(tree, np.concatenate(terms), minlength=len(pack))
            for terms in (num, den)
        )
        ratio = np.exp(np.minimum(0.0, (log_num - log_den) / temp))
    return np.where(log_den == NEG_INF, 1.0, np.where(log_num == NEG_INF, 0.0, ratio))


def latent_acceptance(current, proposed, pack, params, temp, mode="cross"):
    """Per-tree tempered acceptance probabilities of a packed proposal;
    the transition terms are the core rows at the cells each side carries."""
    nodes, clustering = pack.internal, params.clustering
    rows = [x.cell if x.cell is not None else clustering.cells(x.rows(pack, params.n_states))
            for x in (proposed, current)]
    return tempered_ratio(pack, params.core, *rows, proposed.q[nodes], current.q[nodes], temp,
                          mode)


def marginal_likelihood_k(counts, core_conc, base_measure):
    """Log marginal likelihood of the cluster-tuple counts (the
    ``(n_cells, n_states)`` table of ``SufficientStats.tuple_counts``),
    core summed out.

    Product over occupied rows, in cell order, of the ratio of
    multivariate Beta functions between posterior and prior
    concentrations; empty tuples contribute a factor of one and are
    left out of the sum.
    """
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    if np.any(conc <= 0):
        raise DomainError("core prior concentrations must be positive")
    log_prior_beta = float(gammaln(conc).sum() - gammaln(conc.sum()))
    post = conc + counts[counts.any(axis=1)]
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
    """Fresh conjugate draws of the leaf prior, emissions, and the whole core.

    ``counts`` is the ``(n_cells, n_states)`` count table under the
    current clustering (``SufficientStats.tuple_counts``); the core is
    one Dirichlet call over ``core_conc * base_measure + counts``, one
    row per cell, so an unoccupied row is a prior draw.
    """
    leaf_prior = dirichlet_rows(hyper.leaf_conc + stats.leaf, rng)
    emission = dirichlet_rows(hyper.emit_conc + stats.emission, rng)
    return leaf_prior, emission, dirichlet_rows(hyper.core_conc * base_measure + counts, rng)


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

    Every occupied (cell, state) entry of ``counts`` (the
    ``(n_cells, n_states)`` table under the current clustering), in cell
    and then state order, contributes the cascade successes for its
    count; the totals shift a symmetric Dirichlet with concentration
    ``base_conc / n_states``.
    """
    n_states = len(base_measure)
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    flat = counts.reshape(-1)
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


def node_log_likelihood(stats, params):
    """The leaf-prior and emission terms of the complete-data log likelihood."""
    return (count_log_dot(stats.leaf, params.leaf_prior)
            + count_log_dot(stats.emission, params.emission))


def complete_data_log_likelihood(stats, counts, params):
    """Joint log likelihood of data and latents from the count tables;
    ``counts`` are the cell counts under ``params.clustering``."""
    return (node_log_likelihood(stats, params)
            + count_log_dot(counts, params.core))


def check_compatible(corpus, sizes):
    """Raise ``ConfigError`` unless ``corpus`` has the slot and label
    counts of ``sizes`` (a ``HyperParams`` or a model)."""
    if (corpus.n_slots, corpus.n_labels) != (sizes.n_slots, sizes.n_labels):
        raise ConfigError(f"model expects L={sizes.n_slots} M={sizes.n_labels}, "
                          f"corpus has L={corpus.n_slots} M={corpus.n_labels}")


def anneal(pack, hyper, params, rng, propose, accept, redraw, log=None, on_sweep=None):
    """The annealed latent loop over a packed corpus; returns the final
    latents and the number of accepted latent proposals.

    Latents start from ``propose(pack, params, rng)`` (all trees at
    once). At sweep ``m`` each tree keeps a fresh proposal with the
    probability ``accept(current, proposal, pack, params, temp,
    hyper.latent_ratio)`` gives it, one uniform per tree; the kept
    trees' states and carried rows move into the current latents
    (``Latents.adopt``), so no phase gathers child states again. Then
    ``redraw(m, temp, latents)`` updates ``params`` in place and returns
    ``(complete_ll, columns)``: a function giving the complete-data log
    likelihood, called only when logging, and the last two log columns.
    ``log`` gets one tab-separated line per sweep: iteration,
    temperature, complete-data log likelihood, latent acceptance rate,
    ``columns``. ``on_sweep(m, params)`` runs after each sweep with the
    live model, which is always complete: inference there works and
    never draws, so it cannot change the chain. An empty corpus raises
    ``ConfigError``.
    """
    if not len(pack):
        raise ConfigError("training needs at least one tree")
    latents = propose(pack, params, rng)
    owner = pack.tree[pack.internal]
    total = 0
    for m in range(hyper.iterations):
        temp = temperature(m, hyper)
        proposal = propose(pack, params, rng)
        prob = accept(latents, proposal, pack, params, temp, hyper.latent_ratio)
        keep = rng.random(len(pack)) < prob
        latents.adopt(proposal, keep[pack.tree], keep[owner])
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
    rebuilt from the carried rows (the live clustering's from the
    carried cells, which an accepted move recomputes), one cluster
    split/merge is attempted, and all parameters are redrawn from their
    conjugate posteriors. The result is the last
    chain state; given the same corpus, hyper-parameters and seed the
    outcome is bit-identical. The sweeps run over the corpus's own pack
    (``corpus.pack``); ``state.latents`` are ``Latents`` over it.

    The log's last two columns are the size-move accepted flag and the
    cluster-count vector. ``on_sweep(m, params)`` gets the live model
    (see ``anneal``).
    """
    check_compatible(corpus, hyper)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, rng)
    pack = corpus.pack
    state = ChainState(params=params, latents=None, stats=None)

    def redraw(m, temp, latents):
        stats = SufficientStats.from_latents(pack, latents, hyper)
        move = propose_size_move(params.clustering, hyper, rng)
        counts = count_cells((latents.cell, stats.raw[:, -1]), params.core.shape)
        move_counts = stats.tuple_counts(move)
        prob = size_acceptance(
            params.clustering, move, counts, move_counts, hyper, params.base_measure, temp
        )
        moved = rng.random() < prob
        state.size_proposals += 1
        if moved:
            state.size_accepts += 1
            params.clustering, counts = move, move_counts
            latents.cell = move.cells(latents.ext)
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
