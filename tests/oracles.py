"""Independent brute-force evaluators used as oracles by the tests.

Everything here is written from the model definitions directly: plain
products of factors and exhaustive sums over latent configurations,
sharing no code with the dynamic programs under test. The one sampler
here, ``ancestral_sample``, draws test data from a model with the
learner's ancestral proposal; tests compare its draws with the exact
marginals.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from bhtmm.gibbs import propose_latents
from bhtmm.inference import _packed
from bhtmm.model import HardClustering, TfModelParams
from bhtmm.rand import dirichlet_rows, inverse_cdf
from bhtmm.trees import TreeBuilder


@dataclass
class LatentAssignment:
    """Hidden states plus per-slot cluster choices.

    ``q[u]`` is the hidden state of node ``u``; ``z[u]`` exists for
    every internal node and holds one cluster index per child slot,
    absent children included.
    """

    q: np.ndarray
    z: dict


def random_structure(rng, n_slots, max_nodes, n_labels):
    """Random tree: repeatedly attach nodes to a uniformly chosen free slot."""
    n_nodes = int(rng.integers(1, max_nodes + 1))
    builder = TreeBuilder(n_slots)
    builder.add(int(rng.integers(n_labels)))
    free = [(0, l) for l in range(n_slots)]
    for _ in range(n_nodes - 1):
        pick = int(rng.integers(len(free)))
        parent, slot = free.pop(pick)
        node = builder.add(int(rng.integers(n_labels)), parent=parent, position=slot)
        free.extend((node, l) for l in range(n_slots))
    return builder.build()


def subtree_keys(trees, labelled):
    """Every node's subtree as a nested tuple, in packed (global id) order:
    a leaf is its slot position, an internal node its children's keys per
    slot (``None`` when empty); with ``labelled``, each node's label too."""
    keys = []
    for tree in trees:
        local = {}
        for u in tree.bottom_up_order():
            u = int(u)
            kids = tuple(local[int(c)] if c >= 0 else None for c in tree.children[u])
            shape = ("leaf", int(tree.position[u])) if all(k is None for k in kids) else kids
            local[u] = (shape, int(tree.labels[u])) if labelled else shape
        keys += [local[u] for u in range(tree.n_nodes)]
    return keys


def separable_corpus(rng, per_class, max_nodes=8):
    """Two-class corpus with disjoint label alphabets ({0,1} vs {2,3})."""
    from bhtmm.trees import TreeCorpus

    trees = []
    classes = []
    for cls, offset in enumerate((0, 2)):
        for _ in range(per_class):
            tree = random_structure(rng, 2, max_nodes, 2)
            relabelled = TreeBuilder(2)
            order = []
            for u in range(tree.n_nodes):
                order.append(u)
            ids = {}
            for u in order:
                parent = int(tree.parent[u])
                if parent < 0:
                    ids[u] = relabelled.add(int(tree.labels[u]) + offset)
                else:
                    ids[u] = relabelled.add(
                        int(tree.labels[u]) + offset,
                        parent=ids[parent],
                        position=int(tree.position[u]),
                    )
            trees.append(relabelled.build())
            classes.append(cls)
    return TreeCorpus(
        trees=tuple(trees),
        n_slots=2,
        n_labels=4,
        class_labels=tuple(classes),
        n_classes=2,
    )


def random_clustering(rng, n_states, n_slots):
    """Random valid hard clustering (non-empty clusters, any sizes)."""
    arrays = []
    for _ in range(n_slots):
        k = int(rng.integers(1, n_states + 2))
        while True:
            a = rng.integers(0, k, size=n_states + 1)
            if len(set(a.tolist())) == k:
                break
        arrays.append(a)
    return HardClustering(arrays)


def random_simplex_rows(rng, shape):
    g = rng.gamma(1.0, size=shape) + 1e-3
    return g / g.sum(axis=-1, keepdims=True)


def random_tf_params(rng, n_states, n_slots, n_labels, clustering=None):
    """Random factored parameters with the full core pre-materialised."""
    if clustering is None:
        clustering = random_clustering(rng, n_states, n_slots)
    core = np.array([random_simplex_rows(rng, (n_states,))
                     for _ in range(math.prod(clustering.k))])
    return TfModelParams(
        leaf_prior=random_simplex_rows(rng, (n_slots, n_states)),
        emission=random_simplex_rows(rng, (n_states, n_labels)),
        base_measure=random_simplex_rows(rng, (n_states,)),
        clustering=clustering,
        core=core,
        core_conc=float(n_states),
    )


def core_row_index(params, key):
    """Row of cluster tuple ``key`` in ``params.core``, raveled by numpy."""
    return np.ravel_multi_index(tuple(key), params.clustering.k)


def core_row(params, key):
    """The core's state simplex for cluster tuple ``key``."""
    return params.core[core_row_index(params, key)]


def drawn_keys(core, k):
    """The cluster tuples of the grid ``k`` whose core rows are drawn (not NaN)."""
    rows = np.flatnonzero(~np.isnan(core[:, 0]))
    return set(zip(*(axis.tolist() for axis in np.unravel_index(rows, k))))


def random_latent(tree, params, rng):
    """Random states, with the cluster choices the clustering gives them."""
    q = rng.integers(0, params.n_states, size=tree.n_nodes)
    z = {u: cluster_reference(tree, q, u, params.clustering)
         for u in map(int, tree.internal_nodes)}
    return LatentAssignment(q, z)


def ancestral_sample(trees, params, rng):
    """Draw latents and labels for fixed structures (one tree, several,
    or a ``PackedCorpus``; node ids are the pack's), leaves to root.

    States come from ``gibbs.propose_latents``, cluster choices from the
    hard clustering of the child states, and then each node's label from
    its state's emission row, one uniform per node in id order.
    """
    pack = _packed(trees, params.n_slots)
    q = propose_latents(pack, params, rng).q
    kids = pack.children[pack.internal]
    ext = np.where(kids >= 0, q[kids], params.n_states)
    keys = params.clustering.assign[np.arange(params.n_slots), ext]
    z = dict(zip(pack.internal.tolist(), map(tuple, keys.tolist())))
    labels = inverse_cdf(np.cumsum(params.emission, axis=1), q, rng.random(pack.n_nodes))
    return LatentAssignment(q, z), labels


def eq5_transition(params, ext_states):
    """Explicit double sum over all cluster tuples with one-hot indicators."""
    clustering = params.clustering
    n_states = params.n_states
    out = np.zeros(n_states)
    for key in itertools.product(*(range(k) for k in clustering.k)):
        indicator = 1.0
        for l, (cluster, ext) in enumerate(zip(key, ext_states)):
            indicator *= 1.0 if clustering.assign[l][ext] == cluster else 0.0
        if indicator:
            out += indicator * core_row(params, key)
    return out


def factor_product_ll(tree, latent, params):
    """Complete-data log likelihood as an explicit product of factors."""
    n_states = params.n_states
    product = 1.0
    for u in range(tree.n_nodes):
        j = int(latent.q[u])
        product *= params.emission[j, tree.labels[u]]
        if tree.leaf_mask[u]:
            product *= params.leaf_prior[tree.position[u], j]
        else:
            zt = latent.z[u]
            for l in range(tree.n_slots):
                child = tree.children[u, l]
                ext = n_states if child < 0 else int(latent.q[child])
                product *= 1.0 if params.clustering.assign[l][ext] == zt[l] else 0.0
            product *= core_row(params, zt)[j]
    return math.log(product) if product > 0 else float("-inf")


def enum_marginal_tf(tree, params):
    """Exhaustive sum over hidden-state assignments of the factor products.

    Cluster variables do not need explicit enumeration: for any state
    assignment all but one cluster tuple per node carries a zero one-hot
    factor, so only the hard-clustered tuple contributes.
    """
    n_states = params.n_states
    total = 0.0
    internal = list(map(int, tree.internal_nodes))
    for combo in itertools.product(range(n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        z = {
            u: tuple(
                params.clustering.assign[l][
                    n_states if tree.children[u, l] < 0 else q[tree.children[u, l]]
                ]
                for l in range(tree.n_slots)
            )
            for u in internal
        }
        total += math.exp(factor_product_ll(tree, LatentAssignment(q, z), params))
    return math.log(total) if total > 0 else float("-inf")


def enum_marginal_tf_full(tree, params):
    """Like enum_marginal_tf but also enumerates every cluster combination."""
    n_states = params.n_states
    internal = list(map(int, tree.internal_nodes))
    z_spaces = [
        list(itertools.product(*(range(k) for k in params.clustering.k)))
        for _ in internal
    ]
    total = 0.0
    for combo in itertools.product(range(n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        for z_combo in itertools.product(*z_spaces):
            z = dict(zip(internal, z_combo))
            total += math.exp(factor_product_ll(tree, LatentAssignment(q, z), params))
    return math.log(total) if total > 0 else float("-inf")


def sp_factor_product_ll(tree, q, s, params):
    """Baseline complete-data log likelihood as an explicit product."""
    n_states = params.n_states
    product = 1.0
    for u in range(tree.n_nodes):
        j = int(q[u])
        product *= params.emission[j, tree.labels[u]]
        if tree.leaf_mask[u]:
            product *= params.leaf_prior[tree.position[u], j]
        else:
            slot = s[u]
            child = tree.children[u, slot]
            ext = n_states if child < 0 else int(q[child])
            product *= params.switch_weights[slot]
            product *= params.child_transitions[slot, ext, j]
    return math.log(product) if product > 0 else float("-inf")


def enum_marginal_sp(tree, params):
    """Exhaustive sum over state assignments, slot choices summed per node.

    Each internal node's slot variable is independent, so its mixture
    sums in closed form inside the q-enumeration.
    """
    n_states = params.n_states
    internal = list(map(int, tree.internal_nodes))
    total = 0.0
    for combo in itertools.product(range(n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        product = 1.0
        for u in range(tree.n_nodes):
            j = int(q[u])
            product *= params.emission[j, tree.labels[u]]
            if tree.leaf_mask[u]:
                product *= params.leaf_prior[tree.position[u], j]
        for u in internal:
            mix = 0.0
            for slot in range(tree.n_slots):
                child = tree.children[u, slot]
                ext = n_states if child < 0 else int(q[child])
                mix += (
                    params.switch_weights[slot]
                    * params.child_transitions[slot, ext, int(q[u])]
                )
            product *= mix
        total += product
    return math.log(total) if total > 0 else float("-inf")


def enum_marginal_sp_joint(tree, params):
    """Fully joint enumeration over states and slot choices (tiny trees)."""
    internal = list(map(int, tree.internal_nodes))
    total = 0.0
    for combo in itertools.product(range(params.n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        for slots in itertools.product(range(tree.n_slots), repeat=len(internal)):
            s = dict(zip(internal, slots))
            total += math.exp(sp_factor_product_ll(tree, q, s, params))
    return math.log(total) if total > 0 else float("-inf")


def enum_sp_label_marginals(tree, params):
    """Baseline per-node label distributions by enumerating all states."""
    n_states = params.n_states
    internal = list(map(int, tree.internal_nodes))
    weights = []
    combos = []
    for combo in itertools.product(range(n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        product = 1.0
        for u in range(tree.n_nodes):
            if tree.leaf_mask[u]:
                product *= params.leaf_prior[tree.position[u], int(q[u])]
        for u in internal:
            mix = 0.0
            for slot in range(tree.n_slots):
                child = tree.children[u, slot]
                ext = n_states if child < 0 else int(q[child])
                mix += (
                    params.switch_weights[slot]
                    * params.child_transitions[slot, ext, int(q[u])]
                )
            product *= mix
        weights.append(product)
        combos.append(q)
    weights = np.array(weights)
    weights /= weights.sum()
    out = np.zeros((tree.n_nodes, params.n_labels))
    for w, q in zip(weights, combos):
        for u in range(tree.n_nodes):
            out[u] += w * params.emission[q[u]]
    return out


def random_sp_params(rng, n_states, n_slots, n_labels):
    from bhtmm.model import SpModelParams

    return SpModelParams(
        leaf_prior=random_simplex_rows(rng, (n_slots, n_states)),
        emission=random_simplex_rows(rng, (n_states, n_labels)),
        switch_weights=random_simplex_rows(rng, (n_slots,)),
        child_transitions=random_simplex_rows(rng, (n_slots, n_states + 1, n_states)),
    )


def enum_label_marginals(tree, params):
    """Per-node label distributions by enumerating all state assignments."""
    n_states = params.n_states
    internal = list(map(int, tree.internal_nodes))
    weights = []
    combos = []
    for combo in itertools.product(range(n_states), repeat=tree.n_nodes):
        q = np.array(combo, dtype=np.int64)
        z = {
            u: tuple(
                params.clustering.assign[l][
                    n_states if tree.children[u, l] < 0 else q[tree.children[u, l]]
                ]
                for l in range(tree.n_slots)
            )
            for u in internal
        }
        # Structure-only weight: drop the emission factors.
        product = 1.0
        for u in range(tree.n_nodes):
            j = int(q[u])
            if tree.leaf_mask[u]:
                product *= params.leaf_prior[tree.position[u], j]
            else:
                product *= core_row(params, z[u])[j]
        weights.append(product)
        combos.append(q)
    weights = np.array(weights)
    weights /= weights.sum()
    out = np.zeros((tree.n_nodes, params.n_labels))
    for w, q in zip(weights, combos):
        for u in range(tree.n_nodes):
            out[u] += w * params.emission[q[u]]
    return out


# Per-node references for the packed sweep kernels. Each walks one tree
# node by node in ``bottom_up_order()``, as the sampler did before its
# phases were batched by height level across trees.


def categorical_reference(weights, rng):
    """One index by inverse CDF on a single ``rng.random()`` draw."""
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return int(min(np.searchsorted(cum, u, side="right"), len(weights) - 1))


def ext_reference(tree, q, node, slot, n_states):
    child = tree.children[node, slot]
    return n_states if child < 0 else int(q[child])


def cluster_reference(tree, q, node, clustering):
    n_states = clustering.n_states
    return tuple(
        int(clustering.assign[l][ext_reference(tree, q, node, l, n_states)])
        for l in range(tree.n_slots)
    )


def propose_reference(tree, params, rng):
    """Per-node ancestral proposal of states and cluster tuples."""
    q = np.empty(tree.n_nodes, dtype=np.int64)
    z = {}
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            q[u] = categorical_reference(params.leaf_prior[tree.position[u]], rng)
        else:
            z[u] = cluster_reference(tree, q, u, params.clustering)
            q[u] = categorical_reference(core_row(params, z[u]), rng)
    return LatentAssignment(q, z)


def tempered_ratio_reference(terms, temp, mode):
    """Scalar tempered acceptance from ``(proposed row, current row,
    proposed state, current state)`` per internal node."""
    log_num = log_den = 0.0

    def log(x):
        return math.log(x) if x > 0.0 else float("-inf")

    for row_prop, row_cur, q_prop, q_cur in terms:
        log_num += log(row_prop[q_prop])
        log_den += log(row_cur[q_cur])
        if mode == "cross":
            log_num += log(row_prop[q_cur])
            log_den += log(row_cur[q_prop])
    if log_num == float("-inf"):
        return 1.0 if log_den == float("-inf") else 0.0
    if log_den == float("-inf"):
        return 1.0
    return math.exp(min(0.0, (log_num - log_den) / temp))


def acceptance_reference(current, proposed, params, temp, mode="cross"):
    """One tree's acceptance from its stored cluster tuples."""
    return tempered_ratio_reference(
        (
            (core_row(params, z_prop), core_row(params, current.z[u]),
             int(proposed.q[u]), int(current.q[u]))
            for u, z_prop in proposed.z.items()
        ),
        temp,
        mode,
    )


def stats_reference(trees, latents, hyper):
    """Per-node count tables: leaf, emission, and a dict from each
    internal node ``(tree index, node)`` to its row of extended child
    states followed by its own state."""
    n_states = hyper.n_states
    leaf = np.zeros((hyper.n_slots, n_states), dtype=np.int64)
    emission = np.zeros((n_states, hyper.n_labels), dtype=np.int64)
    raw = {}
    for t, (tree, q) in enumerate(zip(trees, latents)):
        for u in range(tree.n_nodes):
            emission[q[u], tree.labels[u]] += 1
            if tree.leaf_mask[u]:
                leaf[tree.position[u], q[u]] += 1
                continue
            ext = tuple(ext_reference(tree, q, u, l, n_states) for l in range(tree.n_slots))
            raw[t, u] = ext + (int(q[u]),)
    return leaf, emission, raw


def sp_propose_reference(tree, params, rng):
    """Per-node baseline proposal: states and a slot per internal node."""
    n_states = params.n_states
    q = np.empty(tree.n_nodes, dtype=np.int64)
    s = {}
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            q[u] = categorical_reference(params.leaf_prior[tree.position[u]], rng)
        else:
            s[u] = categorical_reference(params.switch_weights, rng)
            ext = ext_reference(tree, q, u, s[u], n_states)
            q[u] = categorical_reference(params.child_transitions[s[u], ext], rng)
    return q, s


def sp_acceptance_reference(tree, current, proposed, params, temp, mode="cross"):
    """One tree's baseline acceptance; latents are ``(q, s)`` pairs."""
    n_states = params.n_states
    trans = params.child_transitions
    (q_cur, s_cur), (q_prop, s_prop) = current, proposed
    return tempered_ratio_reference(
        (
            (trans[s_prop[u], ext_reference(tree, q_prop, u, s_prop[u], n_states)],
             trans[s_cur[u], ext_reference(tree, q_cur, u, s_cur[u], n_states)],
             int(q_prop[u]), int(q_cur[u]))
            for u in s_prop
        ),
        temp,
        mode,
    )


def sp_stats_reference(trees, latents, hyper):
    """Per-node baseline counts: switch and transition tables."""
    n_states = hyper.n_states
    switch = np.zeros(hyper.n_slots, dtype=np.int64)
    trans = np.zeros((hyper.n_slots, n_states + 1, n_states), dtype=np.int64)
    for tree, (q, s) in zip(trees, latents):
        for u, slot in s.items():
            switch[slot] += 1
            trans[slot, ext_reference(tree, q, u, slot, n_states), q[u]] += 1
    return switch, trans


def base_measure_reference(tuple_counts, base_measure, core_conc, base_conc, rng):
    """Per-cell cascade loop of the base-measure redraw.

    ``tuple_counts`` maps cluster tuples to count vectors; cells are
    visited in sorted key order, then by state.
    """
    n_states = len(base_measure)
    conc = core_conc * np.asarray(base_measure, dtype=np.float64)
    totals = np.zeros(n_states)
    for key in sorted(tuple_counts):
        vec = tuple_counts[key]
        for c in np.flatnonzero(vec):
            n, weight = int(vec[c]), float(conc[c])
            offsets = np.arange(n, dtype=np.float64)
            totals[c] += int((rng.random(n) * (offsets + weight) < weight).sum())
    return dirichlet_rows(base_conc / n_states + totals, rng)


# Per-node references for the upward recursion: the log-domain and linear
# passes that walked one tree node by node in ``bottom_up_order()``
# before likelihoods and marginals became one scaled pass over packed
# trees.


def _cluster_members_real(clustering, n_states):
    """Per slot, the real (non-bottom) states inside each cluster."""
    return [
        [np.flatnonzero(clustering.assign[l][:n_states] == i) for i in range(clustering.k[l])]
        for l in range(clustering.n_slots)
    ]


def core_rows_reference(params, keys, rng):
    """Core rows at ``keys`` one key at a time, each missing row drawn on
    its own from ``Dirichlet(core_conc * base_measure)`` with ``rng`` and stored."""
    rows = []
    for key in keys:
        at = core_row_index(params, key)
        if np.isnan(params.core[at, 0]):
            params.core[at] = dirichlet_rows(params.core_conc * params.base_measure, rng)
        rows.append(params.core[at])
    return np.array(rows)


def dense_core_reference(params, rng):
    """The per-cell core materialisation: every cluster tuple in
    lexicographic order, drawing each missing row on its own with ``rng``."""
    return core_rows_reference(params, np.ndindex(*params.clustering.k), rng)


def tf_log_likelihood_reference(tree, params):
    """Log-domain upward pass of the factored model: child tables are
    collapsed onto clusters per slot, then contracted with the core."""
    n_states = params.n_states
    clustering = params.clustering
    members = _cluster_members_real(clustering, n_states)
    with np.errstate(divide="ignore"):
        log_core = np.log(params.core)
        log_prior = np.log(params.leaf_prior)
        log_emit = np.log(params.emission)
    beta = np.empty((tree.n_nodes, n_states))
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            beta[u] = log_prior[tree.position[u]] + log_emit[:, tree.labels[u]]
            continue
        grid = None
        for l in range(tree.n_slots):
            child = tree.children[u, l]
            if child < 0:
                g = np.full(clustering.k[l], -np.inf)
                g[clustering.assign[l][n_states]] = 0.0
            else:
                g = np.array([logsumexp(beta[child][mem]) if len(mem) else -np.inf
                              for mem in members[l]])
            grid = g if grid is None else (grid[:, None] + g[None, :]).reshape(-1)
        beta[u] = log_emit[:, tree.labels[u]] + logsumexp(log_core + grid[:, None], axis=0)
    return float(logsumexp(beta[tree.root]))


def tf_state_marginals_reference(tree, params):
    """Linear per-node state marginals of the factored model."""
    n_states = params.n_states
    clustering = params.clustering
    members = _cluster_members_real(clustering, n_states)
    core = params.core
    marg = np.empty((tree.n_nodes, n_states))
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            marg[u] = params.leaf_prior[tree.position[u]]
            continue
        grid = None
        for l in range(tree.n_slots):
            child = tree.children[u, l]
            if child < 0:
                g = np.zeros(clustering.k[l])
                g[clustering.assign[l][n_states]] = 1.0
            else:
                g = np.array([marg[child][mem].sum() for mem in members[l]])
            grid = g if grid is None else np.multiply.outer(grid, g).reshape(-1)
        marg[u] = grid @ core
    return marg


def sp_log_likelihood_reference(tree, params):
    """Log-domain upward pass of the baseline: each slot term combines the
    transition from that slot's child with the evidence of the others."""
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
        evidence = np.array([logsumexp(beta[c]) if c >= 0 else 0.0 for c in kids])
        if np.any(evidence == -np.inf):
            beta[u] = -np.inf
            continue
        terms = np.empty((tree.n_slots, n_states))
        for l, child in enumerate(kids):
            if child < 0:
                inner = log_trans[l, n_states]
            else:
                inner = logsumexp(log_trans[l, :n_states] + beta[child][:, None], axis=0)
            terms[l] = log_switch[l] + inner + evidence.sum() - evidence[l]
        beta[u] = log_emit[:, tree.labels[u]] + logsumexp(terms, axis=0)
    return float(logsumexp(beta[tree.root]))


def sp_state_marginals_reference(tree, params):
    """Linear per-node state marginals of the baseline."""
    n_states = params.n_states
    marg = np.empty((tree.n_nodes, n_states))
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            marg[u] = params.leaf_prior[tree.position[u]]
            continue
        acc = np.zeros(n_states)
        for l, child in enumerate(tree.children[u]):
            ext = marg[child] if child >= 0 else None
            row = (params.child_transitions[l, n_states] if ext is None
                   else ext @ params.child_transitions[l, :n_states])
            acc += params.switch_weights[l] * row
        marg[u] = acc
    return marg
