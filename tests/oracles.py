"""Independent brute-force evaluators used as oracles by the tests.

Everything here is written from the model definitions directly: plain
products of factors and exhaustive sums over latent configurations,
sharing no code with the dynamic programs under test.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from bhtmm.model import HardClustering, TfModelParams
from bhtmm.rand import dirichlet_rows
from bhtmm.trees import TreeBuilder


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
    core = {
        key: random_simplex_rows(rng, (n_states,))
        for key in itertools.product(*(range(k) for k in clustering.k))
    }
    return TfModelParams(
        leaf_prior=random_simplex_rows(rng, (n_slots, n_states)),
        emission=random_simplex_rows(rng, (n_states, n_labels)),
        base_measure=random_simplex_rows(rng, (n_states,)),
        clustering=clustering,
        core=core,
        core_conc=float(n_states),
        rng=np.random.default_rng(0),
    )


def random_latent(tree, params, rng, consistent=True):
    """Random states with cluster choices matching (or not) the clustering."""
    from bhtmm.inference import LatentAssignment

    n_states = params.n_states
    q = rng.integers(0, n_states, size=tree.n_nodes)
    z = {}
    for u in map(int, tree.internal_nodes):
        if consistent:
            zt = tuple(
                params.clustering.assign[l][
                    n_states if tree.children[u, l] < 0 else q[tree.children[u, l]]
                ]
                for l in range(tree.n_slots)
            )
        else:
            zt = tuple(
                int(rng.integers(params.clustering.k[l])) for l in range(tree.n_slots)
            )
        z[u] = zt
    return LatentAssignment(q, z)


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
            out += indicator * params.core[key]
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
            product *= params.core[tuple(zt)][j]
    return math.log(product) if product > 0 else float("-inf")


def enum_marginal_tf(tree, params):
    """Exhaustive sum over hidden-state assignments of the factor products.

    Cluster variables do not need explicit enumeration: for any state
    assignment all but one cluster tuple per node carries a zero one-hot
    factor, so only the hard-clustered tuple contributes.
    """
    from bhtmm.inference import LatentAssignment

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
    from bhtmm.inference import LatentAssignment

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
    from bhtmm.inference import LatentAssignment

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
                product *= params.core[tuple(z[u])][j]
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
    from bhtmm.inference import LatentAssignment

    q = np.empty(tree.n_nodes, dtype=np.int64)
    z = {}
    for u in map(int, tree.bottom_up_order()):
        if tree.leaf_mask[u]:
            q[u] = categorical_reference(params.leaf_prior[tree.position[u]], rng)
        else:
            z[u] = cluster_reference(tree, q, u, params.clustering)
            q[u] = categorical_reference(params.core_entry(z[u]), rng)
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
            (params.core[z_prop], params.core[current.z[u]],
             int(proposed.q[u]), int(current.q[u]))
            for u, z_prop in proposed.z.items()
        ),
        temp,
        mode,
    )


def stats_reference(trees, latents, hyper):
    """Per-node count tables: leaf, emission and the extended-tuple dict."""
    n_states = hyper.n_states
    leaf = np.zeros((hyper.n_slots, n_states), dtype=np.int64)
    emission = np.zeros((n_states, hyper.n_labels), dtype=np.int64)
    raw = {}
    for tree, q in zip(trees, latents):
        for u in range(tree.n_nodes):
            emission[q[u], tree.labels[u]] += 1
            if tree.leaf_mask[u]:
                leaf[tree.position[u], q[u]] += 1
                continue
            key = tuple(ext_reference(tree, q, u, l, n_states) for l in range(tree.n_slots))
            raw.setdefault(key, np.zeros(n_states, dtype=np.int64))[q[u]] += 1
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


def tf_log_likelihood_reference(tree, params):
    """Log-domain upward pass of the factored model: child tables are
    collapsed onto clusters per slot, then contracted with the core."""
    n_states = params.n_states
    clustering = params.clustering
    members = _cluster_members_real(clustering, n_states)
    with np.errstate(divide="ignore"):
        log_core = np.log(params.dense_core().reshape(-1, n_states))
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
    core = params.dense_core().reshape(-1, n_states)
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
