import io
import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from bhtmm import gibbs, sp
from bhtmm.errors import ConfigError
from bhtmm.gibbs import (
    Latents,
    SufficientStats,
    crp_table_count,
    latent_acceptance,
    marginal_likelihood_k,
    propose_latents,
    propose_size_move,
    resample_base_measure,
    resample_parameters,
    size_acceptance,
    temperature,
    train,
)
from bhtmm.inference import node_label_marginals
from bhtmm.model import HardClustering, HyperParams
from bhtmm.rand import dirichlet_rows
from bhtmm.trees import PackedCorpus, TreeBuilder, TreeCorpus

from oracles import (
    acceptance_reference,
    base_measure_reference,
    cluster_reference,
    core_row,
    core_row_index,
    drawn_keys,
    propose_reference,
    random_clustering,
    random_latent,
    random_simplex_rows,
    random_structure,
    random_tf_params,
    stats_reference,
)


def two_node_tree():
    builder = TreeBuilder(2)
    root = builder.add(0)
    builder.add(1, parent=root, position=0)
    return builder.build()


def pack(*trees):
    return PackedCorpus(trees, trees[0].n_slots)


def accept_one(current, proposed, tree, params, temp, mode="cross"):
    """Acceptance probability of one tree's proposal via the packed kernel."""
    prob = latent_acceptance(Latents(current.q), Latents(proposed.q), pack(tree), params, temp, mode)
    return float(prob[0])


def cluster_keys(packed, q, clustering):
    """Cluster tuple of each of ``packed.internal``, node by node."""
    keys = []
    for u in packed.internal.tolist():
        t = int(packed.tree[u])
        a, b = packed.offsets[t], packed.offsets[t + 1]
        keys.append(cluster_reference(packed.trees[t], q[a:b], u - a, clustering))
    return np.array(keys, dtype=np.int64).reshape(len(keys), clustering.n_slots)


def chain_tree(length=3, n_slots=1):
    builder = TreeBuilder(n_slots)
    node = builder.add(0)
    for _ in range(length - 1):
        node = builder.add(0, parent=node, position=0)
    return builder.build()


class TestTemperature:
    def test_endpoints(self):
        sched = HyperParams(n_states=2, n_slots=1, n_labels=2, init_temp=10.0,
                            anneal_iters=50)
        assert temperature(0, sched) == 10.0
        assert temperature(50, sched) == 1.0
        assert temperature(100, sched) == 1.0

    def test_non_increasing(self):
        sched = HyperParams(n_states=2, n_slots=1, n_labels=2, init_temp=7.0,
                            anneal_iters=13)
        values = [temperature(m, sched) for m in range(40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)


class TestProposeLatents:
    def test_single_state_unique(self, rng):
        params = random_tf_params(rng, 1, 2, 2)
        packed = pack(random_structure(rng, 2, 7, 2))
        a = propose_latents(packed, params, rng)
        b = propose_latents(packed, params, rng)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(
            cluster_keys(packed, a.q, params.clustering),
            cluster_keys(packed, b.q, params.clustering),
        )

    def test_trivial_clustering_uses_single_core_row(self, rng):
        clustering = HardClustering.trivial(3, 2)
        params = random_tf_params(rng, 3, 2, 2, clustering=clustering)
        packed = pack(*(random_structure(rng, 2, 7, 2) for _ in range(4)))
        latent = propose_latents(packed, params, rng)
        assert np.all(cluster_keys(packed, latent.q, clustering) == 0)
        assert np.all(latent.cell == 0)
        assert drawn_keys(params.core, clustering.k) == {(0, 0)}

    def test_two_node_proposal_distribution(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        tree = two_node_tree()
        child = int(tree.children[0, 0])
        assign = params.clustering.assign
        expected = np.zeros((2, 2))  # child state x root state
        for j in range(2):
            key = (assign[0][j], assign[1][2])  # slot 1 is empty: the bottom symbol
            expected[j] = params.leaf_prior[0, j] * core_row(params, key)
        counts = np.zeros((2, 2))
        draws = 100_000
        # One packed corpus of ``draws`` copies gives ``draws`` proposals.
        packed = PackedCorpus([tree] * draws, 2)
        q = propose_latents(packed, params, rng).q
        roots = packed.offsets[:-1]
        np.add.at(counts, (q[roots + child], q[roots]), 1)
        assert np.allclose(counts / draws, expected, atol=0.01)


class TestLatentAcceptance:
    def test_identical_proposal_accepts(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        tree = random_structure(rng, 2, 6, 2)
        latent = random_latent(tree, params, rng)
        for mode in ("cross", "plain"):
            assert accept_one(latent, latent, tree, params, 1.0, mode) == 1.0

    def test_high_temperature_accepts_everything(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        tree = random_structure(rng, 2, 6, 2)
        current = random_latent(tree, params, rng)
        proposed = random_latent(tree, params, rng)
        prob = accept_one(current, proposed, tree, params, 1e12)
        assert prob > 0.999

    def test_hand_computed_cross_ratio(self, rng):
        params = random_tf_params(rng, 2, 1, 2)
        tree = chain_tree(length=3, n_slots=1)
        current = random_latent(tree, params, rng)
        proposed = random_latent(tree, params, rng)
        temp = 2.5
        num = 1.0
        den = 1.0
        for u in (0, 1):  # the two internal nodes of the chain
            zc = current.z[u]
            zp = proposed.z[u]
            num *= core_row(params, zp)[proposed.q[u]] * core_row(params, zp)[current.q[u]]
            den *= core_row(params, zc)[current.q[u]] * core_row(params, zc)[proposed.q[u]]
        want = min(1.0, (num / den) ** (1.0 / temp))
        got = accept_one(current, proposed, tree, params, temp, "cross")
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_plain_ratio(self, rng):
        params = random_tf_params(rng, 2, 1, 2)
        tree = chain_tree(length=3, n_slots=1)
        current = random_latent(tree, params, rng)
        proposed = random_latent(tree, params, rng)
        num = den = 1.0
        for u in (0, 1):
            num *= core_row(params, proposed.z[u])[proposed.q[u]]
            den *= core_row(params, current.z[u])[current.q[u]]
        want = min(1.0, num / den)
        got = accept_one(current, proposed, tree, params, 1.0, "plain")
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_zero_mass_resolves_without_nan(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        tree = two_node_tree()
        current = random_latent(tree, params, rng)
        proposed = random_latent(tree, params, rng)
        params.core[core_row_index(params, current.z[0])] = np.array([1.0, 0.0])
        current.q[0] = 1  # current sits on zero mass
        for mode in ("cross", "plain"):
            assert accept_one(current, proposed, tree, params, 1.0, mode) == 1.0


def raw_rows(raw, width):
    """``SufficientStats.raw`` from a dict of count vectors keyed by
    extended-state tuples: ``vec[j]`` rows of the key followed by ``j``."""
    rows = [key + (j,) for key, vec in raw.items() for j, n in enumerate(vec)
            for _ in range(n)]
    return np.array(rows, dtype=np.int64).reshape(-1, width + 1)


def random_corpus(rng, n_trees, n_slots, n_labels, max_nodes=9):
    trees = [random_structure(rng, n_slots, max_nodes, n_labels) for _ in range(n_trees)]
    return TreeCorpus(trees=tuple(trees), n_slots=n_slots, n_labels=n_labels)


def split_q(packed, q):
    """Per-tree state arrays of a packed state vector."""
    return [q[a:b] for a, b in zip(packed.offsets[:-1], packed.offsets[1:])]


def assert_stats_match(stats, packed, q, hyper):
    leaf, emission, raw = stats_reference(packed.trees, split_q(packed, q), hyper)
    assert np.array_equal(stats.leaf, leaf)
    assert np.array_equal(stats.emission, emission)
    tree = packed.tree[packed.internal]
    local = packed.internal - packed.offsets[tree]
    want = [raw[t, u] for t, u in zip(tree.tolist(), local.tolist())]
    assert len(raw) == len(want)
    want = np.array(want, dtype=np.int64).reshape(-1, hyper.n_slots + 1)
    assert np.array_equal(stats.raw, want)


class TestPackedKernels:
    """The level-batched kernels against per-node references."""

    def test_stats_match_reference(self, rng):
        for _ in range(20):
            n_states = int(rng.integers(1, 5))
            n_slots = int(rng.integers(1, 4))
            corpus = random_corpus(rng, int(rng.integers(1, 8)), n_slots, 3)
            hyper = HyperParams(n_states=n_states, n_slots=n_slots, n_labels=3)
            packed = PackedCorpus(corpus.trees, n_slots)
            q = rng.integers(0, n_states, size=packed.n_nodes)
            stats = SufficientStats.from_latents(packed, Latents(q), hyper)
            assert_stats_match(stats, packed, q, hyper)

    def test_acceptance_matches_reference(self, rng):
        for case in range(30):
            n_states = int(rng.integers(1, 4))
            params = random_tf_params(rng, n_states, 2, 3)
            if case % 3 == 0:  # zero-mass cells on both sides
                params.core = np.where(rng.random(params.core.shape) < 0.4, 0.0, params.core)
            corpus = random_corpus(rng, 6, 2, 3)
            packed = PackedCorpus(corpus.trees, 2)
            current = [random_latent(t, params, rng) for t in corpus.trees]
            proposed = [random_latent(t, params, rng) for t in corpus.trees]
            packed_cur = Latents(np.concatenate([x.q for x in current]))
            packed_prop = Latents(np.concatenate([x.q for x in proposed]))
            temp = float(rng.uniform(1.0, 5.0))
            for mode in ("cross", "plain"):
                got = latent_acceptance(packed_cur, packed_prop, packed, params, temp, mode)
                want = [acceptance_reference(c, p, params, temp, mode)
                        for c, p in zip(current, proposed)]
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_single_tree_proposal_draw_for_draw(self, rng):
        for seed in range(20):
            params = random_tf_params(rng, 3, 3, 2)
            tree = random_structure(rng, 3, 12, 2)
            a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = propose_latents(pack(tree), params, a_rng)
            want = propose_reference(tree, params, b_rng)
            assert np.array_equal(got.q, want.q)
            assert a_rng.random() == b_rng.random()

    def test_proposal_cells_match_cluster_tuples(self, rng):
        for _ in range(10):
            params = random_tf_params(rng, 3, 3, 2)
            packed = PackedCorpus(random_corpus(rng, 5, 3, 2).trees, 3)
            current, proposal = (propose_latents(packed, params, rng) for _ in range(2))
            keys = cluster_keys(packed, proposal.q, params.clustering)
            assert np.array_equal(proposal.cell,
                                  np.ravel_multi_index(keys.T, params.clustering.k))
            # Acceptance reads the carried cells as it would the recomputed ones.
            got = latent_acceptance(current, proposal, packed, params, 2.0)
            assert np.array_equal(
                got, latent_acceptance(current, Latents(proposal.q), packed, params, 2.0))
            # The cells move with the states of the trees kept.
            keep = rng.random(len(packed)) < 0.5
            want = np.where(keep[packed.tree], proposal.q, current.q)
            current.adopt(proposal, keep[packed.tree], keep[packed.tree[packed.internal]])
            keys = cluster_keys(packed, current.q, params.clustering)
            assert np.array_equal(current.q, want)
            assert np.array_equal(current.cell, np.ravel_multi_index(keys.T, params.clustering.k))

    def test_proposal_frequencies_match_enumeration(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        builder = TreeBuilder(2)
        root = builder.add(0)
        builder.add(1, parent=root, position=0)
        builder.add(0, parent=root, position=1)
        tree = builder.build()
        expected = np.zeros((2, 2, 2))  # states of nodes 0, 1, 2
        for q in itertools.product(range(2), repeat=3):
            z = cluster_reference(tree, q, 0, params.clustering)
            expected[q] = (params.leaf_prior[0, q[1]] * params.leaf_prior[1, q[2]]
                           * core_row(params, z)[q[0]])
        draws = 200_000
        packed = PackedCorpus([tree] * draws, 2)
        q = propose_latents(packed, params, rng).q.reshape(draws, 3)
        counts = np.zeros((2, 2, 2))
        np.add.at(counts, (q[:, 0], q[:, 1], q[:, 2]), 1)
        assert np.allclose(counts / draws, expected, atol=0.005)

    def test_wide_keys_do_not_overflow(self, rng):
        # 16 slots of 15 states: the stats rows and the cells computed
        # from them match the per-node references at full width.
        corpus = random_corpus(rng, 10, 16, 3, max_nodes=40)
        hyper = HyperParams(n_states=15, n_slots=16, n_labels=3, iterations=3,
                            min_active=16, seed=5)
        state = train(corpus, hyper)
        packed = PackedCorpus(corpus.trees, 16)
        assert_stats_match(state.stats, packed, state.latents.q, hyper)
        keys = cluster_keys(packed, state.latents.q, state.params.clustering)
        assert {tuple(k) for k in keys.tolist()} <= drawn_keys(state.params.core,
                                                               state.params.clustering.k)

    def test_base_measure_cascade_matches_per_cell_loop(self, rng):
        for seed in range(10):
            n_states = int(rng.integers(1, 5))
            clustering = random_clustering(rng, n_states, 2)
            raw = {
                tuple(int(v) for v in rng.integers(0, n_states + 1, size=2)):
                rng.integers(0, 6, size=n_states)
                for _ in range(8)
            }
            hyper = HyperParams(n_states=n_states, n_slots=2, n_labels=2)
            stats = build_stats(hyper, raw)
            base = random_simplex_rows(rng, (n_states,))
            merged = {}
            for key, vec in raw.items():
                ck = tuple(int(clustering.assign[l][e]) for l, e in enumerate(key))
                merged[ck] = merged.get(ck, 0) + vec
            a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = resample_base_measure(stats.tuple_counts(clustering), base, 3.0, 2.0, a_rng)
            want = base_measure_reference(merged, base, 3.0, 2.0, b_rng)
            assert np.array_equal(got, want)
            assert a_rng.random() == b_rng.random()


def build_stats(hyper, raw, leaf=None, emission=None):
    stats = SufficientStats(
        leaf=np.zeros((hyper.n_slots, hyper.n_states), dtype=np.int64)
        if leaf is None
        else leaf,
        emission=np.zeros((hyper.n_states, hyper.n_labels), dtype=np.int64)
        if emission is None
        else emission,
        raw=raw_rows(raw, hyper.n_slots),
    )
    return stats


class TestMarginalLikelihoodK:
    def test_zero_counts_is_zero(self):
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2)
        stats = build_stats(hyper, {})
        clustering = HardClustering.identity(2, 2)
        base = np.array([0.5, 0.5])
        assert marginal_likelihood_k(stats.tuple_counts(clustering), 2.0, base) == 0.0

    def test_single_count_closed_form(self):
        # One tuple with counts (1, 0) and unit prior concentrations:
        # Beta(2,1)/Beta(1,1) = 1/2.
        hyper = HyperParams(n_states=2, n_slots=1, n_labels=2)
        stats = build_stats(hyper, {(0,): [1, 0]})
        clustering = HardClustering.identity(2, 1)
        base = np.array([0.5, 0.5])
        got = marginal_likelihood_k(stats.tuple_counts(clustering), 2.0, base)
        assert math.isclose(got, math.log(0.5), abs_tol=1e-12)

    def test_merge_matches_recompute(self, rng):
        # Merging two clusters re-aggregates the raw counts; compare an
        # independent Beta-ratio recomputation on both clusterings.
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2)
        raw = {}
        for key in itertools.product(range(3), repeat=2):
            raw[key] = rng.integers(0, 5, size=2)
        stats = build_stats(hyper, raw)
        split = HardClustering([[0, 1, 2], [0, 0, 1]])
        merged = HardClustering([[0, 1, 1], [0, 0, 1]])
        base = np.array([0.3, 0.7])
        conc = 2.0 * base

        def recompute(clustering):
            tuples = {}
            for key, vec in raw.items():
                ck = tuple(clustering.assign[l][j] for l, j in enumerate(key))
                tuples[ck] = tuples.get(ck, np.zeros(2, dtype=np.int64)) + vec
            total = 0.0
            for vec in tuples.values():
                post = conc + vec
                total += gammaln(post).sum() - gammaln(post.sum())
                total -= gammaln(conc).sum() - gammaln(conc.sum())
            return total

        for clustering in (split, merged):
            got = marginal_likelihood_k(stats.tuple_counts(clustering), 2.0, base)
            assert math.isclose(got, recompute(clustering), abs_tol=1e-9)


class TestProposeSizeMove:
    def test_forced_increase_from_one(self, rng):
        hyper = HyperParams(n_states=3, n_slots=1, n_labels=2)
        clustering = HardClustering.trivial(3, 1)
        # min_active forces the lone slot back above one cluster.
        for _ in range(50):
            new = propose_size_move(clustering, hyper, rng)
            assert new.k[0] >= 2

    def test_single_state_alphabet(self, rng):
        hyper = HyperParams(n_states=1, n_slots=2, n_labels=2)
        clustering = HardClustering([[0, 1], [0, 0]])
        for _ in range(200):
            clustering = propose_size_move(clustering, hyper, rng)
            assert all(k in (1, 2) for k in clustering.k)
            assert 1 <= clustering.n_active() <= 2

    def test_window_preserved_under_fuzz(self, rng):
        hyper = HyperParams(
            n_states=3, n_slots=4, n_labels=2, min_active=1, max_active=2
        )
        clustering = HardClustering([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4])
        for _ in range(2_000):
            clustering = propose_size_move(clustering, hyper, rng)
            active = clustering.n_active()
            assert hyper.min_active <= active <= hyper.max_active
            for l in range(4):
                members = [
                    len(clustering.members(l, i)) for i in range(clustering.k[l])
                ]
                assert all(m > 0 for m in members)
                assert sum(members) == 4


def size_prob(old, new, stats, hyper, base, temp):
    """``size_acceptance`` with the tuple counts of ``stats`` under both clusterings."""
    counts = (stats.tuple_counts(old), stats.tuple_counts(new))
    return size_acceptance(old, new, *counts, hyper, base, temp)


class TestSizeAcceptance:
    def test_identical_is_one(self, rng):
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2)
        stats = build_stats(hyper, {(0, 0): [3, 1]})
        clustering = HardClustering.trivial(2, 2)
        base = np.array([0.5, 0.5])
        assert size_prob(clustering, clustering, stats, hyper, base, 1.0) == 1.0

    def test_zero_counts_reduces_to_prior_ratio(self, rng):
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2, size_decay=2.0)
        stats = build_stats(hyper, {})
        base = np.array([0.5, 0.5])
        old = HardClustering([[0, 0, 1], [0, 0, 0]])  # k = (2, 1)
        new = HardClustering([[0, 1, 2], [0, 0, 0]])  # k = (3, 1)
        temp = 1.7
        want = min(1.0, math.exp(-2.0 * (4 - 3) / temp))
        got = size_prob(old, new, stats, hyper, base, temp)
        assert math.isclose(got, want, rel_tol=1e-12)
        # The reverse move gains prior mass and is always accepted.
        assert size_prob(new, old, stats, hyper, base, temp) == 1.0

    def test_split_move_matches_recompute(self, rng):
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2, size_decay=2.0)
        raw = {
            key: rng.integers(0, 6, size=2) for key in itertools.product(range(3), repeat=2)
        }
        stats = build_stats(hyper, raw)
        base = np.array([0.4, 0.6])
        old = HardClustering([[0, 0, 0], [0, 0, 1]])
        new = old.split(0, 0, [1])
        temp = 3.0
        conc = hyper.core_conc * base

        def log_l(clustering):
            tuples = {}
            for key, vec in raw.items():
                ck = tuple(clustering.assign[l][j] for l, j in enumerate(key))
                tuples[ck] = tuples.get(ck, np.zeros(2, dtype=np.int64)) + vec
            total = 0.0
            for vec in tuples.values():
                post = conc + vec
                total += gammaln(post).sum() - gammaln(post.sum())
                total -= gammaln(conc).sum() - gammaln(conc.sum())
            return total

        log_ratio = log_l(new) - log_l(old)
        log_ratio += -hyper.size_decay * (sum(new.k) - sum(old.k))
        want = min(1.0, math.exp(log_ratio / temp))
        got = size_prob(old, new, stats, hyper, base, temp)
        assert math.isclose(got, want, rel_tol=1e-10)


class TestResampleParameters:
    def test_huge_count_concentrates(self, rng):
        hyper = HyperParams(n_states=2, n_slots=1, n_labels=2)
        leaf = np.array([[10**6, 0]], dtype=np.int64)
        stats = build_stats(hyper, {}, leaf=leaf)
        clustering = HardClustering.trivial(2, 1)
        leaf_prior, _, _ = resample_parameters(
            stats, stats.tuple_counts(clustering), hyper, np.array([0.5, 0.5]), rng
        )
        assert leaf_prior[0, 0] > 0.99

    def test_zero_counts_draw_from_prior(self, rng):
        hyper = HyperParams(
            n_states=1, n_slots=1, n_labels=2, emit_conc=1.0, leaf_conc=1.0
        )
        stats = build_stats(hyper, {})
        clustering = HardClustering.trivial(1, 1)
        rows = np.array(
            [
                resample_parameters(
                    stats, stats.tuple_counts(clustering), hyper, np.array([1.0]), rng
                )[1][0]
                for _ in range(10_000)
            ]
        )
        assert abs(rows[:, 0].mean() - 0.5) < 0.02

    def test_single_state_is_scalar_one(self, rng):
        hyper = HyperParams(n_states=1, n_slots=1, n_labels=3)
        stats = build_stats(hyper, {(0,): [4]})
        clustering = HardClustering.trivial(1, 1)
        leaf_prior, emission, core = resample_parameters(
            stats, stats.tuple_counts(clustering), hyper, np.array([1.0]), rng
        )
        assert np.all(leaf_prior == 1.0)
        assert np.allclose(emission.sum(axis=1), 1.0)
        assert np.all(core[(0,)] == 1.0)

    def test_occupied_tuples_only(self, rng):
        # Only occupied tuples add counts: every cell is drawn in one
        # Dirichlet call after the leaf prior and emissions, occupied
        # rows from their posterior and the others from the prior.
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2)
        stats = build_stats(hyper, {(0, 1): [1, 2]})
        clustering = HardClustering.identity(2, 2)
        base = np.array([0.5, 0.5])
        counts = stats.tuple_counts(clustering)
        assert counts.shape == (9, 2) and counts.sum() == 3
        assert np.array_equal(counts[np.ravel_multi_index((0, 1), (3, 3))], [1, 2])
        copy = np.random.default_rng()
        copy.bit_generator.state = rng.bit_generator.state
        _, _, core = resample_parameters(stats, counts, hyper, base, rng)
        dirichlet_rows(hyper.leaf_conc + stats.leaf, copy)
        dirichlet_rows(hyper.emit_conc + stats.emission, copy)
        conc = np.broadcast_to(hyper.core_conc * base, (9, 2)).copy()
        conc[np.ravel_multi_index((0, 1), (3, 3))] += [1, 2]
        assert np.array_equal(core, dirichlet_rows(conc, copy))
        assert rng.bit_generator.state == copy.bit_generator.state
        assert np.isfinite(core).all()


class TestBaseMeasureResampling:
    def test_cascade_first_draw_always_succeeds(self, rng):
        for _ in range(100):
            assert crp_table_count(1, 0.73, rng) == 1

    def test_cascade_zero(self, rng):
        assert crp_table_count(0, 1.0, rng) == 0

    def test_cascade_harmonic_mean(self, rng):
        # Expected successes for n=3, weight 1: 1 + 1/2 + 1/3.
        draws = np.array([crp_table_count(3, 1.0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - (1 + 0.5 + 1 / 3)) < 0.02

    def test_zero_counts_draws_from_prior(self, rng):
        hyper = HyperParams(n_states=4, n_slots=1, n_labels=2, base_conc=4.0)
        stats = build_stats(hyper, {})
        clustering = HardClustering.trivial(4, 1)
        base = np.full(4, 0.25)
        draws = np.array(
            [
                resample_base_measure(stats.tuple_counts(clustering), base, 4.0, 4.0, rng)
                for _ in range(10_000)
            ]
        )
        assert abs(draws[:, 0].mean() - 0.25) < 0.02
        assert abs(draws[:, 0].std() - math.sqrt(0.25 * 0.75 / 5)) < 0.02


def small_corpus(rng, n_trees=6, n_slots=2, n_labels=3):
    trees = tuple(random_structure(rng, n_slots, 8, n_labels) for _ in range(n_trees))
    return TreeCorpus(trees=trees, n_slots=n_slots, n_labels=n_labels)


class TestTrain:
    def test_deterministic(self, rng):
        corpus = small_corpus(rng)
        hyper = HyperParams(
            n_states=3, n_slots=2, n_labels=3, iterations=12, seed=42
        )
        a = train(corpus, hyper)
        b = train(corpus, hyper)
        assert np.array_equal(a.params.leaf_prior, b.params.leaf_prior)
        assert np.array_equal(a.params.emission, b.params.emission)
        assert np.array_equal(a.params.base_measure, b.params.base_measure)
        assert a.params.clustering == b.params.clustering
        assert np.array_equal(a.params.core, b.params.core, equal_nan=True)
        assert np.array_equal(a.latents.q, b.latents.q)

    def test_stats_match_latents(self, rng):
        corpus = small_corpus(rng)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=3, iterations=8, seed=3)
        state = train(corpus, hyper)
        packed = PackedCorpus(corpus.trees, corpus.n_slots)
        assert_stats_match(state.stats, packed, state.latents.q, hyper)
        # Leaf counts cover exactly the corpus leaves; emissions all nodes.
        n_leaves = sum(len(t.leaves()) for t in corpus.trees)
        n_nodes = sum(t.n_nodes for t in corpus.trees)
        assert state.stats.leaf.sum() == n_leaves
        assert state.stats.emission.sum() == n_nodes

    def test_window_and_tallies(self, rng):
        corpus = small_corpus(rng)
        hyper = HyperParams(
            n_states=2, n_slots=2, n_labels=3, iterations=10, seed=1, max_active=1
        )
        state = train(corpus, hyper)
        assert 1 <= state.params.clustering.n_active() <= 1
        assert 0 <= state.latent_accepts <= state.latent_proposals
        assert state.latent_proposals == 10 * len(corpus.trees)
        assert state.size_proposals == 10

    def test_inference_in_on_sweep_leaves_chain_unchanged(self, rng):
        # The live core is always complete and inference never draws, so
        # every hook call succeeds and the hook leaves the log and the
        # model as a run without it has them.
        corpus = small_corpus(rng)
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=3, iterations=8, seed=5)
        outcomes = []

        def score(m, params):
            assert np.isfinite(params.core).all()
            outcomes.append(node_label_marginals(corpus.trees[0], params).shape)

        runs = []
        for hook in (None, score):
            log = io.StringIO()
            runs.append((log, train(corpus, hyper, log=log, on_sweep=hook).params))
        (log_a, a), (log_b, b) = runs
        assert log_a.getvalue() == log_b.getvalue()
        for name in ("leaf_prior", "emission", "base_measure"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.clustering == b.clustering
        assert np.array_equal(a.core, b.core)
        assert outcomes == [(corpus.trees[0].n_nodes, 3)] * 8

    def test_single_state_emission_posterior(self, rng):
        corpus = small_corpus(rng, n_trees=4, n_labels=2)
        counts = np.zeros(2)
        total = 0
        for tree in corpus.trees:
            for lab in tree.labels:
                counts[lab] += 1
                total += 1
        hyper = HyperParams(
            n_states=1, n_slots=2, n_labels=2, iterations=400, seed=9, emit_conc=1.0
        )
        rows = []
        train(corpus, hyper, on_sweep=lambda m, params: rows.append(params.emission[0].copy()))
        mean = np.mean(rows, axis=0)
        expected = (1.0 + counts) / (2.0 + total)
        assert np.allclose(mean, expected, atol=0.05)

    def test_log_format(self, rng):
        corpus = small_corpus(rng)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=3, iterations=5, seed=0)
        buf = io.StringIO()
        state = train(corpus, hyper, log=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 5
        for m, line in enumerate(lines):
            fields = line.split("\t")
            assert len(fields) == 6
            assert int(fields[0]) == m
            assert float(fields[1]) >= 1.0
            assert float(fields[2]) <= 0.0
            assert 0.0 <= float(fields[3]) <= 1.0
            assert fields[4] in ("0", "1")
        final_k = tuple(int(v) for v in lines[-1].split("\t")[5].split(","))
        assert final_k == state.params.clustering.k

    def test_corpus_mismatch_raises(self, rng):
        corpus = small_corpus(rng, n_slots=2, n_labels=3)
        hyper = HyperParams(n_states=2, n_slots=3, n_labels=3, iterations=1)
        with pytest.raises(ConfigError):
            train(corpus, hyper)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2, iterations=1)
        with pytest.raises(ConfigError):
            train(corpus, hyper)


class TestCarriedRows:
    """After every sweep the rows the current latents carry equal a fresh
    computation from their states: ``ext`` a gather of the children (for
    sp, the selected slot's) and tf's ``cell`` the raveled cluster tuple
    under the live clustering, also right after an accepted size move."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Runs ``anneal`` with a redraw that checks the rows after each
        sweep; returns the count of sweeps checked and of size moves."""
        tally = {"sweeps": 0, "moves": 0}
        real = gibbs.anneal

        def anneal(pack, hyper, params, rng, propose, accept, redraw, *rest):
            def checking(m, temp, latents):
                before = getattr(params, "clustering", None)
                out = redraw(m, temp, latents)
                kids = pack.children[pack.internal]
                if latents.s is not None:
                    kids = kids[np.arange(len(kids)), latents.s[pack.internal]]
                ext = np.where(kids >= 0, latents.q[kids], params.n_states)
                assert np.array_equal(latents.ext, ext)
                if latents.s is None:
                    keys = cluster_keys(pack, latents.q, params.clustering)
                    want = np.ravel_multi_index(keys.T, params.clustering.k)
                    assert np.array_equal(latents.cell, want)
                    tally["moves"] += params.clustering != before
                tally["sweeps"] += 1
                return out

            return real(pack, hyper, params, rng, propose, accept, checking, *rest)

        monkeypatch.setattr(gibbs, "anneal", anneal)
        monkeypatch.setattr(sp, "anneal", anneal)
        return tally

    def corpora(self, rng):
        for _ in range(8):
            n_slots = int(rng.integers(1, 4))
            yield random_corpus(rng, int(rng.integers(2, 9)), n_slots, 3), int(rng.integers(1, 5))
        single = [random_structure(rng, 2, 1, 3) for _ in range(3)]
        mixed = single + [random_structure(rng, 2, 9, 3) for _ in range(4)]
        for trees in (single, mixed):
            yield TreeCorpus(trees=tuple(trees), n_slots=2, n_labels=3), 3
        yield random_corpus(rng, 10, 16, 3, max_nodes=40), 3

    @pytest.mark.parametrize("kind", ["tf", "sp"])
    def test_rows_match_a_fresh_gather(self, rng, checked, kind):
        for case, (corpus, n_states) in enumerate(self.corpora(rng)):
            hyper = HyperParams(n_states=n_states, n_slots=corpus.n_slots, n_labels=3,
                                iterations=12, max_active=min(corpus.n_slots, 4), seed=case)
            if kind == "tf":
                train(corpus, hyper)
            else:
                sp.sp_train(corpus, hyper, np.random.default_rng(case))
        assert checked["sweeps"] == 11 * 12
        assert kind == "sp" or checked["moves"] > 0
