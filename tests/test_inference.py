import math

import numpy as np
import pytest

from bhtmm import model
from bhtmm.inference import (
    ancestral_sample,
    complete_log_likelihood,
    corpus_log_likelihoods,
    marginal_log_likelihood,
    node_label_marginals,
    state_marginals,
)
from bhtmm.model import HardClustering
from bhtmm.trees import PackedCorpus, TreeBuilder

from oracles import (
    enum_label_marginals,
    enum_marginal_sp,
    enum_marginal_tf,
    enum_marginal_tf_full,
    enum_sp_label_marginals,
    factor_product_ll,
    random_latent,
    random_sp_params,
    random_structure,
    random_tf_params,
    sp_log_likelihood_reference,
    sp_state_marginals_reference,
    tf_log_likelihood_reference,
    tf_state_marginals_reference,
)

# Per kind: random parameters, then the per-node log-likelihood and
# state-marginal references and the enumeration oracles of one tree.
KINDS = {
    "tf": (random_tf_params, tf_log_likelihood_reference, tf_state_marginals_reference,
           enum_marginal_tf, enum_label_marginals),
    "sp": (random_sp_params, sp_log_likelihood_reference, sp_state_marginals_reference,
           enum_marginal_sp, enum_sp_label_marginals),
}


def single_leaf(label=0, n_slots=2):
    builder = TreeBuilder(n_slots)
    builder.add(label)
    return builder.build()


def three_node_tree():
    builder = TreeBuilder(2)
    root = builder.add(1)
    builder.add(0, parent=root, position=0)
    builder.add(1, parent=root, position=1)
    return builder.build()


class TestCompleteLogLikelihood:
    def test_single_leaf_closed_form(self, rng):
        params = random_tf_params(rng, 3, 2, 2)
        tree = single_leaf(label=1)
        latent = random_latent(tree, params, rng)
        j = int(latent.q[0])
        expected = math.log(params.leaf_prior[0, j]) + math.log(params.emission[j, 1])
        got = complete_log_likelihood(tree, latent, params)
        assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)

    def test_never_positive(self, rng):
        for _ in range(20):
            params = random_tf_params(rng, 2, 2, 3)
            tree = random_structure(rng, 2, 6, 3)
            latent = random_latent(tree, params, rng)
            assert complete_log_likelihood(tree, latent, params) <= 0.0

    def test_three_node_factor_expansion(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        tree = three_node_tree()
        for _ in range(20):
            latent = random_latent(tree, params, rng)
            got = complete_log_likelihood(tree, latent, params)
            want = factor_product_ll(tree, latent, params)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_cluster_mismatch_is_minus_inf(self, rng):
        params = random_tf_params(
            rng, 2, 2, 2, clustering=HardClustering.identity(2, 2)
        )
        tree = three_node_tree()
        latent = random_latent(tree, params, rng)
        correct = latent.z[0]
        wrong = tuple((c + 1) % 3 for c in correct)
        latent.z[0] = wrong
        assert complete_log_likelihood(tree, latent, params) == float("-inf")


class TestMarginalLogLikelihood:
    def test_single_leaf_closed_form(self, rng):
        params = random_tf_params(rng, 3, 2, 2)
        tree = single_leaf(label=0)
        expected = math.log(float(params.leaf_prior[0] @ params.emission[:, 0]))
        assert math.isclose(
            marginal_log_likelihood(tree, params), expected, abs_tol=1e-12
        )

    def test_dominates_complete(self, rng):
        for _ in range(20):
            params = random_tf_params(rng, 2, 2, 2)
            tree = random_structure(rng, 2, 6, 2)
            latent = random_latent(tree, params, rng)
            assert marginal_log_likelihood(tree, params) >= complete_log_likelihood(
                tree, latent, params
            )

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            n_states = int(rng.integers(1, 4))
            params = random_tf_params(rng, n_states, 2, 3)
            tree = random_structure(rng, 2, 5, 3)
            got = marginal_log_likelihood(tree, params)
            want = enum_marginal_tf(tree, params)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)

    def test_matches_full_joint_enumeration(self, rng):
        # Also enumerate the cluster variables explicitly on a tiny tree.
        params = random_tf_params(rng, 2, 2, 2)
        tree = three_node_tree()
        got = marginal_log_likelihood(tree, params)
        want = enum_marginal_tf_full(tree, params)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)

    def test_log_domain_survives_deep_chains(self, rng):
        params = random_tf_params(rng, 2, 2, 2)
        builder = TreeBuilder(2)
        node = builder.add(0)
        for i in range(9_999):
            node = builder.add(i % 2, parent=node, position=0)
        tree = builder.build()
        value = marginal_log_likelihood(tree, params)
        assert np.isfinite(value)
        assert value < -1_000.0


class TestNodeLabelMarginals:
    def test_single_leaf_single_state(self, rng):
        params = random_tf_params(rng, 1, 2, 3)
        tree = single_leaf()
        got = node_label_marginals(tree, params)
        assert np.allclose(got[0], params.emission[0], atol=1e-12)

    def test_rows_are_simplexes(self, rng):
        for _ in range(10):
            params = random_tf_params(rng, 3, 2, 4)
            tree = random_structure(rng, 2, 8, 4)
            rows = node_label_marginals(tree, params)
            assert np.all(rows >= 0)
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            params = random_tf_params(rng, 2, 2, 3)
            tree = random_structure(rng, 2, 5, 3)
            got = node_label_marginals(tree, params)
            want = enum_label_marginals(tree, params)
            assert np.allclose(got, want, atol=1e-9)


class TestAncestralSample:
    def test_single_state_is_deterministic(self, rng):
        params = random_tf_params(rng, 1, 2, 2)
        tree = random_structure(rng, 2, 6, 2)
        latent, _ = ancestral_sample(tree, params, rng)
        assert np.all(latent.q == 0)

    def test_cluster_choices_follow_clustering(self, rng):
        params = random_tf_params(rng, 3, 2, 2)
        tree = random_structure(rng, 2, 8, 2)
        latent, _ = ancestral_sample(tree, params, rng)
        for u, zt in latent.z.items():
            for l in range(tree.n_slots):
                child = tree.children[u, l]
                ext = 3 if child < 0 else int(latent.q[child])
                assert zt[l] == params.clustering.cluster_of(l, ext)

    def test_label_frequencies_match_marginals(self, rng):
        params = random_tf_params(rng, 2, 2, 3)
        builder = TreeBuilder(2)
        root = builder.add(0)
        builder.add(0, parent=root, position=1)
        tree = builder.build()
        marginals = node_label_marginals(tree, params)
        counts = np.zeros((2, 3))
        draws = 100_000
        for _ in range(draws):
            _, labels = ancestral_sample(tree, params, rng)
            counts[0, labels[0]] += 1
            counts[1, labels[1]] += 1
        freqs = counts / draws
        assert np.allclose(freqs, marginals, atol=0.01)


def random_corpus(rng, n_slots, n_labels, max_nodes, n_trees=8):
    return [random_structure(rng, n_slots, max_nodes, n_labels) for _ in range(n_trees)]


def per_tree(pack, rows):
    return [rows[a:b] for a, b in zip(pack.offsets[:-1], pack.offsets[1:])]


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestUpwardRecursion:
    """The packed, scaled upward pass against per-node references and
    enumeration, on multi-tree corpora of mixed heights."""

    def test_matches_per_node_references(self, rng, kind):
        make, ll_ref, marg_ref, _, _ = KINDS[kind]
        for _ in range(12):
            n_slots, n_states = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            params = make(rng, n_states, n_slots, 3)
            pack = PackedCorpus(random_corpus(rng, n_slots, 3, 60), n_slots)
            np.testing.assert_allclose(
                corpus_log_likelihoods(pack, params),
                [ll_ref(tree, params) for tree in pack], rtol=1e-12, atol=0,
            )
            marginals = state_marginals(pack, params)
            labels = node_label_marginals(pack, params)
            for tree, got, got_labels in zip(pack, per_tree(pack, marginals),
                                             per_tree(pack, labels)):
                want = marg_ref(tree, params)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got_labels, want @ params.emission,
                                           rtol=1e-12, atol=0)

    def test_matches_enumeration(self, rng, kind):
        make, _, _, enum_ll, enum_labels = KINDS[kind]
        for _ in range(5):
            n_states = int(rng.integers(1, 4))
            params = make(rng, n_states, 2, 3)
            pack = PackedCorpus(random_corpus(rng, 2, 3, 5, n_trees=4), 2)
            np.testing.assert_allclose(
                corpus_log_likelihoods(pack, params),
                [enum_ll(tree, params) for tree in pack], rtol=0, atol=1e-9,
            )
            for tree, got in zip(pack, per_tree(pack, node_label_marginals(pack, params))):
                np.testing.assert_allclose(got, enum_labels(tree, params), rtol=0, atol=1e-9)

    def test_zero_mass_label_is_minus_inf(self, rng, kind):
        make, ll_ref, _, _, _ = KINDS[kind]
        params = make(rng, 3, 2, 3)
        params.emission[:, 2] = 0.0
        params.emission /= params.emission.sum(axis=1, keepdims=True)
        trees = random_corpus(rng, 2, 2, 12) + [random_structure(rng, 2, 12, 3)]
        builder = TreeBuilder(2)
        builder.add(0, parent=builder.add(2), position=1)
        trees.append(builder.build())
        got = corpus_log_likelihoods(trees, params)
        assert not np.any(np.isnan(got))
        want = [ll_ref(tree, params) for tree in trees]
        assert got[-1] == -np.inf
        for g, w, tree in zip(got, want, trees):
            assert (g == -np.inf) == bool(np.any(tree.labels == 2)) == (w == -np.inf)
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], np.array(want)[finite], rtol=1e-12, atol=0)


def test_tf_one_node_blocks_match_unblocked(rng, monkeypatch):
    params = random_tf_params(rng, 3, 3, 3, clustering=HardClustering.identity(3, 3))
    pack = PackedCorpus(random_corpus(rng, 3, 3, 60), 3)
    whole = corpus_log_likelihoods(pack, params), state_marginals(pack, params)
    monkeypatch.setattr(model, "GRID_BUDGET", 1)  # one node per block
    blocked = corpus_log_likelihoods(pack, params), state_marginals(pack, params)
    for a, b in zip(whole, blocked):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
