import math
import pickle

import numpy as np
import pytest

from bhtmm import model
from bhtmm.gibbs import Latents, SufficientStats, complete_data_log_likelihood
from bhtmm.inference import (
    corpus_log_likelihoods,
    marginal_log_likelihood,
    node_label_marginals,
    state_marginals,
    upward,
)
from bhtmm.model import HardClustering, TfModelParams, init_params
from bhtmm.tasks import ClassifierBundle, class_posterior, class_scores, classify
from bhtmm.trees import LabelledTree, PackedCorpus, TreeBuilder, TreeCorpus, parse_corpus

from oracles import (
    ancestral_sample,
    enum_label_marginals,
    enum_marginal_sp,
    enum_marginal_tf,
    enum_marginal_tf_full,
    enum_sp_label_marginals,
    factor_product_ll,
    random_clustering,
    random_latent,
    random_sp_params,
    random_structure,
    random_tf_params,
    sp_log_likelihood_reference,
    sp_state_marginals_reference,
    subtree_keys,
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


def complete_log_likelihood(tree, latent, params):
    """The learner's complete-data log likelihood of one tree, its count
    tables taken under the states ``latent.q`` alone."""
    stats = SufficientStats.from_latents(PackedCorpus([tree], params.n_slots),
                                         Latents(latent.q), params)
    return complete_data_log_likelihood(stats, stats.tuple_counts(params.clustering), params)


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
                assert zt[l] == params.clustering.assign[l][ext]

    def test_label_frequencies_match_marginals(self, rng):
        params = random_tf_params(rng, 2, 2, 3)
        builder = TreeBuilder(2)
        root = builder.add(0)
        builder.add(0, parent=root, position=1)
        tree = builder.build()
        marginals = node_label_marginals(tree, params)
        draws = 100_000
        # One call over ``draws`` copies: copy i holds nodes 2i (root) and 2i + 1.
        _, labels = ancestral_sample([tree] * draws, params, rng)
        counts = np.stack([np.bincount(labels[u::2], minlength=3) for u in (0, 1)])
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


def shuffled(tree, rng):
    """``tree`` with its non-root ids permuted (the root stays at 0), so
    ids no longer follow any traversal order."""
    new = np.concatenate([[0], 1 + rng.permutation(tree.n_nodes - 1)])
    old = np.argsort(new)
    relabel = np.append(new, -1)  # an empty slot stays -1
    parent = np.where(tree.parent[old] >= 0, relabel[tree.parent[old]], -1)
    return LabelledTree(tree.labels[old], parent, tree.position[old],
                        relabel[tree.children[old]], tree.n_slots)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_shuffled_ids_match_per_node_references(rng, kind):
    """One tree is renumbered bottom up for its pass and its rows come
    back by its own ids, whatever order those ids are in."""
    make, ll_ref, marg_ref, _, _ = KINDS[kind]
    for _ in range(10):
        n_slots = int(rng.integers(1, 4))
        params = make(rng, int(rng.integers(1, 5)), n_slots, 3)
        base = random_structure(rng, n_slots, 40, 3)
        tree = shuffled(base, rng)
        assert tree == base
        np.testing.assert_allclose(state_marginals(tree, params), marg_ref(tree, params),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(marginal_log_likelihood(tree, params),
                                   ll_ref(tree, params), rtol=1e-12, atol=0)


def same_tables(params):
    """A ``TfModelParams`` with no cached map over the tables of ``params``."""
    return TfModelParams(params.leaf_prior, params.emission, params.base_measure,
                         params.clustering, params.core, params.core_conc)


def test_tf_one_node_blocks_match_unblocked(rng, monkeypatch):
    params = random_tf_params(rng, 3, 3, 3, clustering=HardClustering.identity(3, 3))
    pack = PackedCorpus(random_corpus(rng, 3, 3, 60), 3)
    whole = corpus_log_likelihoods(pack, params), state_marginals(pack, params)
    monkeypatch.setattr(model, "GRID_BUDGET", 1)  # one node per block
    # A model keeps its map until a field is assigned, so the blocked map
    # needs a fresh model.
    fresh = same_tables(params)
    blocked = corpus_log_likelihoods(pack, fresh), state_marginals(pack, fresh)
    for a, b in zip(whole, blocked):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def factored_params(rng, n_states, n_slots, n_labels):
    """Random tf parameters with more than one cluster on two slots or more."""
    while True:
        clustering = random_clustering(rng, n_states, n_slots)
        if sum(k > 1 for k in clustering.k) >= 2:
            return random_tf_params(rng, n_states, n_slots, n_labels, clustering)


FOLD_KINDS = {"tf": factored_params, "sp": random_sp_params}


def repeating_corpus(rng, n_slots, n_labels=2):
    """Small random trees over few labels, three of them twice: many
    subtrees repeat, within a tree and across trees."""
    trees = random_corpus(rng, n_slots, n_labels, 14, n_trees=10)
    return TreeCorpus(trees=tuple(trees + trees[:3]), n_slots=n_slots, n_labels=n_labels)


def assert_merges_equal_subtrees(corpus, unique, labelled):
    """Two nodes share a folded id exactly when their subtrees are equal."""
    keys = subtree_keys(corpus.trees, labelled)
    pairs = set(zip(keys, unique.tolist()))
    assert len(pairs) == len(set(keys)) == len(set(unique.tolist()))


class TestFoldedPass:
    """The pass over a corpus's distinct subtrees (``PackedCorpus.fold``)
    against the node-by-node pass over the same trees."""

    def check(self, corpus, params, observed):
        plain = PackedCorpus(corpus.trees, corpus.n_slots)
        unique, folded = corpus.pack.fold(observed)
        assert_merges_equal_subtrees(corpus, unique, observed)
        # Log normalisers when observed, else state-marginal rows.
        got, want = upward(folded, params, observed), upward(plain, params, observed)
        np.testing.assert_allclose(got[unique], want, rtol=1e-12 if observed else 0, atol=1e-12)
        if observed:
            np.testing.assert_allclose(corpus_log_likelihoods(corpus.pack, params),
                                       corpus_log_likelihoods(plain, params),
                                       rtol=1e-12, atol=0)
        else:
            np.testing.assert_allclose(state_marginals(corpus.pack, params), want,
                                       rtol=0, atol=1e-12)
        return unique, folded

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("kind", sorted(FOLD_KINDS))
    def test_matches_unfolded(self, rng, kind, observed):
        for _ in range(6):
            n_slots, n_states = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            corpus = repeating_corpus(rng, n_slots)
            unique, folded = self.check(corpus, FOLD_KINDS[kind](rng, n_states, n_slots, 2),
                                        observed)
            assert folded.n_nodes < corpus.pack.n_nodes
            assert len(folded.internal) < len(corpus.pack.internal)
            assert np.array_equal(np.unique(unique), np.arange(folded.n_nodes))

    @pytest.mark.parametrize("observed", [False, True])
    def test_first_read_folds_and_keeps_the_fold(self, rng, observed):
        corpus = repeating_corpus(rng, 2)
        unique, first = corpus.pack.fold(observed)
        assert first is not corpus.pack and first.n_nodes < corpus.pack.n_nodes
        again = corpus.pack.fold(observed)
        assert again[0] is unique and again[1] is first
        assert corpus.pack.fold(not observed)[1] not in (corpus.pack, first)
        # A pack built for one call folds to its own nodes renumbered
        # bottom up, computed once and shared by both keys.
        plain = PackedCorpus(corpus.trees, corpus.n_slots)
        rank, renumbered = plain.fold(observed)
        n = plain.n_nodes
        assert np.array_equal(np.sort(rank), np.arange(n))
        assert renumbered is not plain and renumbered.n_nodes == n
        assert np.array_equal(renumbered.order, np.arange(n))
        bounds = renumbered.bounds
        assert bounds == plain.bounds
        for a, b, level in zip(bounds, bounds[1:], renumbered.levels):
            assert np.array_equal(level, np.arange(a, b))
        for again in (plain.fold(observed), plain.fold(not observed)):
            assert again[0] is rank and again[1] is renumbered

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("kind", sorted(FOLD_KINDS))
    def test_wide_keys_are_reranked(self, rng, monkeypatch, kind, observed):
        # 16 slots: at height 1 the children's ids alone span more than
        # 2**63 keys, so each level's key is re-ranked while it is built.
        n_slots, n_states = 16, 2
        trees = [random_structure(rng, n_slots, 40, 3) for _ in range(12)]
        corpus = TreeCorpus(trees=tuple(trees + trees[:4]), n_slots=n_slots, n_labels=3)
        if kind == "tf":
            # Two clusters on the first two slots, one on the rest.
            clustering = HardClustering([np.array([0, 1, 1])] * 2
                                        + [np.zeros(3, dtype=np.int64)] * (n_slots - 2))
            params = random_tf_params(rng, n_states, n_slots, 3, clustering)
        else:
            params = random_sp_params(rng, n_states, n_slots, 3)
        ranks, unique_fn = [], np.unique

        def counted_unique(*args, **kwargs):
            ranks.append(len(args[0]))
            return unique_fn(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted_unique)
        corpus.pack.fold(observed)
        monkeypatch.setattr(np, "unique", unique_fn)
        assert len(ranks) > len(corpus.pack.levels)  # one per level, plus re-ranks
        unique, folded = self.check(corpus, params, observed)
        assert folded.n_nodes < corpus.pack.n_nodes

    def test_leaves_in_different_slots_stay_apart(self):
        builder = TreeBuilder(2)
        root = builder.add(1)
        builder.add(0, parent=root, position=0)
        builder.add(0, parent=root, position=1)
        corpus = TreeCorpus(trees=(builder.build(),) * 2, n_slots=2, n_labels=2)
        for labelled in (False, True):
            unique, folded = corpus.pack.fold(labelled)
            assert unique[1] != unique[2]
            assert unique[3:].tolist() == unique[:3].tolist()
            assert folded.n_nodes == 3

    def test_labels_split_only_the_labelled_fold(self):
        trees = parse_corpus("L=2 M=2\n(0 (0) (1))\n(0 (1) (1))\n").trees
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=2)
        assert corpus.pack.fold(labelled=False)[1].n_nodes == 3
        assert corpus.pack.fold(labelled=True)[1].n_nodes == 5

    def test_no_repeated_internal_subtree(self, rng):
        # A chain: every internal node heads a subtree of its own height.
        builder = TreeBuilder(2)
        node = builder.add(0)
        for depth in range(6):
            node = builder.add(depth % 2, parent=node, position=depth % 2)
        corpus = TreeCorpus(trees=(builder.build(),), n_slots=2, n_labels=2)
        for kind, make in sorted(FOLD_KINDS.items()):
            for observed in (False, True):
                unique, folded = self.check(corpus, make(rng, 3, 2, 2), observed)
                assert sorted(unique.tolist()) == list(range(corpus.pack.n_nodes))

    def test_deep_chain_folds_to_every_node(self):
        # Each level offsets its ids by the distinct count of the levels below.
        builder = TreeBuilder(1)
        node = builder.add(0)
        for depth in range(2999):
            node = builder.add(depth % 2, parent=node)
        corpus = TreeCorpus(trees=(builder.build(),), n_slots=1, n_labels=2)
        for labelled in (False, True):
            unique, folded = corpus.pack.fold(labelled)
            assert folded.n_nodes == 3000
            assert np.array_equal(np.sort(unique), np.arange(3000))

    def test_one_node_blocks(self, rng, monkeypatch):
        corpus = repeating_corpus(rng, 3)
        params = factored_params(rng, 3, 3, 2)
        monkeypatch.setattr(model, "GRID_BUDGET", 1)  # one node per block
        fresh = same_tables(params)
        for observed in (False, True):
            self.check(corpus, fresh, observed)


class TestFrozenModel:
    """A trained tf model holds its whole core: inference reads it and
    never changes it, and the map is cached until a field is assigned."""

    def test_map_cached_until_assignment(self, rng):
        params = random_tf_params(rng, 3, 2, 3)
        tree = random_structure(rng, 2, 20, 3)
        step = params.transition_map()
        assert params.transition_map() is step
        node_label_marginals(tree, params)
        assert params.transition_map() is step
        for name in ("clustering", "core", "emission", "base_measure", "leaf_prior", "core_conc"):
            setattr(params, name, getattr(params, name))
            assert params.transition_map() is not step
            step = params.transition_map()
        # A new core reaches the next pass.
        params.core = params.core[..., ::-1].copy()
        np.testing.assert_allclose(state_marginals(tree, params),
                                   tf_state_marginals_reference(tree, params), rtol=1e-12, atol=0)

    def test_inference_never_changes_the_core(self, rng):
        params = init_params(model.HyperParams(n_states=3, n_slots=2, n_labels=3, min_active=2),
                             np.random.default_rng(7))
        tree = random_structure(rng, 2, 20, 3)
        core, before = params.core, params.core.copy()
        first = node_label_marginals(tree, params)
        marginal_log_likelihood(tree, params)
        assert np.array_equal(node_label_marginals(tree, params), first)
        assert params.core is core and np.array_equal(core, before)

    def test_training_reads_leave_model_unfrozen(self, rng):
        params = random_tf_params(rng, 3, 2, 3)
        params.core_entry((0, 0))
        params.dense_core()
        params.emission = params.emission.copy()
        params.core[0] = params.core[0]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_tree_by_tree_equals_batched(self, rng, kind):
        make = KINDS[kind][0]
        trees = random_corpus(rng, 3, 3, 40, n_trees=12)
        pack = PackedCorpus(trees, 3)
        params = make(rng, 3, 3, 3)
        batched = per_tree(pack, node_label_marginals(pack, params))
        # A matrix product over fewer rows may sum in another order, so
        # one tree agrees with its batched rows to rounding, not bitwise.
        for tree, want in zip(trees, batched):
            np.testing.assert_allclose(node_label_marginals(tree, params), want,
                                       rtol=1e-12, atol=0)
        bundle = ClassifierBundle(models=tuple(make(rng, 3, 3, 3) for _ in range(3)),
                                  kind=kind, hyper=None)
        scores = class_scores(trees, bundle)
        for tree, row in zip(trees, scores):
            np.testing.assert_allclose(class_scores([tree], bundle)[0], row, rtol=1e-12, atol=0)
            guess, posterior = classify(tree, bundle)
            assert guess == np.argmax(row)
            np.testing.assert_allclose(posterior, class_posterior(row), rtol=1e-12, atol=0)

    def test_frozen_model_pickles(self, rng):
        # A model with a cached map pickles, and its clone predicts the same.
        params = random_tf_params(rng, 3, 3, 3)
        pack = PackedCorpus(random_corpus(rng, 3, 3, 30), 3)
        want = node_label_marginals(pack, params)
        clone = pickle.loads(pickle.dumps(params))
        assert "_step" not in vars(clone)
        assert np.array_equal(node_label_marginals(pack, clone), want)
        assert np.array_equal(corpus_log_likelihoods(pack, clone),
                              corpus_log_likelihoods(pack, params))
