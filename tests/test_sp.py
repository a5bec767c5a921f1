import io
import math

import numpy as np
import pytest

from bhtmm.errors import ConfigError
from bhtmm.gibbs import Latents
from bhtmm.model import HyperParams, SpModelParams
from bhtmm.sp import (
    SpStats,
    sp_latent_acceptance,
    sp_marginal_log_likelihood,
    sp_node_label_marginals,
    sp_propose_latents,
    sp_train,
    sp_transition,
)
from bhtmm.trees import PackedCorpus, TreeBuilder, TreeCorpus

from oracles import (
    enum_marginal_sp,
    enum_marginal_sp_joint,
    enum_sp_label_marginals,
    random_simplex_rows,
    random_sp_params,
    random_structure,
    sp_acceptance_reference,
    sp_factor_product_ll,
    sp_propose_reference,
    sp_stats_reference,
    stats_reference,
)


def single_leaf(label=0, n_slots=2):
    builder = TreeBuilder(n_slots)
    builder.add(label)
    return builder.build()


class TestSpTransition:
    def test_single_slot_returns_row(self, rng):
        params = random_sp_params(rng, 3, 1, 2)
        for ext in range(4):
            got = sp_transition(params, (ext,))
            assert np.allclose(got, params.child_transitions[0, ext], atol=1e-12)

    def test_identical_tables_fixed_point(self, rng):
        table = random_simplex_rows(rng, (4, 3))
        params = SpModelParams(
            leaf_prior=random_simplex_rows(rng, (2, 3)),
            emission=random_simplex_rows(rng, (3, 2)),
            switch_weights=np.array([0.25, 0.75]),
            child_transitions=np.stack([table, table]),
        )
        for ext in range(4):
            got = sp_transition(params, (ext, ext))
            assert np.allclose(got, table[ext], atol=1e-12)

    def test_hand_convex_combination(self):
        rows = np.array(
            [
                [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]],
                [[0.2, 0.8], [0.7, 0.3], [0.1, 0.9]],
            ]
        )
        params = SpModelParams(
            leaf_prior=np.full((2, 2), 0.5),
            emission=np.full((2, 2), 0.5),
            switch_weights=np.array([0.3, 0.7]),
            child_transitions=rows,
        )
        got = sp_transition(params, (0, 1))
        want = 0.3 * np.array([0.9, 0.1]) + 0.7 * np.array([0.7, 0.3])
        assert np.allclose(got, want, atol=1e-12)

    def test_output_is_simplex(self, rng):
        for _ in range(20):
            params = random_sp_params(rng, 3, 3, 2)
            ext = tuple(int(rng.integers(4)) for _ in range(3))
            row = sp_transition(params, ext)
            assert np.all(row >= 0)
            assert np.isclose(row.sum(), 1.0, atol=1e-9)


def pack(*trees):
    return PackedCorpus(trees, trees[0].n_slots)


def per_tree(packed, latents):
    """``(q, {internal node: slot})`` per tree, in local node ids."""
    out = []
    for tree, a, b in zip(packed.trees, packed.offsets[:-1], packed.offsets[1:]):
        s = latents.s[a:b]
        out.append((latents.q[a:b], {int(u): int(s[u]) for u in tree.internal_nodes}))
    return out


def random_sp_latents(rng, packed, n_states):
    q = rng.integers(0, n_states, size=packed.n_nodes)
    s = np.where(packed.leaf_mask, -1, rng.integers(0, packed.n_slots, size=packed.n_nodes))
    return Latents(q, s)


class TestSpLatents:
    def test_identical_proposal_accepts(self, rng):
        params = random_sp_params(rng, 3, 2, 2)
        packed = pack(random_structure(rng, 2, 7, 2))
        latent = sp_propose_latents(packed, params, rng)
        for mode in ("cross", "plain"):
            prob = sp_latent_acceptance(latent, latent, packed, params, 1.0, mode)
            assert prob.tolist() == [1.0]

    def test_acceptance_in_unit_interval(self, rng):
        params = random_sp_params(rng, 2, 2, 2)
        packed = pack(random_structure(rng, 2, 8, 2))
        for _ in range(50):
            a = sp_propose_latents(packed, params, rng)
            b = sp_propose_latents(packed, params, rng)
            prob = sp_latent_acceptance(a, b, packed, params, 2.0)
            assert np.all((0.0 <= prob) & (prob <= 1.0))

    def test_stats_match_reference(self, rng):
        for _ in range(20):
            n_states = int(rng.integers(1, 4))
            n_slots = int(rng.integers(1, 4))
            trees = [random_structure(rng, n_slots, 9, 3) for _ in range(int(rng.integers(1, 8)))]
            packed = PackedCorpus(trees, n_slots)
            hyper = HyperParams(n_states=n_states, n_slots=n_slots, n_labels=3)
            latents = random_sp_latents(rng, packed, n_states)
            stats = SpStats.from_latents(packed, latents, hyper)
            pairs = per_tree(packed, latents)
            leaf, emission, _ = stats_reference(trees, [q for q, _ in pairs], hyper)
            switch, trans = sp_stats_reference(trees, pairs, hyper)
            assert np.array_equal(stats.leaf, leaf)
            assert np.array_equal(stats.emission, emission)
            assert np.array_equal(stats.switch, switch)
            assert np.array_equal(stats.trans, trans)

    def test_acceptance_matches_reference(self, rng):
        for case in range(30):
            n_states = int(rng.integers(1, 4))
            params = random_sp_params(rng, n_states, 2, 3)
            if case % 3 == 0:  # zero-mass cells on both sides
                trans = params.child_transitions
                params.child_transitions = np.where(rng.random(trans.shape) < 0.4, 0.0, trans)
            packed = PackedCorpus([random_structure(rng, 2, 9, 3) for _ in range(6)], 2)
            current = random_sp_latents(rng, packed, n_states)
            proposed = random_sp_latents(rng, packed, n_states)
            temp = float(rng.uniform(1.0, 5.0))
            for mode in ("cross", "plain"):
                got = sp_latent_acceptance(current, proposed, packed, params, temp, mode)
                want = [
                    sp_acceptance_reference(tree, cur, prop, params, temp, mode)
                    for tree, cur, prop in zip(packed.trees, per_tree(packed, current),
                                               per_tree(packed, proposed))
                ]
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_single_tree_proposal_draw_for_draw(self, rng):
        for seed in range(20):
            params = random_sp_params(rng, 3, 3, 2)
            tree = random_structure(rng, 3, 12, 2)
            packed = pack(tree)
            a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = per_tree(packed, sp_propose_latents(packed, params, a_rng))[0]
            want = sp_propose_reference(tree, params, b_rng)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert a_rng.random() == b_rng.random()


class TestSpMarginal:
    def test_single_leaf_closed_form(self, rng):
        params = random_sp_params(rng, 3, 2, 2)
        tree = single_leaf(label=1)
        want = math.log(float(params.leaf_prior[0] @ params.emission[:, 1]))
        assert math.isclose(sp_marginal_log_likelihood(tree, params), want, abs_tol=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            n_states = int(rng.integers(1, 4))
            params = random_sp_params(rng, n_states, 2, 3)
            tree = random_structure(rng, 2, 5, 3)
            got = sp_marginal_log_likelihood(tree, params)
            want = enum_marginal_sp(tree, params)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)

    def test_matches_joint_enumeration(self, rng):
        params = random_sp_params(rng, 2, 2, 2)
        builder = TreeBuilder(2)
        root = builder.add(1)
        mid = builder.add(0, parent=root, position=1)
        builder.add(1, parent=mid, position=0)
        tree = builder.build()
        got = sp_marginal_log_likelihood(tree, params)
        want = enum_marginal_sp_joint(tree, params)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)

    def test_survives_deep_chains(self, rng):
        params = random_sp_params(rng, 2, 2, 2)
        builder = TreeBuilder(2)
        node = builder.add(0)
        for i in range(9_999):
            node = builder.add(i % 2, parent=node, position=0)
        tree = builder.build()
        value = sp_marginal_log_likelihood(tree, params)
        assert np.isfinite(value)
        assert value < -1_000.0

    def test_dominates_completed_data(self, rng):
        params = random_sp_params(rng, 2, 2, 2)
        for _ in range(20):
            tree = random_structure(rng, 2, 6, 2)
            q = rng.integers(0, 2, size=tree.n_nodes)
            s = {int(u): int(rng.integers(2)) for u in tree.internal_nodes}
            complete = sp_factor_product_ll(tree, q, s, params)
            assert sp_marginal_log_likelihood(tree, params) >= complete


class TestSpLabelMarginals:
    def test_rows_are_simplexes(self, rng):
        params = random_sp_params(rng, 3, 2, 4)
        tree = random_structure(rng, 2, 8, 4)
        rows = sp_node_label_marginals(tree, params)
        assert np.all(rows >= 0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            params = random_sp_params(rng, 2, 2, 3)
            tree = random_structure(rng, 2, 5, 3)
            got = sp_node_label_marginals(tree, params)
            want = enum_sp_label_marginals(tree, params)
            assert np.allclose(got, want, atol=1e-9)


class TestSpTrain:
    def test_deterministic(self, rng):
        trees = tuple(random_structure(rng, 2, 8, 3) for _ in range(5))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=3)
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=3, iterations=10, seed=21)
        a = sp_train(corpus, hyper, np.random.default_rng(hyper.seed))
        b = sp_train(corpus, hyper, np.random.default_rng(hyper.seed))
        assert np.array_equal(a.leaf_prior, b.leaf_prior)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.switch_weights, b.switch_weights)
        assert np.array_equal(a.child_transitions, b.child_transitions)

    def test_single_state_emission_posterior(self, rng):
        trees = tuple(random_structure(rng, 2, 8, 2) for _ in range(4))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=2)
        counts = np.zeros(2)
        total = 0
        for tree in trees:
            for lab in tree.labels:
                counts[lab] += 1
                total += 1
        hyper = HyperParams(
            n_states=1, n_slots=2, n_labels=2, iterations=400, seed=2, emit_conc=1.0
        )
        rows = []
        sp_train(
            corpus,
            hyper,
            np.random.default_rng(hyper.seed),
            on_sweep=lambda m, params: rows.append(params.emission[0].copy()),
        )
        mean = np.mean(rows, axis=0)
        expected = (1.0 + counts) / (2.0 + total)
        assert np.allclose(mean, expected, atol=0.05)

    def test_single_slot_switch_is_point_mass(self, rng):
        trees = tuple(random_structure(rng, 1, 5, 2) for _ in range(4))
        corpus = TreeCorpus(trees=trees, n_slots=1, n_labels=2)
        hyper = HyperParams(n_states=2, n_slots=1, n_labels=2, iterations=5, seed=0)
        params = sp_train(corpus, hyper, np.random.default_rng(0))
        assert np.array_equal(params.switch_weights, np.array([1.0]))

    def test_log_format(self, rng):
        trees = tuple(random_structure(rng, 2, 6, 2) for _ in range(3))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=2)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2, iterations=4, seed=0)
        buf = io.StringIO()
        sp_train(corpus, hyper, np.random.default_rng(0), log=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            assert fields[4] == "-" and fields[5] == "-"

    def test_corpus_mismatch_raises(self, rng):
        trees = (random_structure(rng, 2, 5, 2),)
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=2)
        hyper = HyperParams(n_states=2, n_slots=1, n_labels=2, iterations=1)
        with pytest.raises(ConfigError):
            sp_train(corpus, hyper, np.random.default_rng(0))
