"""Acceptance suite: one test per release criterion.

Each test asserts its criterion at the stated tolerance and prints one
PASS line (run ``pytest tests/test_acceptance.py -v -s`` to see them
inline). The labelling benchmark is the slowest test at a few minutes;
everything else finishes in seconds.
"""

import hashlib
import itertools
import math
import time
from collections import Counter

import numpy as np

from bhtmm.cli import main as cli_main
from bhtmm.gibbs import (
    Latents,
    SufficientStats,
    crp_table_count,
    latent_acceptance,
    propose_size_move,
    resample_base_measure,
    size_acceptance,
    train,
)
from bhtmm.gibbs import complete_data_log_likelihood
from bhtmm.inference import marginal_log_likelihood
from bhtmm.model import HardClustering, HyperParams
from bhtmm.sp import (
    sp_latent_acceptance,
    sp_marginal_log_likelihood,
    sp_propose_latents,
    sp_train,
)
from bhtmm.tasks import (
    entropy_pct,
    eval_classification,
    eval_labelling,
    generate_synthetic,
    stratified_split,
    train_classifier,
)
from bhtmm.trees import PackedCorpus, TreeCorpus

from oracles import (
    enum_marginal_sp,
    enum_marginal_tf,
    factor_product_ll,
    random_latent,
    random_sp_params,
    random_structure,
    random_tf_params,
    separable_corpus,
)


def test_criterion_1_likelihood_oracles():
    """Marginals match exhaustive enumeration; complete LL matches products."""
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_marginal = 0.0
    worst_complete = 0.0
    for case in range(200):
        n_states = int(rng.integers(1, 4))
        tree = random_structure(rng, 2, 6, 3)
        tf = random_tf_params(rng, n_states, 2, 3)
        got = marginal_log_likelihood(tree, tf)
        want = enum_marginal_tf(tree, tf)
        worst_marginal = max(worst_marginal, abs(got - want))
        assert abs(got - want) < 1e-9, f"tf case {case}: {got} vs {want}"

        sp = random_sp_params(rng, n_states, 2, 3)
        got = sp_marginal_log_likelihood(tree, sp)
        want = enum_marginal_sp(tree, sp)
        worst_marginal = max(worst_marginal, abs(got - want))
        assert abs(got - want) < 1e-9, f"sp case {case}: {got} vs {want}"

        # The complete-data log likelihood every training log prints: the
        # cluster choices follow from the states, as the learner derives them.
        latent = random_latent(tree, tf, rng)
        stats = SufficientStats.from_latents(PackedCorpus([tree], 2), Latents(latent.q), tf)
        got = complete_data_log_likelihood(stats, stats.tuple_counts(tf.clustering), tf)
        want = factor_product_ll(tree, latent, tf)
        worst_complete = max(worst_complete, abs(got - want))
        assert abs(got - want) < 1e-12, f"complete case {case}: {got} vs {want}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"CRITERION 1 PASS: 200 random trees, marginal deviation <= "
        f"{worst_marginal:.2e} (tol 1e-9), complete-LL deviation <= "
        f"{worst_complete:.2e} (tol 1e-12), {elapsed:.1f}s"
    )


def test_criterion_2_tucker_exactness():
    """Identity clusters reproduce the core; single clusters drop children.

    Rows come from ``transition_map``, the map inference runs, at one-hot
    extended child states, and core rows are read at keys raveled by
    numpy. The last case has 100 slots, three identity-clustered and the
    rest trivial, so its keys have more entries than an array has axes.
    """
    rng = np.random.default_rng(1002)
    start = time.time()
    for n_states, n_slots in ((1, 2), (2, 2), (3, 3)):
        exts = np.array(list(itertools.product(range(n_states + 1), repeat=n_slots)))
        one_hot = np.eye(n_states + 1)[exts]
        ident = random_tf_params(
            rng, n_states, n_slots, 2,
            clustering=HardClustering.identity(n_states, n_slots),
        )
        rows = ident.transition_map()(one_hot)
        assert np.array_equal(rows, ident.core[np.ravel_multi_index(exts.T, ident.clustering.k)])

        trivial = random_tf_params(
            rng, n_states, n_slots, 2,
            clustering=HardClustering.trivial(n_states, n_slots),
        )
        rows = trivial.transition_map()(one_hot)
        deviation = float(np.abs(rows[:, None] - rows[None]).max())
        assert deviation == 0.0
    n_states, n_slots, active = 2, 100, [0, 50, 99]
    assign = np.zeros((n_slots, n_states + 1), dtype=np.int64)
    assign[active] = np.arange(n_states + 1)
    wide = random_tf_params(rng, n_states, n_slots, 2, clustering=HardClustering(assign))
    exts = rng.integers(0, n_states + 1, size=(27, n_slots))
    exts[:, active] = list(itertools.product(range(n_states + 1), repeat=len(active)))
    rows = wide.transition_map()(np.eye(n_states + 1)[exts])
    # One-cluster slots add nothing to a C-order raveled index.
    assert np.array_equal(rows, wide.core[np.ravel_multi_index(exts[:, active].T, (3, 3, 3))])
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(
        f"CRITERION 2 PASS: identity clustering exact, single-cluster "
        f"transitions child-independent (max deviation 0), {elapsed:.2f}s"
    )


def test_criterion_3_sampler_invariants():
    """1e5 fuzzed size moves keep every clustering invariant intact."""
    rng = np.random.default_rng(1003)
    start = time.time()
    moves = 0
    while moves < 100_000:
        n_states = int(rng.integers(1, 5))
        n_slots = int(rng.integers(1, 5))
        min_active = int(rng.integers(1, n_slots + 1))
        max_active = int(rng.integers(min_active, n_slots + 1))
        hyper = HyperParams(
            n_states=n_states,
            n_slots=n_slots,
            n_labels=2,
            min_active=min_active,
            max_active=max_active,
        )
        # Random legal starting point: min_active slots get two clusters.
        arrays = []
        actives = rng.choice(n_slots, size=min_active, replace=False)
        for l in range(n_slots):
            a = np.zeros(n_states + 1, dtype=np.int64)
            if l in actives:
                a[int(rng.integers(n_states + 1))] = 1
            arrays.append(a)
        clustering = HardClustering(arrays)
        for _ in range(500):
            clustering = propose_size_move(clustering, hyper, rng)
            moves += 1
            active = clustering.n_active()
            assert hyper.min_active <= active <= hyper.max_active
            for l in range(n_slots):
                assign = clustering.assign[l]
                assert len(assign) == n_states + 1
                assert assign.min() >= 0
                # Canonical numbering implies every cluster is non-empty.
                assert assign.max() + 1 == clustering.k[l]
                assert 1 <= clustering.k[l] <= n_states + 1

    prob_rng = np.random.default_rng(1033)
    for _ in range(300):
        params = random_tf_params(prob_rng, 2, 2, 2)
        tree = random_structure(prob_rng, 2, 6, 2)
        packed = PackedCorpus([tree], 2)
        current = Latents(random_latent(tree, params, prob_rng).q)
        proposed = Latents(random_latent(tree, params, prob_rng).q)
        temp = float(prob_rng.uniform(1.0, 10.0))
        assert latent_acceptance(current, current, packed, params, temp).tolist() == [1.0]
        prob = float(latent_acceptance(current, proposed, packed, params, temp)[0])
        assert 0.0 <= prob <= 1.0
        sp = random_sp_params(prob_rng, 2, 2, 2)
        cur_sp = sp_propose_latents(packed, sp, prob_rng)
        prop_sp = sp_propose_latents(packed, sp, prob_rng)
        assert sp_latent_acceptance(cur_sp, cur_sp, packed, sp, temp).tolist() == [1.0]
        prob = float(sp_latent_acceptance(cur_sp, prop_sp, packed, sp, temp)[0])
        assert 0.0 <= prob <= 1.0

        hyper = HyperParams(n_states=2, n_slots=2, n_labels=2)
        stats = SufficientStats.from_latents(packed, current, hyper)
        clustering = params.clustering
        counts = stats.tuple_counts(clustering)
        move = propose_size_move(clustering, hyper, prob_rng)
        assert (
            size_acceptance(clustering, clustering, counts, counts, hyper, params.base_measure,
                            temp)
            == 1.0
        )
        prob = size_acceptance(clustering, move, counts, stats.tuple_counts(move), hyper,
                               params.base_measure, temp)
        assert 0.0 <= prob <= 1.0
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"CRITERION 3 PASS: {moves} size moves kept the active-slot window "
        f"and non-empty clusters; acceptance probabilities stayed in [0,1]; "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_conjugate_updates():
    """Posterior means match closed forms; cascade matches its expectation."""
    start = time.time()
    # (i) Single-node corpus: the emission row is Beta(emit_conc + 1,
    # emit_conc) distributed every sweep, mean 2/3 on the observed label.
    from bhtmm.trees import TreeBuilder

    builder = TreeBuilder(1)
    builder.add(0)
    corpus = TreeCorpus(trees=(builder.build(),), n_slots=1, n_labels=2)
    hyper = HyperParams(
        n_states=1,
        n_slots=1,
        n_labels=2,
        iterations=1000,
        anneal_iters=500,
        emit_conc=1.0,
        seed=404,
    )
    rows = []
    train(
        corpus,
        hyper,
        on_sweep=lambda m, params: rows.append(params.emission[0, 0])
        if m >= hyper.anneal_iters
        else None,
    )
    assert len(rows) == 500
    mean = float(np.mean(rows))
    assert abs(mean - 2.0 / 3.0) < 0.05, mean

    # (ii) Base-measure redraw with zero counts is a pure prior draw.
    rng = np.random.default_rng(405)
    n_states = 4
    stats = SufficientStats(
        leaf=np.zeros((1, n_states), dtype=np.int64),
        emission=np.zeros((n_states, 2), dtype=np.int64),
        raw=np.zeros((0, 2), dtype=np.int64),
    )
    clustering = HardClustering.trivial(n_states, 1)
    base = np.full(n_states, 0.25)
    draws = np.array(
        [
            resample_base_measure(stats.tuple_counts(clustering), base, 4.0, 4.0, rng)
            for _ in range(10_000)
        ]
    )
    prior_mean = 0.25
    prior_std = math.sqrt(0.25 * 0.75 / 5.0)
    assert np.all(np.abs(draws.mean(axis=0) - prior_mean) < 0.02)
    assert np.all(np.abs(draws.std(axis=0) - prior_std) < 0.02)

    # (iii) Cascade expectation for n=3, unit weight: 1 + 1/2 + 1/3.
    cascade = np.array([crp_table_count(3, 1.0, rng) for _ in range(100_000)])
    expected = 1.0 + 0.5 + 1.0 / 3.0
    assert abs(cascade.mean() - expected) < 0.02
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        f"CRITERION 4 PASS: emission mean {mean:.4f} vs 2/3 (tol 0.05); "
        f"base-measure moments within 0.02; cascade mean "
        f"{cascade.mean():.4f} vs {expected:.4f} (tol 0.02); {elapsed:.1f}s"
    )


def test_criterion_5_labelling_benchmark():
    """Desk-scale reproduction of the synthetic labelling comparison.

    Primary claims: (a) best-run factored-model accuracy on label 0 at
    least 90%, (b) factored mean overall accuracy at least 10 points
    above the baseline's on seed-matched runs, (c) lower mean entropy.
    The baseline here trains with the same annealed sampler rather than
    its original optimiser (a declared deviation) and lands well above
    its published numbers, so when (b) or (c) fails the documented
    fallback applies: (a) plus a 20-point margin over the majority-label
    baseline.
    """
    start = time.time()
    corpus = generate_synthetic(260, np.random.default_rng(0))
    train_part, test_part = stratified_split(corpus, 200)
    assert len(train_part.trees) == 600
    assert len(test_part.trees) == 180

    train_labels = Counter()
    for tree in train_part.trees:
        train_labels.update(tree.labels.tolist())
    majority = train_labels.most_common(1)[0][0]
    test_nodes = sum(tree.n_nodes for tree in test_part.trees)
    majority_hits = sum(int((tree.labels == majority).sum()) for tree in test_part.trees)
    majority_acc = 100.0 * majority_hits / test_nodes

    tf_overall, tf_label0, tf_entropy = [], [], []
    sp_overall, sp_entropy = [], []
    for seed in (101, 102, 103, 104, 105):
        hyper = HyperParams(
            n_states=10,
            n_slots=3,
            n_labels=4,
            size_decay=2.0,
            min_active=1,
            max_active=3,
            iterations=100,
            seed=seed,
        )
        state = train(train_part, hyper)
        report = eval_labelling(test_part, state.params)
        tf_overall.append(report.accuracy)
        tf_label0.append(report.per_class[0]["accuracy"])
        tf_entropy.append(report.entropy)

        sp_params = sp_train(train_part, hyper, np.random.default_rng(seed))
        report = eval_labelling(test_part, sp_params)
        sp_overall.append(report.accuracy)
        sp_entropy.append(report.entropy)

    best_label0 = max(tf_label0)
    tf_mean = float(np.mean(tf_overall))
    sp_mean = float(np.mean(sp_overall))
    gap = tf_mean - sp_mean
    entropy_ok = float(np.mean(tf_entropy)) < float(np.mean(sp_entropy))

    assert best_label0 >= 90.0, f"(a) failed: best label-0 accuracy {best_label0:.2f}"
    if gap >= 10.0 and entropy_ok:
        route = f"primary: gap {gap:.2f} >= 10 and entropy ordering holds"
    else:
        margin = tf_mean - majority_acc
        assert margin >= 20.0, (
            f"fallback failed: factored mean {tf_mean:.2f} vs majority "
            f"{majority_acc:.2f} (margin {margin:.2f} < 20)"
        )
        route = (
            f"fallback (declared baseline-optimiser deviation): gap {gap:.2f}, "
            f"majority margin {margin:.2f} >= 20"
        )
    elapsed = time.time() - start
    assert elapsed < 1800.0
    print(
        f"CRITERION 5 PASS ({route}); tf mean {tf_mean:.2f} "
        f"(label-0 best {best_label0:.2f}, entropy {np.mean(tf_entropy):.2f}), "
        f"baseline mean {sp_mean:.2f} (entropy {np.mean(sp_entropy):.2f}), "
        f"majority {majority_acc:.2f}; {elapsed:.0f}s"
    )


def test_criterion_6_classification_substitute():
    """Separable two-class corpus classifies above 90% over five seeds."""
    start = time.time()
    data_rng = np.random.default_rng(606)
    train_corpus = separable_corpus(data_rng, per_class=50)
    test_corpus = separable_corpus(data_rng, per_class=25)
    accuracies = []
    for seed in range(5):
        hyper = HyperParams(
            n_states=2, n_slots=2, n_labels=4, iterations=100, seed=seed
        )
        bundle = train_classifier(train_corpus, hyper, kind="tf")
        report = eval_classification(test_corpus, bundle)
        accuracies.append(report.accuracy)
    mean_acc = float(np.mean(accuracies))
    assert mean_acc > 90.0, accuracies
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"CRITERION 6 PASS: separable two-class accuracy "
        f"{mean_acc:.2f}% over 5 seeds (tol > 90); {elapsed:.0f}s"
    )


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_7_determinism(tmp_path):
    """Same corpus, configuration and seed give bit-identical artifacts."""
    start = time.time()
    digests = []
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        data = root / "data"
        assert (
            cli_main(
                [
                    "generate",
                    "--out", str(data),
                    "--count-per-type", "8",
                    "--train-per-type", "6",
                    "--seed", "13",
                ]
            )
            == 0
        )
        run_digest = {}
        for model in ("tf", "sp"):
            out = root / f"model-{model}"
            assert (
                cli_main(
                    [
                        "train",
                        "--corpus", str(data / "train.trees"),
                        "--out", str(out),
                        "--task", "label",
                        "--model", model,
                        "--states", "3",
                        "--iterations", "10",
                        "--seed", "21",
                    ]
                )
                == 0
            )
            evaluation = root / f"eval-{model}"
            assert (
                cli_main(
                    [
                        "eval",
                        "--task", "label",
                        "--test", str(data / "test.trees"),
                        "--checkpoint", str(out / "model.ckpt"),
                        "--out", str(evaluation),
                    ]
                )
                == 0
            )
            run_digest[f"{model}.ckpt"] = _sha256(out / "model.ckpt")
            run_digest[f"{model}.log"] = _sha256(out / "train.log")
            run_digest[f"{model}.report"] = _sha256(evaluation / "report.json")
        run_digest["train.trees"] = _sha256(data / "train.trees")
        run_digest["test.trees"] = _sha256(data / "test.trees")
        digests.append(run_digest)
    assert digests[0] == digests[1]
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"CRITERION 7 PASS: double-run hashes identical for corpora, "
        f"checkpoints, logs and reports ({len(digests[0])} files); {elapsed:.0f}s"
    )


def test_criterion_8_entropy_convention():
    """A uniform 18-way distribution scores about 289 entropy points."""
    value = entropy_pct(np.full(18, 1.0 / 18.0))
    assert abs(value - 289.0) < 0.5
    print(f"CRITERION 8 PASS: uniform 18-class entropy {value:.3f} within 0.5 of 289.0")
