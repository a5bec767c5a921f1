import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest

from bhtmm import tasks
from bhtmm.errors import ConfigError
from bhtmm.model import HyperParams, TfModelParams, HardClustering
from bhtmm.tasks import (
    ClassifierBundle,
    class_posterior,
    classify,
    entropy_pct,
    eval_classification,
    eval_labelling,
    generate_synthetic,
    stratified_split,
    train_classifier,
)
from bhtmm.inference import node_label_marginals
from bhtmm.trees import PackedCorpus, TreeBuilder, TreeCorpus, format_corpus, parse_corpus

from oracles import random_structure, random_tf_params, separable_corpus


def leaf_model(emission_row):
    """Single-state, single-slot model with a fixed emission row."""
    emission = np.asarray([emission_row], dtype=np.float64)
    return TfModelParams(
        leaf_prior=np.array([[1.0]]),
        emission=emission,
        base_measure=np.array([1.0]),
        clustering=HardClustering.trivial(1, 1),
        core=np.array([[1.0]]),
        core_conc=1.0,
    )


def leaf_corpus(labels, classes=None, n_labels=2):
    trees = []
    for lab in labels:
        builder = TreeBuilder(1)
        builder.add(lab)
        trees.append(builder.build())
    return TreeCorpus(
        trees=tuple(trees),
        n_slots=1,
        n_labels=n_labels,
        class_labels=tuple(classes) if classes is not None else None,
        n_classes=max(classes) + 1 if classes is not None else None,
    )


class TestEntropy:
    def test_uniform_values(self):
        assert abs(entropy_pct(np.full(18, 1 / 18)) - math.log(18) * 100) < 1e-9
        assert abs(entropy_pct(np.full(4, 0.25)) - math.log(4) * 100) < 1e-9

    def test_point_mass_is_zero(self):
        assert entropy_pct(np.array([1.0, 0.0, 0.0])) == 0.0


class TestClassify:
    def test_posterior_shift_invariance(self, rng):
        for _ in range(20):
            scores = rng.normal(size=5) * 50
            base = class_posterior(scores)
            shifted = class_posterior(scores + rng.normal() * 1000)
            assert np.allclose(base, shifted, atol=1e-10)
            assert np.argmax(base) == np.argmax(scores)

    def test_bayes_two_leaf_models(self):
        bundle = ClassifierBundle(
            models=(leaf_model([0.9, 0.1]), leaf_model([0.4, 0.6])),
            kind="tf",
            hyper=None,
        )
        tree = leaf_corpus([0]).trees[0]
        predicted, posterior = classify(tree, bundle)
        assert predicted == 0
        want = np.array([0.9, 0.4]) / 1.3
        assert np.allclose(posterior, want, atol=1e-12)

    def test_tie_breaks_to_lowest_class(self):
        same = leaf_model([0.5, 0.5])
        bundle = ClassifierBundle(models=(same, same, same), kind="tf", hyper=None)
        tree = leaf_corpus([1]).trees[0]
        predicted, posterior = classify(tree, bundle)
        assert predicted == 0
        assert np.allclose(posterior, np.full(3, 1 / 3), atol=1e-12)
        assert abs(entropy_pct(posterior) - math.log(3) * 100) < 1e-9

    def test_separated_scores_kill_entropy(self):
        bundle = ClassifierBundle(
            models=(leaf_model([1.0 - 1e-12, 1e-12]), leaf_model([1e-12, 1.0 - 1e-12])),
            kind="tf",
            hyper=None,
        )
        tree = leaf_corpus([0]).trees[0]
        predicted, posterior = classify(tree, bundle)
        assert predicted == 0
        assert entropy_pct(posterior) < 1e-6


class TestEvalClassification:
    def test_perfect_classifier(self):
        bundle = ClassifierBundle(
            models=(leaf_model([0.999, 0.001]), leaf_model([0.001, 0.999])),
            kind="tf",
            hyper=None,
        )
        corpus = leaf_corpus([0, 0, 1, 1], classes=[0, 0, 1, 1])
        report = eval_classification(corpus, bundle)
        assert report.accuracy == 100.0
        assert report.entropy < 1.0
        assert np.trace(report.confusion) == 4

    def test_uniform_scores_give_max_entropy(self):
        same = leaf_model([0.5, 0.5])
        bundle = ClassifierBundle(models=(same,) * 3, kind="tf", hyper=None)
        corpus = leaf_corpus([0, 1, 0], classes=[0, 1, 2], n_labels=2)
        report = eval_classification(corpus, bundle)
        assert abs(report.entropy - math.log(3) * 100) < 1e-9
        # Everything lands in class 0 under the tie-break.
        assert report.confusion[:, 0].sum() == 3

    def test_confusion_trace_equals_accuracy(self, rng):
        corpus = separable_corpus(rng, per_class=6)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=5, seed=0)
        bundle = train_classifier(corpus, hyper, kind="tf")
        report = eval_classification(corpus, bundle)
        assert report.accuracy == 100.0 * np.trace(report.confusion) / len(corpus.trees)
        row_sums = report.confusion.sum(axis=1)
        for row in report.per_class:
            assert row_sums[row["class"]] == row["count"]

    def test_pure_function_of_inputs(self, rng):
        corpus = separable_corpus(rng, per_class=4)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=4, seed=1)
        bundle = train_classifier(corpus, hyper, kind="tf")
        a = eval_classification(corpus, bundle)
        b = eval_classification(corpus, bundle)
        assert a.to_json() == b.to_json()


class TestEvalLabelling:
    def test_single_label_alphabet_is_perfect(self, rng):
        trees = tuple(random_structure(rng, 2, 6, 1) for _ in range(4))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=1)
        params = random_tf_params(rng, 2, 2, 1)
        report = eval_labelling(corpus, params)
        assert report.accuracy == 100.0
        assert abs(report.entropy) < 1e-9

    def test_uniform_marginals_score_max_entropy(self, rng):
        params = random_tf_params(rng, 1, 2, 4)
        params.emission = np.full((1, 4), 0.25)
        trees = tuple(random_structure(rng, 2, 6, 4) for _ in range(3))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=4)
        report = eval_labelling(corpus, params)
        assert abs(report.entropy - math.log(4) * 100) < 1e-9

    def test_per_class_counts_cover_all_nodes(self, rng):
        params = random_tf_params(rng, 2, 2, 3)
        trees = tuple(random_structure(rng, 2, 7, 3) for _ in range(5))
        corpus = TreeCorpus(trees=trees, n_slots=2, n_labels=3)
        report = eval_labelling(corpus, params)
        assert sum(row["count"] for row in report.per_class) == report.n_items
        assert report.n_items == sum(t.n_nodes for t in trees)
        assert report.confusion.sum() == report.n_items


class TestSyntheticGenerator:
    def test_counts_and_split(self, rng):
        corpus = generate_synthetic(10, rng)
        assert len(corpus.trees) == 30
        assert corpus.n_slots == 3
        assert corpus.n_labels == 4
        train_part, test_part = stratified_split(corpus, 7)
        assert len(train_part.trees) == 21
        assert len(test_part.trees) == 9
        assert train_part.class_labels.count(0) == 7
        assert test_part.class_labels.count(2) == 3

    def test_labels_are_child_counts(self, rng):
        corpus = generate_synthetic(15, rng)
        for tree in corpus.trees:
            assert np.array_equal(tree.labels, tree.child_counts())
            for leaf in tree.leaves():
                assert tree.labels[leaf] == 0

    def test_type_inequalities(self, rng):
        corpus = generate_synthetic(20, rng)
        for tree, cls in zip(corpus.trees, corpus.class_labels):
            non_root = tree.position[1:]
            left = int((non_root == 0).sum())
            right = int((non_root == 2).sum())
            if cls == 0:
                assert left > right
            elif cls == 2:
                assert right > left
            else:
                assert abs(left - right) <= 1

    def test_size_and_depth_bounds(self, rng):
        corpus = generate_synthetic(20, rng, depth_cap=4, min_nodes=3)
        for tree in corpus.trees:
            assert tree.n_nodes >= 3
            assert tree._heights[tree.root] <= 4

    def test_deterministic(self):
        a = generate_synthetic(5, np.random.default_rng(3))
        b = generate_synthetic(5, np.random.default_rng(3))
        for ta, tb in zip(a.trees, b.trees):
            assert ta == tb

    def test_rejects_zero_count(self, rng):
        with pytest.raises(ConfigError):
            generate_synthetic(0, rng)


class TestTrainClassifier:
    def test_empty_class_raises(self, rng):
        corpus = leaf_corpus([0, 1], classes=[0, 0])
        object.__setattr__(corpus, "n_classes", 2)
        hyper = HyperParams(n_states=1, n_slots=1, n_labels=2, iterations=1)
        with pytest.raises(ConfigError):
            train_classifier(corpus, hyper)

    def test_unlabelled_corpus_raises(self, rng):
        corpus = leaf_corpus([0, 1])
        hyper = HyperParams(n_states=1, n_slots=1, n_labels=2, iterations=1)
        with pytest.raises(ConfigError):
            train_classifier(corpus, hyper)

    def test_deterministic(self, rng):
        corpus = separable_corpus(rng, per_class=4)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=4, seed=7)
        a = train_classifier(corpus, hyper, kind="tf")
        b = train_classifier(corpus, hyper, kind="tf")
        for ma, mb in zip(a.models, b.models):
            assert np.array_equal(ma.emission, mb.emission)

    def test_sp_kind(self, rng):
        corpus = separable_corpus(rng, per_class=3)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=3, seed=0)
        bundle = train_classifier(corpus, hyper, kind="sp")
        assert bundle.kind == "sp"
        report = eval_classification(corpus, bundle)
        assert 0.0 <= report.accuracy <= 100.0


class TestReportSerialisation:
    def test_text_and_csv_shapes(self, rng):
        corpus = separable_corpus(rng, per_class=3)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=3, seed=0)
        bundle = train_classifier(corpus, hyper, kind="tf")
        report = eval_classification(corpus, bundle)
        text = report.to_text()
        assert "accuracy:" in text and "entropy:" in text
        csv_text = report.confusion_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 1 + report.confusion.shape[0]


@pytest.mark.parametrize("jobs, n_items, pools", [
    (64, 3, [3]), (2, 5, [2]), (64, 1, []), (1, 4, []), (8, 0, []),
])
def test_map_jobs_starts_at_most_one_worker_per_item(monkeypatch, jobs, n_items, pools):
    started = []

    class RecordingPool:
        """Records ``max_workers`` and maps inline; starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(tasks, "ProcessPoolExecutor", RecordingPool)
    items = list(range(n_items))
    assert tasks.map_jobs(operator.neg, items, jobs) == [-i for i in items]
    assert started == pools


class TestHeldPack:
    """A corpus packs itself once, on first use; training reads that pack
    and inference folds it, once per key, on its first read with that
    key. Bare trees never fold."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Counts of ``PackedCorpus`` constructions and computed folds."""
        made = {"packs": 0, "folds": 0}
        init, distinct = PackedCorpus.__init__, PackedCorpus._distinct

        def counted_init(self, *args):
            made["packs"] += 1
            init(self, *args)

        def counted_distinct(self, labelled):
            made["folds"] += 1
            return distinct(self, labelled)

        monkeypatch.setattr(PackedCorpus, "__init__", counted_init)
        monkeypatch.setattr(PackedCorpus, "_distinct", counted_distinct)
        return made

    @staticmethod
    def corpus():
        return generate_synthetic(4, np.random.default_rng(3))

    def test_built_once_on_first_use(self, made):
        corpus = self.corpus()
        parsed = parse_corpus(format_corpus(corpus))
        stratified_split(parsed, 2)
        corpus.subset([0, 2])
        assert made["packs"] == 0
        assert corpus.pack is corpus.pack
        assert made["packs"] == 1

    def test_training_packs_and_never_folds(self, made):
        corpus = self.corpus()
        hyper = HyperParams(n_states=3, n_slots=3, n_labels=4, iterations=2)
        for kind in ("tf", "sp"):
            tasks.train_model(corpus, hyper, kind)
        assert made == {"packs": 1, "folds": 0}

    def test_evaluation_packs_once_and_folds_on_the_first_read(self, made, rng):
        corpus = self.corpus()
        params = random_tf_params(rng, 3, 3, 4)
        first = eval_labelling(corpus, params)
        assert made == {"packs": 1, "folds": 1}
        for _ in range(2):
            assert eval_labelling(corpus, params).to_json() == first.to_json()
            assert made == {"packs": 1, "folds": 1}
        # Three class passes: the first folds the labelled key, the others reuse it.
        bundle = ClassifierBundle(models=tuple(random_tf_params(rng, 3, 3, 4)
                                               for _ in range(3)), kind="tf", hyper=None)
        first = eval_classification(corpus, bundle)
        assert made == {"packs": 1, "folds": 2}
        assert eval_classification(corpus, bundle).to_json() == first.to_json()
        assert made == {"packs": 1, "folds": 2}

    def test_one_tree_never_folds(self, made, rng):
        corpus = self.corpus()
        params = random_tf_params(rng, 3, 3, 4)
        bundle = ClassifierBundle(models=(params, random_tf_params(rng, 3, 3, 4)),
                                  kind="tf", hyper=None)
        for tree in corpus.trees:
            node_label_marginals(tree, params)
            classify(tree, bundle)
        assert made["folds"] == 0

    def test_unpickled_corpus_has_no_pack(self):
        corpus = self.corpus()
        corpus.pack.fold(labelled=False)
        clone = pickle.loads(pickle.dumps(corpus))
        assert "pack" in vars(corpus) and "pack" not in vars(clone)
        assert clone == corpus
        assert np.array_equal(clone.pack.children, corpus.pack.children)

    def test_cached_arrays_are_read_only(self):
        pack = self.corpus().pack
        for labelled in (False, True):
            unique, folded = pack.fold(labelled)
        tables = [unique, pack.fold(labelled=False)[0]]
        for held in (pack, folded, pack.fold(labelled=False)[1]):
            tables += [held.offsets, held.tree, held.children, held.labels, held.position,
                       held.leaf_mask, held.order, held.internal, *held.levels]
        for table in tables:
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            pack.labels[0] = 1


@pytest.mark.parametrize("kind", ["tf", "sp"])
def test_chain_path_memory_is_linear(kind):
    # Parse, two sweeps, label marginals and text output of one 4,000-node
    # chain: a per-node cost near 0.7 KB; a quadratic term would pass 1.5 KB.
    n = 4000
    text = "L=1 M=2\n" + "(0 " * (n - 1) + "(1)" + ")" * (n - 1) + "\n"
    hyper = HyperParams(n_states=3, n_slots=1, n_labels=2, iterations=2)
    tracemalloc.start()
    try:
        corpus = parse_corpus(text)
        params = tasks.train_model(corpus, hyper, kind)
        labels = np.argmax(node_label_marginals(corpus.pack, params), axis=1)
        again = format_corpus(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500 * n
    assert again == text and len(labels) == n
