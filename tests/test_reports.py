"""Evaluation reports against a per-node reference, and ``train_model``.

The reference builds every report entry one item at a time from
``argmax`` and ``entropy_pct``, the way the metrics are defined.
"""

import numpy as np
import pytest

from bhtmm.errors import ConfigError
from bhtmm.gibbs import train
from bhtmm.model import HyperParams
from bhtmm.sp import sp_node_label_marginals, sp_train
from bhtmm.inference import node_label_marginals
from bhtmm.tasks import (
    ClassifierBundle,
    classify,
    entropy_pct,
    eval_classification,
    eval_labelling,
    train_model,
)
from bhtmm.trees import TreeCorpus

from oracles import random_sp_params, random_structure, random_tf_params, separable_corpus

TOL = 1e-12
N_STATES, N_SLOTS, N_LABELS, N_CLASSES = 3, 2, 4, 3


def random_model(kind, rng):
    if kind == "tf":
        return random_tf_params(rng, N_STATES, N_SLOTS, N_LABELS)
    return random_sp_params(rng, N_STATES, N_SLOTS, N_LABELS)


def random_corpus(rng, n_trees=12):
    trees = tuple(random_structure(rng, N_SLOTS, 9, N_LABELS) for _ in range(n_trees))
    classes = tuple(int(c) for c in rng.integers(N_CLASSES, size=n_trees))
    return TreeCorpus(
        trees=trees, n_slots=N_SLOTS, n_labels=N_LABELS,
        class_labels=classes, n_classes=N_CLASSES,
    )


def reference(items, n_classes):
    """Report fields from ``(truth, distribution, prediction)`` items,
    one at a time."""
    count = np.zeros(n_classes, dtype=np.int64)
    correct = np.zeros(n_classes, dtype=np.int64)
    entropy_sum = np.zeros(n_classes)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for truth, dist, predicted in items:
        count[truth] += 1
        correct[truth] += int(predicted == truth)
        entropy_sum[truth] += entropy_pct(dist)
        confusion[truth, predicted] += 1
    total = int(count.sum())
    rows = [
        (d, int(count[d]),
         100.0 * correct[d] / count[d] if count[d] else 0.0,
         entropy_sum[d] / count[d] if count[d] else 0.0)
        for d in range(n_classes)
    ]
    return 100.0 * correct.sum() / total, entropy_sum.sum() / total, confusion, rows, total


def assert_matches(report, expected):
    accuracy, entropy, confusion, rows, total = expected
    assert report.n_items == total
    assert abs(report.accuracy - accuracy) <= TOL
    assert abs(report.entropy - entropy) <= TOL
    assert np.array_equal(report.confusion, confusion)
    assert len(report.per_class) == len(rows)
    for row, (cls, count, acc, ent) in zip(report.per_class, rows):
        assert row["class"] == cls
        assert row["count"] == count
        assert abs(row["accuracy"] - acc) <= TOL
        assert abs(row["entropy"] - ent) <= TOL


@pytest.mark.parametrize("kind", ["tf", "sp"])
@pytest.mark.parametrize("seed", range(4))
def test_eval_labelling_matches_per_node_reference(kind, seed):
    rng = np.random.default_rng(seed)
    model = random_model(kind, rng)
    corpus = random_corpus(rng)
    marginal_fn = node_label_marginals if kind == "tf" else sp_node_label_marginals
    items = []
    for tree in corpus.trees:
        marginals = marginal_fn(tree, model)
        for u in range(tree.n_nodes):
            items.append((int(tree.labels[u]), marginals[u], int(np.argmax(marginals[u]))))
    assert_matches(eval_labelling(corpus, model), reference(items, N_LABELS))


@pytest.mark.parametrize("kind", ["tf", "sp"])
@pytest.mark.parametrize("seed", range(4))
def test_eval_classification_matches_per_tree_reference(kind, seed):
    rng = np.random.default_rng(100 + seed)
    bundle = ClassifierBundle(
        models=tuple(random_model(kind, rng) for _ in range(N_CLASSES)),
        kind=kind,
        hyper=None,
    )
    corpus = random_corpus(rng)
    items = []
    for tree, truth in zip(corpus.trees, corpus.class_labels):
        predicted, posterior = classify(tree, bundle)
        items.append((truth, posterior, predicted))
    assert_matches(eval_classification(corpus, bundle), reference(items, N_CLASSES))


def test_train_model_matches_direct_training(rng):
    corpus = separable_corpus(rng, per_class=3)
    hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=4, seed=5)
    tf = train_model(corpus, hyper, "tf")
    direct = train(corpus, hyper).params
    for name in ("leaf_prior", "emission", "base_measure"):
        assert np.array_equal(getattr(tf, name), getattr(direct, name))
    assert tf.clustering == direct.clustering
    assert np.array_equal(tf.core, direct.core, equal_nan=True)
    sp = train_model(corpus, hyper, "sp")
    direct_sp = sp_train(corpus, hyper, np.random.default_rng(hyper.seed))
    for name in ("leaf_prior", "emission", "switch_weights", "child_transitions"):
        assert np.array_equal(getattr(sp, name), getattr(direct_sp, name))


def test_train_model_rejects_unknown_kind(rng):
    corpus = separable_corpus(rng, per_class=2)
    hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=1)
    with pytest.raises(ConfigError):
        train_model(corpus, hyper, "hmm")


def test_empty_corpus_is_rejected(rng):
    empty = TreeCorpus(trees=(), n_slots=N_SLOTS, n_labels=N_LABELS, class_labels=(),
                       n_classes=N_CLASSES)
    model = random_model("tf", rng)
    with pytest.raises(ConfigError):
        eval_labelling(empty, model)
    with pytest.raises(ConfigError):
        eval_classification(empty, ClassifierBundle(models=(model,), kind="tf", hyper=None))
