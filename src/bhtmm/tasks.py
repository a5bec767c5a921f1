"""Experimental protocols: per-class classification and node labelling.

Entropy convention used throughout: natural-log Shannon entropy scaled
by 100, so a uniform distribution over K outcomes scores ``ln(K) * 100``
(about 289 for K = 18, about 139 for K = 4). Accuracies are percentages.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .gibbs import train
# ``marginal_log_likelihood`` and the sp inference names stay for the
# benchmark's layer table; scoring and labelling use the generic passes.
from .inference import (  # noqa: F401
    _packed, corpus_log_likelihoods, marginal_log_likelihood, node_label_marginals,
)
from .sp import sp_marginal_log_likelihood, sp_node_label_marginals, sp_train  # noqa: F401
from .trees import LabelledTree, TreeBuilder, TreeCorpus


def entropy_pct(dist):
    """Natural-log Shannon entropy times 100 over the last axis: a float
    for one distribution, an array for a stack of them."""
    p = np.asarray(dist, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=-1) * 100.0
    return float(h) if p.ndim == 1 else h


def derive_seed(seed, index):
    """Stable per-class / per-run seed derived from a base seed."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


@dataclass
class ClassifierBundle:
    """One trained model per class, sharing a single configuration."""

    models: tuple
    kind: str
    hyper: object

    def __post_init__(self):
        if not self.models:
            raise ConfigError("a classifier needs at least one class model")
        shapes = {
            (m.n_states, m.n_slots, m.n_labels) for m in self.models
        }
        if len(shapes) != 1:
            raise ConfigError("all class models must share the same sizes")

    @property
    def n_classes(self):
        return len(self.models)


@dataclass
class EvalReport:
    """Metrics of one evaluation run plus enough metadata to rerun it."""

    task: str
    accuracy: float
    entropy: float
    per_class: list
    confusion: np.ndarray
    n_items: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {**asdict(self), "confusion": self.confusion.tolist()}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = [
            f"task: {self.task}",
            f"items: {self.n_items}",
            f"accuracy: {self.accuracy:.2f}",
            f"entropy: {self.entropy:.2f}",
            "",
            f"{'class':>8} {'count':>8} {'accuracy':>10} {'entropy':>10}",
        ]
        for row in self.per_class:
            lines.append(
                f"{row['class']:>8} {row['count']:>8} "
                f"{row['accuracy']:>10.2f} {row['entropy']:>10.2f}"
            )
        return "\n".join(lines) + "\n"

    def confusion_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        size = self.confusion.shape[1]
        writer.writerow(["true\\predicted"] + list(range(size)))
        for i, row in enumerate(self.confusion):
            writer.writerow([i] + [int(v) for v in row])
        return buf.getvalue()


def train_model(corpus, hyper, kind, log=None):
    """Train one model of ``kind`` (``"tf"`` or ``"sp"``), seeded by
    ``hyper.seed``; returns its parameters."""
    if kind == "tf":
        return train(corpus, hyper, log=log).params
    if kind == "sp":
        return sp_train(corpus, hyper, np.random.default_rng(hyper.seed), log=log)
    raise ConfigError(f"unknown model kind {kind!r}")


def map_jobs(fn, items, jobs):
    """``[fn(item) for item in items]``, fanned out over
    ``min(jobs, len(items))`` processes when that exceeds one; results
    keep the order of ``items``."""
    workers = min(jobs, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _train_single(args):
    corpus, hyper, kind, log_path = args
    if not log_path:
        return train_model(corpus, hyper, kind)
    with open(log_path, "w", encoding="utf-8") as log:
        return train_model(corpus, hyper, kind, log=log)


def class_count(corpus):
    """Classes a classifier trained on ``corpus`` has: the declared
    count, else the largest class id plus one."""
    if corpus.class_labels is None:
        raise ConfigError("classification needs a corpus with class labels")
    return corpus.n_classes or max(corpus.class_labels, default=-1) + 1


def check_classes(corpus, n_classes):
    """Raise ``ConfigError`` unless ``corpus``'s class ids are below ``n_classes``."""
    if corpus.class_labels is None:
        raise ConfigError("evaluation needs a corpus with class labels")
    if max(corpus.class_labels, default=-1) >= n_classes:
        raise ConfigError(f"test class {max(corpus.class_labels)} has no model: "
                          f"the classifier has {n_classes} classes")


def train_classifier(corpus, hyper, kind="tf", jobs=1, log_dir=None):
    """Train one model per class on that class's training trees.

    Class ``c`` trains with a seed derived from ``hyper.seed`` and ``c``
    so results do not depend on scheduling; ``jobs > 1`` fans the
    independent runs out over processes. Class ``c`` logs to
    ``log_dir/train_class_{c}.log``; ``log_dir`` is created once every
    class has passed validation.
    """
    work = []
    for c in range(class_count(corpus)):
        indices = [i for i, lab in enumerate(corpus.class_labels) if lab == c]
        if not indices:
            raise ConfigError(f"class {c} has no training trees")
        part = corpus.subset(indices)
        log_path = None if log_dir is None else str(log_dir / f"train_class_{c}.log")
        work.append(
            (part, hyper.with_seed(derive_seed(hyper.seed, c)), kind, log_path)
        )
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)
    models = map_jobs(_train_single, work, jobs)
    return ClassifierBundle(models=tuple(models), kind=kind, hyper=hyper)


def class_posterior(scores):
    """Class distribution from per-class log likelihoods, uniform prior.

    Invariant under adding any constant to all scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def classify(tree, bundle):
    """Most likely class and the class posterior under a uniform prior.

    Ties resolve to the lowest class index.
    """
    scores = class_scores([tree], bundle)[0]
    return int(np.argmax(scores)), class_posterior(scores)


def class_scores(trees, bundle):
    """Per-class log likelihoods, shape ``(trees, classes)``, one upward
    pass per class model over one pack: ``trees`` itself when it is a
    ``PackedCorpus`` (``corpus.pack`` runs folded), else the trees
    packed for this call."""
    pack = _packed(trees, bundle.models[0].n_slots)
    return np.column_stack([corpus_log_likelihoods(pack, model) for model in bundle.models])


def _report(task, truth, predicted, dists, n_classes, metadata):
    """Accuracy, mean entropy of ``dists``, confusion and per-class rows
    of ``predicted`` against ``truth``, one entry per item."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    entropies = entropy_pct(dists)
    confusion = np.bincount(truth * n_classes + predicted,
                            minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    per_class = []
    for c, count in enumerate(confusion.sum(axis=1).tolist()):
        per_class.append(
            {
                "class": c,
                "count": count,
                "accuracy": float(100.0 * (confusion[c, c] / count)) if count else 0.0,
                "entropy": float(entropies[truth == c].mean()) if count else 0.0,
            }
        )
    return EvalReport(
        task=task,
        accuracy=float(100.0 * (predicted == truth).mean()),
        entropy=float(entropies.mean()),
        per_class=per_class,
        confusion=confusion,
        n_items=len(truth),
        metadata=dict(metadata or {}),
    )


def eval_classification(corpus, bundle, metadata=None):
    """Accuracy, mean class-posterior entropy and confusion over a test set."""
    check_classes(corpus, bundle.n_classes)
    if not corpus.trees:
        raise ConfigError("evaluation needs at least one tree")
    scores = class_scores(corpus.pack, bundle)
    return _report(
        "classify",
        corpus.class_labels,
        np.argmax(scores, axis=1),
        class_posterior(scores),
        bundle.n_classes,
        metadata,
    )


def eval_labelling(corpus, model, metadata=None):
    """Node-label prediction metrics from bare structures.

    The exact label marginal of every node is computed with the observed
    labels removed, in one pass over the corpus's distinct subtrees
    (``corpus.pack``, folded); the prediction is the argmax and the
    entropy is taken from the same marginal. Per-class rows break the
    metrics down by true label.
    """
    if not corpus.trees:
        raise ConfigError("evaluation needs at least one tree")
    pack = corpus.pack
    marginals = node_label_marginals(pack, model)
    return _report(
        "label",
        pack.labels,
        np.argmax(marginals, axis=1),
        marginals,
        corpus.n_labels,
        metadata,
    )


SYNTHETIC_OCCUPATION = {
    "left": (0.8, 0.5, 0.2),
    "symmetric": (0.5, 0.5, 0.5),
    "right": (0.2, 0.5, 0.8),
}
SYNTHETIC_TYPES = tuple(SYNTHETIC_OCCUPATION)
# Draws per tree before a family counts as unsatisfiable (defaults need < 30).
MAX_REDRAWS = 1000


def _grow_tree(probs, depth_cap, rng):
    builder = TreeBuilder(3)
    stack = [(builder.add(0), 0)]
    while stack:
        node, depth = stack.pop()
        if depth >= depth_cap:
            continue
        for slot, p in enumerate(probs):
            if rng.random() < p:
                stack.append((builder.add(0, parent=node, position=slot), depth + 1))
    return builder.build()


def _type_ok(tree, kind):
    non_root = tree.position[1:]
    left = int((non_root == 0).sum())
    right = int((non_root == 2).sum())
    if kind == "left":
        return left > right
    if kind == "right":
        return right > left
    return abs(left - right) <= 1


def generate_synthetic(count_per_type, rng, occupation=None, depth_cap=6, min_nodes=3):
    """Ternary-tree labelling benchmark corpus.

    Three structural families differ only in per-slot occupation
    probabilities; trees smaller than ``min_nodes`` or failing their
    family's left/right node-count rule are redrawn (``ConfigError``
    after ``MAX_REDRAWS``). Every node's label is its child count
    (0..3), so labels are a pure function of structure. Class labels
    record the family index.
    """
    if count_per_type < 1:
        raise ConfigError("count_per_type must be at least 1")
    occupation = dict(occupation or SYNTHETIC_OCCUPATION)
    trees = []
    classes = []
    for type_idx, kind in enumerate(SYNTHETIC_TYPES):
        probs = occupation[kind]
        for _ in range(count_per_type):
            for _ in range(MAX_REDRAWS):
                tree = _grow_tree(probs, depth_cap, rng)
                if tree.n_nodes >= min_nodes and _type_ok(tree, kind):
                    break
            else:
                raise ConfigError(f"{kind} family: no valid tree in {MAX_REDRAWS} draws")
            trees.append(LabelledTree(tree.child_counts(), tree.parent, tree.position,
                                      tree.children, tree.n_slots))
            classes.append(type_idx)
    return TreeCorpus(
        trees=tuple(trees),
        n_slots=3,
        n_labels=4,
        class_labels=tuple(classes),
        n_classes=len(SYNTHETIC_TYPES),
    )


def stratified_split(corpus, train_per_class):
    """Per class, the first ``train_per_class`` trees train, the rest test."""
    if corpus.class_labels is None:
        raise ConfigError("stratified split needs class labels")
    train_idx = []
    test_idx = []
    seen = {}
    for i, c in enumerate(corpus.class_labels):
        seen[c] = seen.get(c, 0) + 1
        (train_idx if seen[c] <= train_per_class else test_idx).append(i)
    return corpus.subset(train_idx), corpus.subset(test_idx)
