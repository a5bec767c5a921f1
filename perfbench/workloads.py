"""The two workloads: inputs, one protocol run, and output checks.

A workload has a set-up (inputs, and for ``classify-wide`` a frozen
labelling model), a training step and an inference pass. One protocol
run is a training step followed by an inference pass. The program is called
through module attributes (``gibbs.train``, ``tasks.eval_labelling``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from bhtmm import gibbs, inference, model, sp, tasks, trees

import corpus as wide
import measure

ROW_TOL = 1e-9

# Sizes per scale. Protocol runs use seeds derived from the workload
# seed, as ``bhtmm eval --runs`` does; after each, inference passes
# repeat for ``repeat_s`` seconds. Runs go on while another is expected
# to fit in ``--seconds``, and number at least ``min_runs``. A single
# short tf chain on label-ternary lands anywhere from the majority-label
# accuracy (a collapsed chain) to over 80%, and five sweeps reach the
# same spread of accuracies as ten, so label-ternary runs many short
# chains: accuracies are means over them, and every timing is spread
# over the whole run.
SCALES = {
    "full": {
        "label-ternary": {"per_type": 260, "train_per_type": 200, "sweeps": 5,
                          "min_runs": 3, "repeat_s": 0.5},
        "classify-wide": {"train_nodes_per_class": 800, "test_nodes_per_class": 400,
                          "sweeps": 16, "min_runs": 3, "repeat_s": 0.0},
    },
    "tiny": {
        "label-ternary": {"per_type": 10, "train_per_type": 6, "sweeps": 3,
                          "min_runs": 2, "repeat_s": 0.05},
        "classify-wide": {"train_nodes_per_class": 80, "test_nodes_per_class": 40,
                          "sweeps": 3, "min_runs": 2, "repeat_s": 0.0},
    },
}
# label-ternary checks sp label marginals on one tree in SP_CHECK_EVERY
# per run, a different share each run.
SP_CHECK_EVERY = 4


def n_nodes(corpus):
    return sum(tree.n_nodes for tree in corpus.trees)


class Outcome:
    """Timings, qualities and check results gathered by one run."""

    def __init__(self):
        self.train = {"tf": [], "sp": []}  # (node-sweeps, seconds) per call
        self.infer = {"tf": [], "sp": []}  # (nodes, seconds) per pass
        self.protocol_s = []
        self.tree_ms = defaultdict(list)  # tree index -> tf apply latencies
        self.accuracy = {"tf": [], "sp": []}
        self.tf_k = []  # cluster counts of every trained tf model
        self.attempted = 0
        self.failures = Counter()
        self.sizes = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures[what] += 1

    def check_rows(self, rows, what):
        rows = np.asarray(rows)
        self.check(
            bool(np.all(np.isfinite(rows)))
            and bool(np.all(np.abs(rows.sum(axis=-1) - 1.0) <= ROW_TOL)),
            what,
        )

    def check_posterior(self, posterior, what):
        # A class log likelihood of -inf (or nan) shows as a zero (or nan)
        # posterior entry, so positive entries mean finite scores.
        self.check_rows(posterior, what)
        self.check(bool(np.all(posterior > 0.0)), what + " log likelihoods finite")

    def check_logs(self, paths):
        """Every per-sweep complete-data log likelihood is finite."""
        for path in paths:
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                self.check(math.isfinite(float(line.split("\t")[2])), "log likelihood finite")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _majority_share(values):
    """Accuracy, in percent, of always predicting the commonest value."""
    values = list(values)
    return 100.0 * Counter(values).most_common(1)[0][1] / len(values)


def _class_hyper(seed, size, max_active=5):
    return model.HyperParams(
        n_states=10,
        n_slots=wide.N_SLOTS,
        n_labels=wide.N_LABELS,
        max_active=max_active,
        iterations=size["sweeps"],
        seed=seed,
    )


def _train_classifiers(train, hyper, out, clock, directory):
    """Both class-model bundles, trained and saved as ``bhtmm train`` does."""
    bundles = {}
    node_sweeps = n_nodes(train) * hyper.iterations
    for kind in ("tf", "sp"):
        sub = directory / kind
        sub.mkdir(parents=True, exist_ok=True)
        bundle, secs = _timed(
            tasks.train_classifier, train, hyper, kind=kind, jobs=1, log_dir=sub
        )
        out.train[kind].append((node_sweeps, secs))
        if kind == "tf":
            out.tf_k.extend(params.clustering.k for params in bundle.models)
        for c, params in enumerate(bundle.models):
            class_hyper = hyper.with_seed(tasks.derive_seed(hyper.seed, c))
            model.save_checkpoint(sub / f"class_{c}.ckpt", kind, class_hyper, params)
        out.check_logs(sorted(sub.glob("train_class_*.log")))
        bundles[kind] = bundle
    return bundles


def _train_labeller(train, hyper, out, clock, directory):
    """One tf and one sp labelling model, with log sinks as the CLI trains."""
    node_sweeps = n_nodes(train) * hyper.iterations
    with open(directory / "tf.log", "w", encoding="utf-8") as log:
        state, secs = _timed(gibbs.train, train, hyper, log=log, on_sweep=clock.chain("tf"))
    out.train["tf"].append((node_sweeps, secs))
    out.tf_k.append(state.params.clustering.k)
    model.save_checkpoint(directory / "tf.ckpt", "tf", hyper, state.params)
    with open(directory / "sp.log", "w", encoding="utf-8") as log:
        sp_params, secs = _timed(
            sp.sp_train, train, hyper, np.random.default_rng(hyper.seed),
            log=log, on_sweep=clock.chain("sp"),
        )
    out.train["sp"].append((node_sweeps, secs))
    model.save_checkpoint(directory / "sp.ckpt", "sp", hyper, sp_params)
    out.check_logs([directory / "tf.log", directory / "sp.log"])
    return {"tf": state.params, "sp": sp_params}


class LabelTernary:
    """Criterion-5 labelling: train tf then sp, evaluate on the test split."""

    name = "label-ternary"

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size

    def setup(self, directory, out, clock):
        corpus = tasks.generate_synthetic(
            self.size["per_type"], np.random.default_rng(self.seed)
        )
        train, test = tasks.stratified_split(corpus, self.size["train_per_type"])
        self.train_part, self.test_part = train, test
        labels = np.concatenate([t.labels for t in train.trees]).tolist()
        majority = Counter(labels).most_common(1)[0][0]
        test_labels = np.concatenate([t.labels for t in test.trees])
        # Accuracy of the training split's commonest label on the test split.
        self.majority_acc = 100.0 * float(np.mean(test_labels == majority))
        out.sizes = {
            "train_trees": len(train), "train_nodes": n_nodes(train),
            "test_trees": len(test), "test_nodes": n_nodes(test),
        }

    def fingerprint(self):
        return trees.format_corpus(self.train_part) + trees.format_corpus(self.test_part)

    def train(self, run, directory, out, clock):
        hyper = model.HyperParams(
            n_states=10, n_slots=3, n_labels=4, size_decay=2.0, min_active=1,
            max_active=3, iterations=self.size["sweeps"],
            seed=tasks.derive_seed(self.seed, run),
        )
        return _train_labeller(self.train_part, hyper, out, clock, directory)

    def infer(self, models, directory, out, run=None):
        test = self.test_part
        nodes = n_nodes(test)
        for kind in ("tf", "sp"):
            report, secs = _timed(tasks.eval_labelling, test, models[kind])
            out.infer[kind].append((nodes, secs))
            if run is not None:
                out.accuracy[kind].append(report.accuracy)
                (directory / f"{kind}_report.json").write_text(report.to_json())
        if run is None:
            return
        # Label all 780 structures one tree at a time, as ``bhtmm label``;
        # sp marginals are checked on this run's share of them.
        structures = self.train_part.trees + test.trees
        for i, tree in enumerate(structures):
            marginals, secs = _timed(inference.node_label_marginals, tree, models["tf"])
            out.tree_ms[i].append(1000.0 * secs)
            out.check_rows(marginals, "tf label marginals")
            if i % SP_CHECK_EVERY == run % SP_CHECK_EVERY:
                out.check_rows(sp.sp_node_label_marginals(tree, models["sp"]),
                               "sp label marginals")


class ClassifyWide:
    """Wide-slot classification, then the frozen models applied.

    Set-up builds the corpora, writes the test split as text, and trains
    and checkpoints one tf and one sp labelling model. A protocol run
    trains and checkpoints the per-class tf then sp models. An inference
    pass scores the test split in one batch, then does what ``bhtmm
    classify`` and ``bhtmm label`` do with frozen checkpoints: parse the
    test text, load every checkpoint, classify (tf) and label (tf and sp)
    tree by tree, and format the results.
    """

    name = "classify-wide"

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size

    def setup(self, directory, out, clock):
        rng = np.random.default_rng(self.seed)
        profiles = wide.class_profiles(rng)
        self.train_part = wide.wide_corpus(self.size["train_nodes_per_class"], profiles, rng)
        self.test_part = wide.wide_corpus(self.size["test_nodes_per_class"], profiles, rng)
        self.majority_acc = _majority_share(self.test_part.class_labels)
        (directory / "test.trees").write_text(
            trees.format_corpus(self.test_part), encoding="utf-8"
        )
        # Training the labellers is set-up work: its checks count, its
        # timings do not.
        trained = Outcome()
        _train_labeller(self.train_part,
                        _class_hyper(tasks.derive_seed(self.seed, 1), self.size, 3),
                        trained, measure.SweepClock(), directory)
        out.attempted += trained.attempted
        out.failures.update(trained.failures)
        self.directory = directory
        out.sizes = {
            "train_trees": len(self.train_part), "train_nodes": n_nodes(self.train_part),
            "test_trees": len(self.test_part), "test_nodes": n_nodes(self.test_part),
        }

    def fingerprint(self):
        digest = hashlib.sha256(trees.format_corpus(self.train_part).encode())
        for path in sorted(self.directory.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode() + path.read_bytes())
        return digest.hexdigest()

    def train(self, run, directory, out, clock):
        hyper = _class_hyper(tasks.derive_seed(self.seed, run), self.size)
        bundles = _train_classifiers(self.train_part, hyper, out, clock, directory)
        return bundles, directory

    def infer(self, trained, directory, out, run=None):
        bundles, ckpt_dir = trained
        test = self.test_part
        nodes = n_nodes(test)
        reports = {}
        for kind in ("tf", "sp"):
            report, secs = _timed(tasks.eval_classification, test, bundles[kind])
            out.infer[kind].append((nodes, secs))
            out.check(math.isfinite(report.entropy), f"{kind} class scores finite")
            reports[kind] = report
            if run is not None:
                out.accuracy[kind].append(report.accuracy)
                (directory / f"{kind}_report.json").write_text(report.to_json())
        predicted = self._apply(ckpt_dir, directory, out)
        confusion = np.zeros_like(reports["tf"].confusion)
        for truth, guess in zip(test.class_labels, predicted):
            confusion[truth, guess] += 1
        out.check(np.array_equal(confusion, reports["tf"].confusion),
                  "frozen per-tree and batched tf classification agree")

    def _apply(self, ckpt_dir, directory, out):
        """Frozen checkpoints applied tree by tree; the tf predictions."""
        text = (self.directory / "test.trees").read_text(encoding="utf-8")
        unseen = trees.parse_corpus(text)
        loaded = [
            model.load_checkpoint(ckpt_dir / "tf" / f"class_{c}.ckpt")[1:]
            for c in range(wide.N_CLASSES)
        ]
        bundle = tasks.ClassifierBundle(
            models=tuple(params for _, params in loaded), kind="tf", hyper=loaded[0][0]
        )
        labellers = {
            kind: model.load_checkpoint(self.directory / f"{kind}.ckpt")[1:]
            for kind in ("tf", "sp")
        }
        label_fns = {"tf": inference.node_label_marginals, "sp": sp.sp_node_label_marginals}
        predicted = []
        lines = ["tree\tpredicted\tposterior"]
        relabelled = defaultdict(list)
        for i, tree in enumerate(unseen.trees):
            for kind in ("tf", "sp"):
                t0 = time.perf_counter()
                if kind == "tf":
                    guess, posterior = tasks.classify(tree, bundle)
                marginals = label_fns[kind](tree, labellers[kind][1])
                relabelled[kind].append(trees.LabelledTree(
                    np.argmax(marginals, axis=1), tree.parent, tree.position,
                    tree.children, tree.n_slots,
                ))
                if kind == "tf":
                    out.tree_ms[i].append(1000.0 * (time.perf_counter() - t0))
                out.check_rows(marginals, f"{kind} label marginals")
            predicted.append(guess)
            lines.append(f"{i}\t{guess}\t" + ",".join(f"{p:.6g}" for p in posterior))
            out.check_posterior(posterior, "tf class posterior")
        (directory / "tf_classes.tsv").write_text("\n".join(lines) + "\n")
        for kind in ("tf", "sp"):
            labelled = trees.TreeCorpus(
                trees=tuple(relabelled[kind]), n_slots=unseen.n_slots,
                n_labels=unseen.n_labels, class_labels=unseen.class_labels,
                n_classes=unseen.n_classes,
            )
            (directory / f"{kind}_labels.trees").write_text(
                trees.format_corpus(labelled), encoding="utf-8"
            )
        # Reads of a lazily filled core draw from the model's generator;
        # saving the used models shows whether a pass drew the same.
        for c, (hyper, params) in enumerate(loaded):
            model.save_checkpoint(directory / f"used_class_{c}.ckpt", "tf", hyper, params)
        model.save_checkpoint(directory / "used_tf.ckpt", "tf", *labellers["tf"])
        return predicted


WORKLOADS = {cls.name: cls for cls in (LabelTernary, ClassifyWide)}
