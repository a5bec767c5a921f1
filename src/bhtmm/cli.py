"""Command-line interface.

Commands: ``generate`` (synthetic benchmark corpora), ``train``
(checkpoints plus per-sweep logs), ``eval`` (metric reports, optionally
aggregated over several seeds), ``classify`` and ``label`` (apply saved
models to new data). Every run writes a metadata record sufficient to
reproduce it. Exit codes: 0 success, 2 usage, 3 I/O, 4 validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BhtmmError, ConfigError, ParseError
from .gibbs import check_compatible
from .model import HyperParams, load_checkpoint, save_checkpoint, write_text
from .tasks import (
    ClassifierBundle,
    SYNTHETIC_OCCUPATION,
    check_classes,
    class_count,
    class_posterior,
    class_scores,
    derive_seed,
    eval_classification,
    eval_labelling,
    generate_synthetic,
    map_jobs,
    stratified_split,
    train_classifier,
    train_model,
)
from .inference import node_label_marginals
from .trees import LabelledTree, format_corpus, parse_corpus

EXIT_IO = 3
EXIT_VALIDATION = 4


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _prob_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    probs = tuple(float(p) for p in parts)
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise argparse.ArgumentTypeError("probabilities must lie in [0, 1]")
    return probs


def _write_run_record(out_dir, command, args, extra=None):
    record = {
        "command": command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
        },
        "version": __version__,
    }
    if extra:
        record.update(extra)
    write_text(out_dir / "run.json", json.dumps(record, sort_keys=True, indent=2) + "\n")


def _load_corpus(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_corpus(text)


def _add_hyper_flags(parser):
    parser.add_argument("--states", type=_positive_int, default=10,
                        help="hidden state count (default 10)")
    parser.add_argument("--iterations", type=int, default=100,
                        help="training sweeps (default 100)")
    parser.add_argument("--size-decay", type=float, default=2.0,
                        help="cluster-count prior decay (default 2)")
    parser.add_argument("--min-active", type=int, default=1,
                        help="minimum slots with more than one cluster")
    parser.add_argument("--max-active", type=int, default=None,
                        help="maximum slots with more than one cluster "
                             "(default: 5 for classify, 3 for label, capped at the slot count)")
    parser.add_argument("--core-conc", type=float, default=None,
                        help="core Dirichlet concentration (default: states)")
    parser.add_argument("--base-conc", type=float, default=None,
                        help="base-measure concentration (default: states)")
    parser.add_argument("--leaf-conc", type=float, default=1.0,
                        help="leaf-prior concentration (default 1)")
    parser.add_argument("--emit-conc", type=float, default=1.0,
                        help="emission concentration (default 1)")
    parser.add_argument("--init-temp", type=float, default=10.0,
                        help="starting annealing temperature (default 10)")
    parser.add_argument("--anneal-iters", type=int, default=None,
                        help="sweep at which the temperature reaches 1 "
                             "(default: half the iterations)")
    parser.add_argument("--latent-ratio", choices=("cross", "plain"), default="cross",
                        help="latent acceptance ratio variant (default cross)")
    parser.add_argument("--seed", type=_non_negative_int, default=0, help="base RNG seed")


def _hyper_from_args(args, corpus, task):
    if args.max_active is not None:
        max_active = args.max_active
    else:
        max_active = min(corpus.n_slots, 5 if task == "classify" else 3)
    return HyperParams(
        n_states=args.states,
        n_slots=corpus.n_slots,
        n_labels=corpus.n_labels,
        size_decay=args.size_decay,
        min_active=args.min_active,
        max_active=max_active,
        core_conc=args.core_conc,
        base_conc=args.base_conc,
        leaf_conc=args.leaf_conc,
        emit_conc=args.emit_conc,
        init_temp=args.init_temp,
        anneal_iters=args.anneal_iters,
        iterations=args.iterations,
        seed=args.seed,
        latent_ratio=args.latent_ratio,
    )


def _cmd_generate(args):
    if args.train_per_type >= args.count_per_type:
        raise ConfigError("train-per-type must leave trees for the test split")
    occupation = {
        "left": args.left_probs,
        "symmetric": args.symmetric_probs,
        "right": args.right_probs,
    }
    rng = np.random.default_rng(args.seed)
    corpus = generate_synthetic(
        args.count_per_type,
        rng,
        occupation=occupation,
        depth_cap=args.depth_cap,
        min_nodes=args.min_nodes,
    )
    train_part, test_part = stratified_split(corpus, args.train_per_type)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "train.trees", format_corpus(train_part))
    write_text(out / "test.trees", format_corpus(test_part))
    _write_run_record(
        out,
        "generate",
        args,
        extra={
            "occupation": occupation,
            "train_trees": len(train_part.trees),
            "test_trees": len(test_part.trees),
        },
    )
    print(f"wrote {len(train_part.trees)} training and "
          f"{len(test_part.trees)} test trees to {out}")
    return 0


def _train_models(corpus, hyper, model_kind, task, out, jobs):
    """Train and checkpoint one model (label) or one per class (classify);
    ``out`` is created once the training data has passed validation."""
    if task == "classify":
        bundle = train_classifier(corpus, hyper, kind=model_kind, jobs=jobs, log_dir=out)
        models = [
            (out / f"class_{c}.ckpt", hyper.with_seed(derive_seed(hyper.seed, c)), params)
            for c, params in enumerate(bundle.models)
        ]
    else:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "train.log", "w", encoding="utf-8") as log:
            models = [(out / "model.ckpt", hyper, train_model(corpus, hyper, model_kind, log=log))]
    for path, model_hyper, params in models:
        save_checkpoint(path, model_kind, model_hyper, params)
    return [path for path, _, _ in models]


def _cmd_train(args):
    corpus = _load_corpus(args.corpus)
    if not corpus.trees:
        raise ConfigError("training needs at least one tree")
    out = Path(args.out)
    hyper = _hyper_from_args(args, corpus, args.task)
    written = _train_models(corpus, hyper, args.model, args.task, out, args.jobs)
    _write_run_record(out, "train", args, extra={"checkpoints": [p.name for p in written]})
    print(f"wrote {len(written)} checkpoint(s) to {out}")
    return 0


def _load_bundle(directory):
    directory = Path(directory)
    names = {path.name for path in directory.glob("class_*.ckpt")}
    if not names:
        raise ConfigError(f"no class_*.ckpt checkpoints in {directory}")
    kinds = set()
    models = []
    hyper = None
    for c in range(len(names)):
        name = f"class_{c}.ckpt"
        if name not in names:
            raise ConfigError(f"class checkpoints must be contiguous; missing {name}")
        kind, hyper, params = load_checkpoint(directory / name)
        kinds.add(kind)
        models.append(params)
    if len(kinds) != 1:
        raise ConfigError("mixed model kinds in one classifier bundle")
    return ClassifierBundle(models=tuple(models), kind=kinds.pop(), hyper=hyper)


def _write_report(out, report):
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "report.json", report.to_json())
    write_text(out / "report.txt", report.to_text())
    write_text(out / "confusion.csv", report.confusion_csv())


def _single_eval(args, test_corpus, out):
    # Reports reference checkpoints by name only so that identical inputs
    # give bit-identical reports; full paths live in run.json.
    if args.task == "classify":
        if not args.checkpoints:
            raise ConfigError("eval --task classify needs --checkpoints or --runs")
        bundle = _load_bundle(args.checkpoints)
        check_compatible(test_corpus, bundle.models[0])
        report = eval_classification(
            test_corpus,
            bundle,
            metadata={"checkpoints": Path(args.checkpoints).name, "kind": bundle.kind},
        )
    else:
        if not args.checkpoint:
            raise ConfigError("eval --task label needs --checkpoint or --runs")
        kind, _, params = load_checkpoint(args.checkpoint)
        check_compatible(test_corpus, params)
        report = eval_labelling(
            test_corpus,
            params,
            metadata={"checkpoint": Path(args.checkpoint).name, "kind": kind},
        )
    _write_report(out, report)
    return report


def _one_protocol_run(payload):
    """Train on the training corpus with a derived seed, then evaluate."""
    train_corpus, test_corpus, hyper, model_kind, task = payload
    if task == "classify":
        bundle = train_classifier(train_corpus, hyper, kind=model_kind)
        return eval_classification(test_corpus, bundle)
    return eval_labelling(test_corpus, train_model(train_corpus, hyper, model_kind))


def _aggregate_reports(reports, args):
    def summarise(values):
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    multi = len(reports) > 1
    acc = summarise([r.accuracy for r in reports])
    ent = summarise([r.entropy for r in reports])
    class_rows = [
        (
            row["class"],
            summarise([r.per_class[idx]["accuracy"] for r in reports]),
            summarise([r.per_class[idx]["entropy"] for r in reports]),
        )
        for idx, row in enumerate(reports[0].per_class)
    ]

    def block(i):  # 0: means, 1: standard deviations
        return {
            "accuracy": acc[i],
            "entropy": ent[i],
            "per_class": [
                {"class": cls, "accuracy": a[i], "entropy": e[i]} for cls, a, e in class_rows
            ],
        }

    def fmt(pair):
        return f"{pair[0]:.2f} ({pair[1]:.2f})" if multi else f"{pair[0]:.2f}"

    doc = {
        "task": args.task,
        "runs": len(reports),
        "model": args.model,
        "seed": args.seed,
        "per_run": [r.to_dict() for r in reports],
        "mean": block(0),
    }
    if multi:
        doc["std"] = block(1)
    lines = [f"task: {args.task}", f"model: {args.model}", f"runs: {len(reports)}",
             f"accuracy: {fmt(acc)}", f"entropy: {fmt(ent)}"]
    lines += [f"class {cls}: accuracy {fmt(a)} entropy {fmt(e)}" for cls, a, e in class_rows]
    return doc, "\n".join(lines) + "\n"


def _cmd_eval(args):
    test_corpus = _load_corpus(args.test)
    out = Path(args.out)
    if args.runs is None:
        report = _single_eval(args, test_corpus, out)
        _write_run_record(out, "eval", args)
        print(f"accuracy {report.accuracy:.2f}  entropy {report.entropy:.2f}")
        return 0
    if not args.train_corpus:
        raise ConfigError("--runs needs --train-corpus to retrain per seed")
    train_corpus = _load_corpus(args.train_corpus)
    hyper = _hyper_from_args(args, train_corpus, args.task)
    check_compatible(test_corpus, hyper)
    if not test_corpus.trees:
        raise ConfigError("evaluation needs at least one tree")
    if args.task == "classify":
        check_classes(test_corpus, class_count(train_corpus))
    payloads = [
        (
            train_corpus,
            test_corpus,
            hyper.with_seed(derive_seed(args.seed, run)),
            args.model,
            args.task,
        )
        for run in range(args.runs)
    ]
    out.mkdir(parents=True, exist_ok=True)
    reports = map_jobs(_one_protocol_run, payloads, args.jobs)
    doc, text = _aggregate_reports(reports, args)
    write_text(out / "report.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    write_text(out / "report.txt", text)
    _write_run_record(out, "eval", args)
    print(text, end="")
    return 0


def _cmd_classify(args):
    corpus = _load_corpus(args.corpus)
    bundle = _load_bundle(args.checkpoints)
    check_compatible(corpus, bundle.models[0])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores = class_scores(corpus.pack, bundle)
    lines = ["tree\tpredicted\tposterior"]
    for i, (predicted, posterior) in enumerate(
        zip(np.argmax(scores, axis=1), class_posterior(scores))
    ):
        post = ",".join(f"{p:.6g}" for p in posterior)
        lines.append(f"{i}\t{predicted}\t{post}")
    write_text(out / "predictions.tsv", "\n".join(lines) + "\n")
    _write_run_record(out, "classify", args)
    print(f"wrote predictions for {len(corpus.trees)} trees to {out}")
    return 0


def _cmd_label(args):
    corpus = _load_corpus(args.corpus)
    _, _, params = load_checkpoint(args.checkpoint)
    check_compatible(corpus, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pack = corpus.pack
    labels = np.argmax(node_label_marginals(pack, params), axis=1)
    relabelled = tuple(
        LabelledTree(labels[a:b], tree.parent, tree.position, tree.children, tree.n_slots)
        for tree, a, b in zip(corpus.trees, pack.offsets[:-1], pack.offsets[1:])
    )
    predicted = dataclasses.replace(corpus, trees=relabelled)
    write_text(out / "predictions.trees", format_corpus(predicted))
    _write_run_record(out, "label", args)
    print(f"wrote predicted labels for {len(corpus.trees)} trees to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bhtmm",
        description="Bottom-up hidden tree Markov models: train, evaluate, "
        "and generate benchmark corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the synthetic labelling corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count-per-type", type=_positive_int, default=260,
                   help="trees per structural family (default 260)")
    p.add_argument("--train-per-type", type=_positive_int, default=200,
                   help="training trees per family; the rest test (default 200)")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="generator seed (default 0)")
    p.add_argument("--depth-cap", type=_positive_int, default=6,
                   help="maximum tree depth (default 6)")
    p.add_argument("--min-nodes", type=_positive_int, default=3,
                   help="redraw trees smaller than this (default 3)")
    p.add_argument("--left-probs", type=_prob_triple,
                   default=SYNTHETIC_OCCUPATION["left"],
                   help="slot occupation probabilities, left family (default 0.8,0.5,0.2)")
    p.add_argument("--symmetric-probs", type=_prob_triple,
                   default=SYNTHETIC_OCCUPATION["symmetric"],
                   help="slot occupation probabilities, symmetric family (default 0.5,0.5,0.5)")
    p.add_argument("--right-probs", type=_prob_triple,
                   default=SYNTHETIC_OCCUPATION["right"],
                   help="slot occupation probabilities, right family (default 0.2,0.5,0.8)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train checkpoints from a corpus")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", choices=("tf", "sp"), default="tf",
                   help="tensor-factorised or switching-parent (default tf)")
    p.add_argument("--task", choices=("classify", "label"), required=True,
                   help="one model per class, or one labelling model")
    p.add_argument("--jobs", type=_positive_int, default=os.environ.get("BHTMM_JOBS", "1"),
                   help="parallel per-class training runs (default $BHTMM_JOBS or 1)")
    _add_hyper_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints or run the multi-seed protocol")
    p.add_argument("--task", choices=("classify", "label"), required=True,
                   help="metric family to compute")
    p.add_argument("--test", required=True, help="test corpus file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", help="single checkpoint (label task)")
    p.add_argument("--checkpoints", help="directory of class_*.ckpt (classify task)")
    p.add_argument("--runs", type=_positive_int, default=None,
                   help="retrain and evaluate this many derived seeds, reporting mean/std")
    p.add_argument("--train-corpus", help="training corpus, required with --runs")
    p.add_argument("--model", choices=("tf", "sp"), default="tf",
                   help="model kind for --runs retraining (default tf)")
    p.add_argument("--jobs", type=_positive_int, default=os.environ.get("BHTMM_JOBS", "1"),
                   help="parallel protocol runs (default $BHTMM_JOBS or 1)")
    _add_hyper_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="predict classes with saved checkpoints")
    p.add_argument("--checkpoints", required=True,
                   help="directory holding class_*.ckpt files")
    p.add_argument("--corpus", required=True, help="corpus to classify")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("label", help="predict node labels with a saved checkpoint")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--corpus", required=True,
                   help="corpus whose structures get fresh labels")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_label)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BhtmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
