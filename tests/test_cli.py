import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bhtmm import cli
from bhtmm.cli import main
from bhtmm.model import load_checkpoint
from bhtmm.trees import format_corpus, parse_corpus

from oracles import separable_corpus

V1 = Path(__file__).parent / "data" / "v1"
GOLDEN = Path(__file__).parent / "data" / "golden"


def run(argv):
    return main(argv)


def write_separable(tmp_path, rng, per_class=4):
    corpus = separable_corpus(rng, per_class=per_class)
    path = tmp_path / "sep.trees"
    path.write_text(format_corpus(corpus), encoding="utf-8")
    return path


class TestGenerate:
    def test_writes_corpora_and_metadata(self, tmp_path):
        out = tmp_path / "data"
        code = run(
            [
                "generate",
                "--out", str(out),
                "--count-per-type", "5",
                "--train-per-type", "3",
                "--seed", "7",
            ]
        )
        assert code == 0
        train_corpus = parse_corpus((out / "train.trees").read_text())
        test_corpus = parse_corpus((out / "test.trees").read_text())
        assert len(train_corpus.trees) == 9
        assert len(test_corpus.trees) == 6
        record = json.loads((out / "run.json").read_text())
        assert record["command"] == "generate"
        assert record["config"]["seed"] == 7

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["--count-per-type", "4", "--train-per-type", "2", "--seed", "3"]
        run(["generate", "--out", str(tmp_path / "a")] + args)
        run(["generate", "--out", str(tmp_path / "b")] + args)
        for name in ("train.trees", "test.trees"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--out", str(tmp_path), "--count-per-type", "0"])
        assert err.value.code == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--out", str(tmp_path / "g"), "--seed", "-1"])
        assert err.value.code == 2
        assert not (tmp_path / "g").exists()

    def test_train_split_must_leave_test_trees(self, tmp_path):
        code = run(
            [
                "generate",
                "--out", str(tmp_path / "x"),
                "--count-per-type", "3",
                "--train-per-type", "3",
            ]
        )
        assert code == 4

    def test_unsatisfiable_family_exits_4(self, tmp_path):
        # All-zero occupation only grows single nodes, which never reach
        # min_nodes; the redraw budget must end the run, not hang it.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [
                sys.executable, "-c", "from bhtmm.cli import entry; entry()", "generate",
                "--out", str(tmp_path / "d"),
                "--count-per-type", "2",
                "--train-per-type", "1",
                "--left-probs", "0,0,0",
            ],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 4
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "left" in err[0]


class TestTrain:
    def test_missing_corpus_is_io_error(self, tmp_path):
        code = run(
            [
                "train",
                "--corpus", str(tmp_path / "nope.trees"),
                "--out", str(tmp_path / "out"),
                "--task", "label",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("model", ["tf", "sp"])
    def test_empty_training_corpus_is_validation_error(self, tmp_path, capsys, model):
        corpus_path = tmp_path / "empty.trees"
        corpus_path.write_text("L=3 M=4\n", encoding="utf-8")
        out = tmp_path / "run"
        code = run(["train", "--corpus", str(corpus_path), "--out", str(out), "--task", "label",
                    "--model", model, "--states", "2", "--iterations", "2"])
        assert code == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: training needs at least one tree"]
        assert not (out / "model.ckpt").exists()
        assert not (out / "train.log").exists()

    @pytest.mark.parametrize("header", ["L={} M=4", "L=2 M={}"])
    def test_header_size_past_bound_is_validation_error(self, tmp_path, capsys, header):
        # Past the bound, a 20-digit L would overflow in TreeBuilder.add and
        # a 20-digit M in the emission table's allocation, each a traceback.
        corpus_path = tmp_path / "huge.trees"
        corpus_path.write_text(header.format("1" * 20) + "\n(0)\n", encoding="utf-8")
        out = tmp_path / "run"
        code = run(["train", "--corpus", str(corpus_path), "--out", str(out), "--task", "label",
                    "--model", "sp", "--states", "2", "--iterations", "2"])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 1: header needs 1 <= L <= ")
        assert not (out / "train.log").exists()

    def test_label_task_writes_checkpoint_and_log(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng)
        out = tmp_path / "run"
        code = run(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(out),
                "--task", "label",
                "--model", "tf",
                "--states", "2",
                "--iterations", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert (out / "model.ckpt").exists()
        log_lines = (out / "train.log").read_text().strip().splitlines()
        assert len(log_lines) == 3
        assert (out / "run.json").exists()

    def test_classify_task_writes_per_class_checkpoints(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng)
        out = tmp_path / "cls"
        code = run(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(out),
                "--task", "classify",
                "--states", "2",
                "--iterations", "2",
            ]
        )
        assert code == 0
        assert (out / "class_0.ckpt").exists()
        assert (out / "class_1.ckpt").exists()
        assert (out / "train_class_0.log").exists()

    def test_classify_task_needs_class_labels(self, tmp_path, rng):
        from oracles import random_structure
        from bhtmm.trees import TreeCorpus

        trees = tuple(random_structure(rng, 2, 5, 2) for _ in range(3))
        path = tmp_path / "plain.trees"
        path.write_text(format_corpus(TreeCorpus(trees=trees, n_slots=2, n_labels=2)))
        code = run(
            [
                "train",
                "--corpus", str(path),
                "--out", str(tmp_path / "o"),
                "--task", "classify",
                "--iterations", "1",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("flag, value", [
        ("--size-decay", "nan"), ("--init-temp", "inf"), ("--leaf-conc", "nan"),
        ("--emit-conc", "nan"), ("--core-conc", "inf"), ("--base-conc", "nan"),
    ])
    def test_non_finite_hyper_is_validation_error(self, tmp_path, rng, capsys, flag, value):
        corpus_path = write_separable(tmp_path, rng)
        out = tmp_path / "run"
        code = run(["train", "--corpus", str(corpus_path), "--out", str(out),
                    "--task", "label", "--states", "2", "--iterations", "2", flag, value])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error: ")
        assert flag[2:].replace("-", "_") in err[0]
        assert not (out / "model.ckpt").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng)
        for command in (["train", "--corpus", str(corpus_path), "--task", "label"],
                        ["eval", "--task", "label", "--test", str(corpus_path),
                         "--train-corpus", str(corpus_path), "--runs", "1"]):
            with pytest.raises(SystemExit) as err:
                run(command + ["--out", str(tmp_path / "o"), "--states", "2",
                               "--iterations", "1", "--seed", "-3"])
            assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["abc", "0"])
    def test_malformed_jobs_env_is_usage_error(self, monkeypatch, jobs):
        from bhtmm.cli import build_parser

        monkeypatch.setenv("BHTMM_JOBS", jobs)
        parser = build_parser()
        for command in (["train", "--corpus", "c", "--out", "o", "--task", "label"],
                        ["eval", "--task", "label", "--test", "t", "--out", "o"]):
            with pytest.raises(SystemExit) as err:
                parser.parse_args(command)
            assert err.value.code == 2
        args = parser.parse_args(["label", "--checkpoint", "m", "--corpus", "c", "--out", "o"])
        assert args.command == "label"

    def test_jobs_env_sets_default(self, monkeypatch):
        from bhtmm.cli import build_parser

        monkeypatch.setenv("BHTMM_JOBS", "3")
        args = build_parser().parse_args(
            ["train", "--corpus", "c", "--out", "o", "--task", "label"])
        assert args.jobs == 3


@pytest.mark.parametrize("argv, code", [
    (["train", "--corpus", "SEP", "--task", "label", "--iterations", "-1"], 4),
    (["train", "--corpus", "SEP", "--task", "label", "--init-temp", "0.5"], 4),
    (["train", "--corpus", "SEP", "--task", "label", "--anneal-iters", "0"], 4),
    (["train", "--corpus", "SEP", "--task", "label", "--size-decay", "inf"], 4),
    (["train", "--corpus", "SEP", "--task", "classify", "--core-conc", "-1"], 4),
    (["train", "--corpus", "SEP", "--task", "classify", "--min-active", "0"], 4),
    (["train", "--corpus", "PLAIN", "--task", "classify", "--iterations", "1"], 4),
    (["generate", "--count-per-type", "3", "--train-per-type", "3"], 4),
    (["generate", "--count-per-type", "2", "--train-per-type", "1", "--left-probs", "0,0,0"], 4),
    (["eval", "--task", "label", "--test", "SEP", "--runs", "2"], 4),
    (["eval", "--task", "label", "--test", "SEP", "--checkpoint", "MISSING"], 3),
], ids=["iterations", "init-temp", "anneal-iters", "size-decay", "core-conc", "min-active",
        "no-classes", "no-test-split", "unsatisfiable", "runs-no-train", "missing-checkpoint"])
def test_rejected_run_leaves_no_out_dir(tmp_path, rng, argv, code):
    from oracles import random_structure
    from bhtmm.trees import TreeCorpus

    plain = tmp_path / "plain.trees"
    trees = tuple(random_structure(rng, 2, 5, 2) for _ in range(3))
    plain.write_text(format_corpus(TreeCorpus(trees=trees, n_slots=2, n_labels=2)))
    paths = {"SEP": str(write_separable(tmp_path, rng)), "PLAIN": str(plain),
             "MISSING": str(tmp_path / "missing.ckpt")}
    out = tmp_path / "out"
    assert run([paths.get(a, a) for a in argv] + ["--out", str(out)]) == code
    assert not out.exists()


class TestEvalAndPredict:
    @pytest.fixture()
    def trained(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng, per_class=4)
        out = tmp_path / "models"
        assert (
            run(
                [
                    "train",
                    "--corpus", str(corpus_path),
                    "--out", str(out),
                    "--task", "classify",
                    "--states", "2",
                    "--iterations", "4",
                    "--seed", "2",
                ]
            )
            == 0
        )
        return corpus_path, out

    def test_eval_single_checkpoint_dir(self, tmp_path, trained):
        corpus_path, models = trained
        out = tmp_path / "eval"
        code = run(
            [
                "eval",
                "--task", "classify",
                "--test", str(corpus_path),
                "--checkpoints", str(models),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 100.0
        assert (out / "report.txt").exists()
        assert (out / "confusion.csv").exists()

    def test_eval_runs_aggregation(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        out = tmp_path / "agg"
        code = run(
            [
                "eval",
                "--task", "label",
                "--test", str(corpus_path),
                "--train-corpus", str(corpus_path),
                "--runs", "2",
                "--out", str(out),
                "--states", "2",
                "--iterations", "2",
                "--model", "sp",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["runs"] == 2
        assert "std" in report
        assert len(report["per_run"]) == 2

    def test_eval_runs_classify_with_jobs(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        out = tmp_path / "aggc"
        code = run(
            [
                "eval",
                "--task", "classify",
                "--test", str(corpus_path),
                "--train-corpus", str(corpus_path),
                "--runs", "2",
                "--jobs", "2",
                "--out", str(out),
                "--states", "2",
                "--iterations", "2",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["runs"] == 2
        assert len(report["per_run"]) == 2

    @pytest.mark.parametrize("task", ["label", "classify"])
    def test_eval_reports_do_not_depend_on_jobs(self, tmp_path, task):
        # The corpus and commands of CI's "Eval reports do not depend on
        # --jobs" step: each --jobs 2 run reads its own unpickled test split.
        data = tmp_path / "data"
        assert run(["generate", "--out", str(data), "--count-per-type", "12",
                    "--train-per-type", "8", "--seed", "3"]) == 0
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"eval_jobs{jobs}"
            assert run(["eval", "--task", task, "--test", str(data / "test.trees"),
                        "--train-corpus", str(data / "train.trees"), "--runs", "2",
                        "--iterations", "5", "--jobs", jobs, "--out", str(out)]) == 0
            reports.append([(out / name).read_bytes() for name in ("report.json", "report.txt")])
        assert reports[0] == reports[1]

    def test_jobs_do_not_change_results(self, tmp_path, rng):
        from bhtmm.model import HyperParams
        from bhtmm.tasks import train_classifier
        from oracles import separable_corpus as make_corpus

        corpus = make_corpus(rng, per_class=3)
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4, iterations=3, seed=5)
        serial = train_classifier(corpus, hyper, kind="tf", jobs=1)
        parallel = train_classifier(corpus, hyper, kind="tf", jobs=2)
        for a, b in zip(serial.models, parallel.models):
            assert np.array_equal(a.emission, b.emission)
            assert np.array_equal(a.leaf_prior, b.leaf_prior)

    def test_eval_single_run_has_no_std(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        out = tmp_path / "one"
        code = run(
            [
                "eval",
                "--task", "label",
                "--test", str(corpus_path),
                "--train-corpus", str(corpus_path),
                "--runs", "1",
                "--out", str(out),
                "--states", "2",
                "--iterations", "2",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "std" not in report
        assert "(" not in (out / "report.txt").read_text()

    def test_classify_predictions(self, tmp_path, trained):
        corpus_path, models = trained
        out = tmp_path / "pred"
        code = run(
            [
                "classify",
                "--checkpoints", str(models),
                "--corpus", str(corpus_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "predictions.tsv").read_text().strip().splitlines()
        assert lines[0] == "tree\tpredicted\tposterior"
        assert len(lines) == 9  # header + 8 trees

    def test_label_predictions(self, tmp_path, rng):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        models = tmp_path / "lm"
        run(
            [
                "train",
                "--corpus", str(corpus_path),
                "--out", str(models),
                "--task", "label",
                "--states", "2",
                "--iterations", "2",
            ]
        )
        out = tmp_path / "lp"
        code = run(
            [
                "label",
                "--checkpoint", str(models / "model.ckpt"),
                "--corpus", str(corpus_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        predicted = parse_corpus((out / "predictions.trees").read_text())
        original = parse_corpus(corpus_path.read_text())
        assert len(predicted.trees) == len(original.trees)
        for a, b in zip(predicted.trees, original.trees):
            assert np.array_equal(a.children, b.children)

    def test_model_corpus_mismatch(self, tmp_path, rng, trained):
        corpus_path, models = trained
        bad = tmp_path / "bad.trees"
        bad.write_text("L=3 M=4\n(0)\n")
        code = run(
            [
                "eval",
                "--task", "classify",
                "--test", str(bad),
                "--checkpoints", str(models),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("task, text", [
        ("label", "L=3 M=4\n(0)\n"), ("label", "L=2 M=5\n(0)\n"),
        ("classify", "L=3 M=4 CLASSES=2\n(0) | 1\n"),
    ])
    def test_eval_runs_test_corpus_mismatch(self, tmp_path, rng, capsys, task, text):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        bad = tmp_path / "bad.trees"
        bad.write_text(text)
        out = tmp_path / "runs"
        code = run(["eval", "--task", task, "--test", str(bad), "--train-corpus",
                    str(corpus_path), "--runs", "2", "--out", str(out), "--states", "2",
                    "--iterations", "2"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "report.json").exists()


    def unseen_class(self, tmp_path, corpus_path):
        """The corpus declared with five classes, its last tree in class 4."""
        lines = corpus_path.read_text().splitlines()
        lines[0] = lines[0].replace("CLASSES=2", "CLASSES=5")
        lines[-1] = lines[-1].rsplit("|", 1)[0] + "| 4"
        path = tmp_path / "unseen.trees"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_eval_class_outside_bundle(self, tmp_path, trained, capsys):
        corpus_path, models = trained
        out = tmp_path / "eval"
        code = run(["eval", "--task", "classify", "--test",
                    str(self.unseen_class(tmp_path, corpus_path)),
                    "--checkpoints", str(models), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "class 4" in err[0] and "2 classes" in err[0]
        assert not (out / "report.json").exists()

    def test_eval_runs_class_outside_training(self, tmp_path, rng, capsys):
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        out = tmp_path / "runs"
        code = run(["eval", "--task", "classify", "--test",
                    str(self.unseen_class(tmp_path, corpus_path)),
                    "--train-corpus", str(corpus_path), "--runs", "1", "--out", str(out),
                    "--states", "2", "--iterations", "2"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "class 4" in err[0] and "2 classes" in err[0]
        assert not (out / "report.json").exists()

    def test_eval_runs_rejects_test_class_before_training(self, tmp_path, rng, capsys,
                                                          monkeypatch):
        def train_classifier(*args, **kwargs):
            raise AssertionError("trained before checking the test classes")

        monkeypatch.setattr(cli, "train_classifier", train_classifier)
        corpus_path = write_separable(tmp_path, rng, per_class=3)
        out = tmp_path / "runs"
        code = run(["eval", "--task", "classify", "--test",
                    str(self.unseen_class(tmp_path, corpus_path)),
                    "--train-corpus", str(corpus_path), "--runs", "2", "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and "class 4" in err[0] and "2 classes" in err[0]

    @pytest.mark.parametrize("task", ["label", "classify"])
    def test_eval_runs_rejects_empty_test_corpus_before_training(self, tmp_path, rng, capsys,
                                                                 monkeypatch, task):
        def trains(*args, **kwargs):
            raise AssertionError("trained before checking the test corpus")

        monkeypatch.setattr(cli, "train_model", trains)
        monkeypatch.setattr(cli, "train_classifier", trains)
        empty = tmp_path / "empty.trees"
        empty.write_text("L=2 M=4 CLASSES=2\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = run(["eval", "--task", task, "--test", str(empty),
                    "--train-corpus", str(write_separable(tmp_path, rng)), "--runs", "2",
                    "--out", str(out), "--states", "2", "--iterations", "2"])
        assert code == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: evaluation needs at least one tree"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("model", ["tf", "sp"])
    def test_eval_runs_empty_training_corpus(self, tmp_path, rng, capsys, model):
        empty = tmp_path / "empty.trees"
        empty.write_text("L=2 M=4\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = run(["eval", "--task", "label", "--test", str(write_separable(tmp_path, rng)),
                    "--train-corpus", str(empty), "--runs", "1", "--model", model,
                    "--out", str(out), "--states", "2", "--iterations", "2"])
        assert code == 4
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: training needs at least one tree"]
        assert not (out / "report.json").exists()


class TestVersion1Checkpoints:
    """Files written by the version 1 format, which stored part of the
    tf core and the generator state, still load and predict as before."""

    @pytest.mark.parametrize("kind", ["tf", "sp"])
    def test_label_reproduces_v1_predictions(self, tmp_path, kind):
        out = tmp_path / kind
        code = run(["label", "--checkpoint", str(V1 / f"{kind}.ckpt"),
                    "--corpus", str(V1 / "structures.trees"), "--out", str(out)])
        assert code == 0
        assert (out / "predictions.trees").read_bytes() == (
            V1 / f"{kind}.predictions.trees").read_bytes()


def test_bundle_of_eleven_classes(tmp_path):
    # By name class_10.ckpt sorts before class_2.ckpt; the bundle is read by class index.
    corpus = tmp_path / "eleven.trees"
    corpus.write_text("L=2 M=3 CLASSES=11\n" + "".join(
        f"({c % 3} ({c // 3 % 3})) | {c}\n" for c in range(11)), encoding="utf-8")
    models = tmp_path / "models"
    assert run(["train", "--corpus", str(corpus), "--out", str(models), "--task", "classify",
                "--states", "2", "--iterations", "2"]) == 0
    bundle = cli._load_bundle(models)
    for c, params in enumerate(bundle.models):
        _, _, saved = load_checkpoint(models / f"class_{c}.ckpt")
        assert np.array_equal(params.emission, saved.emission)
    out = tmp_path / "pred"
    assert run(["classify", "--checkpoints", str(models), "--corpus", str(corpus),
                "--out", str(out)]) == 0
    assert len((out / "predictions.tsv").read_text().splitlines()) == 12
    assert run(["eval", "--task", "classify", "--test", str(corpus),
                "--checkpoints", str(models), "--out", str(tmp_path / "eval")]) == 0


def wide_corpus(n_slots):
    """Four two-class trees whose children sit at the first, a middle and
    the last of ``n_slots`` slots."""
    lines = [f"L={n_slots} M=3 CLASSES=2"]
    for c in range(4):
        kids = ["_"] * n_slots
        kids[0], kids[n_slots // 2], kids[-1] = "(1)", f"({c % 3})", "(2 (0) _ (1))"
        lines.append(f"({c % 3} {' '.join(kids)}) | {c % 2}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_slots", [40, 100])
def test_tf_runs_past_the_array_axis_limit(tmp_path, n_slots):
    # A key has one entry per slot: more than numpy allows an array axes.
    corpus = tmp_path / "wide.trees"
    corpus.write_text(wide_corpus(n_slots), encoding="utf-8")
    label, models = tmp_path / "label", tmp_path / "models"
    sizes = ["--states", "2", "--iterations", "3"]
    for task, out in (("label", label), ("classify", models)):
        assert run(["train", "--corpus", str(corpus), "--out", str(out), "--task", task,
                    "--model", "tf", *sizes]) == 0
    ckpt = str(label / "model.ckpt")
    assert run(["label", "--checkpoint", ckpt, "--corpus", str(corpus),
                "--out", str(tmp_path / "labelled")]) == 0
    assert run(["classify", "--checkpoints", str(models), "--corpus", str(corpus),
                "--out", str(tmp_path / "classes")]) == 0
    assert run(["eval", "--task", "label", "--checkpoint", ckpt, "--test", str(corpus),
                "--out", str(tmp_path / "eval_label")]) == 0
    assert run(["eval", "--task", "classify", "--checkpoints", str(models),
                "--test", str(corpus), "--out", str(tmp_path / "eval_classify")]) == 0


FUZZ_TOKENS = re.compile(r"\n|[()]|[^\s()]+")
FUZZ_INSERTS = ["(", ")", "_", "|", "0", "2", "-1", "9" * 25, "\n", "L=2", "CLASSES=2", "x"]


def fuzz_corpus(fuzz):
    """A valid four-tree corpus on a random slot count, its text then
    mutated up to twice by token deletion, insertion, swap or a huge integer."""
    n_slots = fuzz.choice([1, 3, 31, 32, 40, 100])

    def tree(depth):
        slots = ["_"] * n_slots
        if depth and fuzz.random() < 0.6:
            for slot in fuzz.sample(range(n_slots), min(n_slots, fuzz.randint(1, 2))):
                slots[slot] = tree(depth - 1)
        return f"({fuzz.randrange(3)} {' '.join(slots)})"

    tokens = FUZZ_TOKENS.findall(f"L={n_slots} M=3 CLASSES=2\n"
                                 + "".join(f"{tree(3)} | {i % 2}\n" for i in range(4)))
    for _ in range(fuzz.randint(0, 2)):
        i, j = fuzz.randrange(len(tokens)), fuzz.randrange(len(tokens))
        op = fuzz.randrange(4)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, fuzz.choice(FUZZ_INSERTS))
        elif op == 2:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif tokens[i].isdigit():
            tokens[i] = "9" * fuzz.choice([19, 20, 40])
    return " ".join(tokens)


def test_mutated_corpora_exit_with_documented_codes(tmp_path, capsys):
    """Seeded mutations of valid corpora through train (tf and sp),
    label and classify: every run ends in a documented exit code."""
    fuzz = random.Random(11)
    codes = set()
    for case in range(60):
        corpus = tmp_path / f"{case}.trees"
        corpus.write_text(fuzz_corpus(fuzz), encoding="utf-8")
        out = tmp_path / str(case)
        runs = [["train", "--corpus", str(corpus), "--out", str(out / f"{model}_{task}"),
                 "--task", task, "--model", model, "--states", "2",
                 "--iterations", str(fuzz.randint(1, 2))]
                for model in ("tf", "sp") for task in ("label", "classify")]
        runs.append(["label", "--checkpoint", str(out / "tf_label" / "model.ckpt"),
                     "--corpus", str(corpus), "--out", str(out / "labelled")])
        runs.append(["classify", "--checkpoints", str(out / "tf_classify"),
                     "--corpus", str(corpus), "--out", str(out / "classes")])
        for argv in runs:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 2, 3, 4), (corpus.read_text(), argv)
            codes.add(code)
    capsys.readouterr()
    assert {0, 4} <= codes


@pytest.mark.parametrize("line", ["(1 (\u00b2))", "(--1 (0))", "(1 (0)) | --2"])
def test_malformed_integer_is_parse_error(tmp_path, capsys, line):
    corpus = tmp_path / "bad.trees"
    corpus.write_text(f"L=2 M=3 CLASSES=3\n(0) | 0\n{line}\n", encoding="utf-8")
    code = run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
                "--task", "label"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("error: line 3: expected ")


@pytest.mark.parametrize("module", ["bhtmm", "bhtmm.cli"])
def test_module_entry_points(tmp_path, module):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, timeout=60, env=env)

    proc = python_m("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: bhtmm")
    empty = tmp_path / "empty.trees"
    empty.write_text("L=2 M=4\n", encoding="utf-8")
    proc = python_m("train", "--corpus", str(empty), "--out", str(tmp_path / "out"),
                    "--task", "label")
    assert proc.returncode == 4
    assert proc.stderr.strip().splitlines() == ["error: training needs at least one tree"]


def test_training_reproduces_golden_bytes(tmp_path):
    """A fixed-seed tf run matches the committed log and checkpoint byte
    for byte. The fixture run accepts size moves (log column 5). The
    corpus is the training split
    of ``bhtmm generate --count-per-type 6 --train-per-type 5 --seed 0``;
    the bytes also pin numpy's generator streams, so a numpy release
    that changes its samplers needs the fixture written again."""
    out = tmp_path / "run"
    code = run(["train", "--corpus", str(GOLDEN / "train.trees"), "--out", str(out),
                "--task", "label", "--model", "tf", "--states", "3", "--iterations", "20",
                "--seed", "8"])
    assert code == 0
    log = (GOLDEN / "train.log").read_text().splitlines()
    assert sum(line.split("\t")[4] == "1" for line in log) >= 1
    for name in ("train.log", "model.ckpt"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_sp_training_reproduces_golden_bytes(tmp_path):
    """A fixed-seed sp run matches the committed log and checkpoint byte
    for byte. The fixture was written by ``bhtmm train --corpus
    tests/data/golden/train.trees --out OUT --task label --model sp
    --states 3 --iterations 20 --seed 8``; its acceptance-rate column
    (log column 4) is neither all 0 nor all 1, so the bytes pin the
    acceptance as well as the proposals and redraws."""
    out = tmp_path / "run"
    code = run(["train", "--corpus", str(GOLDEN / "train.trees"), "--out", str(out),
                "--task", "label", "--model", "sp", "--states", "3", "--iterations", "20",
                "--seed", "8"])
    assert code == 0
    rates = {line.split("\t")[3] for line in (GOLDEN / "sp" / "train.log").read_text().splitlines()}
    assert rates - {"0.0000", "1.0000"}
    for name in ("train.log", "model.ckpt"):
        assert (out / name).read_bytes() == (GOLDEN / "sp" / name).read_bytes(), name


class TestCorruptInputs:
    """Corrupt checkpoints and corpora end in one error line and exit 4."""

    def checkpoint(self, tmp_path, rng, clustering=None):
        from bhtmm.model import HyperParams, save_checkpoint
        from oracles import random_tf_params

        path = tmp_path / "model.ckpt"
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4)
        save_checkpoint(path, "tf", hyper, random_tf_params(rng, 2, 2, 4, clustering))
        return path

    def label(self, tmp_path, rng, checkpoint, capsys, corpus_path=None):
        corpus_path = corpus_path or write_separable(tmp_path, rng, per_class=2)
        out = tmp_path / "labelled"
        code = run(
            [
                "label",
                "--checkpoint", str(checkpoint),
                "--corpus", str(corpus_path),
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "predictions.trees").exists()
        return code, err[0]

    def edit(self, path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    def test_valid_checkpoint_labels(self, tmp_path, rng):
        ckpt = self.checkpoint(tmp_path, rng)
        corpus_path = write_separable(tmp_path, rng, per_class=2)
        code = run(
            [
                "label",
                "--checkpoint", str(ckpt),
                "--corpus", str(corpus_path),
                "--out", str(tmp_path / "ok"),
            ]
        )
        assert code == 0

    def test_truncated_checkpoint(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        ckpt.write_text(ckpt.read_text()[:100])
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err

    def test_checkpoint_missing_key(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["params"].pop("emission"))
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err

    def test_checkpoint_negative_probability(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)

        def negate(doc):
            row = doc["params"]["emission"][0]
            row[0], row[1] = -row[0], row[1] + 2 * row[0]

        self.edit(ckpt, negate)
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert "emission" in err

    def test_checkpoint_hyper_out_of_range(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["hyper"].update(init_temp=0.5))
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "init_temp" in err

    def test_checkpoint_hyper_nan(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["hyper"].update(size_decay=float("nan")))
        assert "NaN" in ckpt.read_text()
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "size_decay" in err

    def test_checkpoint_negative_seed(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["hyper"].update(seed=-1))
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "seed" in err

    @pytest.mark.parametrize("value", [float("nan"), -1.0, 3.0])
    def test_checkpoint_core_conc_differs_from_hyper(self, tmp_path, rng, capsys, value):
        ckpt = self.checkpoint(tmp_path, rng)

        def change(doc):
            doc["params"]["core"].pop()  # core_conc is checked before the missing row
            doc["params"]["core_conc"] = value

        self.edit(ckpt, change)
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "core_conc" in err

    def test_checkpoint_negative_cluster_id(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["params"]["clustering"][0].__setitem__(0, -1))
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "clustering" in err

    @pytest.mark.parametrize("old, new", [(0, 0.9), (0, 0.0), (1, "1"), (1, True)])
    def test_checkpoint_non_integer_cluster_id(self, tmp_path, rng, capsys, old, new):
        from bhtmm.model import HardClustering

        ckpt = self.checkpoint(tmp_path, rng, HardClustering([[0, 1, 1], [0, 0, 0]]))

        def change(doc):
            row = doc["params"]["clustering"][0]
            row[row.index(old)] = new

        self.edit(ckpt, change)
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "clustering" in err

    def test_checkpoint_core_missing_a_row(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["params"]["core"].pop())
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "core lacks rows" in err

    def test_checkpoint_core_key_outside_clustering(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        params = json.loads(ckpt.read_text())["params"]
        k = [max(a) + 1 for a in params["clustering"]]
        first_key, row = params["core"][0]
        # Wrong length, a cluster id past k, and a repeated key.
        for key in ([7, 7, 7, 7, 7], [k[0], 0], first_key):
            self.edit(ckpt, lambda doc: doc["params"]["core"].append([key, row]))
            code, err = self.label(tmp_path, rng, ckpt, capsys)
            assert code == 4
            assert str(ckpt) in err and "core key" in err
            self.edit(ckpt, lambda doc: doc["params"]["core"].pop())

    def test_non_utf8_corpus(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        corpus_path = tmp_path / "latin1.trees"
        corpus_path.write_bytes("L=2 M=4\nSYM 0 café\n(0)\n".encode("latin-1"))
        code, err = self.label(tmp_path, rng, ckpt, capsys, corpus_path)
        assert code == 4
        assert str(corpus_path) in err

    @pytest.mark.parametrize("header", ["L={} M=4", "L=2 M={}", "L=2 M=4 CLASSES={}"])
    def test_header_integer_over_digit_limit(self, tmp_path, rng, capsys, header):
        # Past Python's 4,300-digit int conversion limit a bare int() raises
        # ValueError, which would end in a traceback and exit 1.
        ckpt = self.checkpoint(tmp_path, rng)
        corpus_path = tmp_path / "huge.trees"
        corpus_path.write_text(header.format("1" * 5000) + "\n(0)\n")
        code, err = self.label(tmp_path, rng, ckpt, capsys, corpus_path)
        assert code == 4
        assert "header" in err
