import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bhtmm.cli import main
from bhtmm.trees import format_corpus, parse_corpus

from oracles import separable_corpus


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


class TestCorruptInputs:
    """Corrupt checkpoints and corpora end in one error line and exit 4."""

    def checkpoint(self, tmp_path, rng):
        from bhtmm.model import HyperParams, save_checkpoint
        from oracles import random_tf_params

        path = tmp_path / "model.ckpt"
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=4)
        save_checkpoint(path, "tf", hyper, random_tf_params(rng, 2, 2, 4))
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

    def test_checkpoint_negative_cluster_id(self, tmp_path, rng, capsys):
        ckpt = self.checkpoint(tmp_path, rng)
        self.edit(ckpt, lambda doc: doc["params"]["clustering"][0].__setitem__(0, -1))
        code, err = self.label(tmp_path, rng, ckpt, capsys)
        assert code == 4
        assert str(ckpt) in err and "clustering" in err

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
