"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at ``--scale tiny`` (about
twenty seconds in all) and checks that

- the result line carries exactly the metrics ``BENCHMARK.json``
  declares, each with its unit, and the readable report prints them
  and every metric in ``REQUIRED`` (``failed_ratio`` included) with a
  unit;
- the per-layer self times sum to no more than the traced wall time;
- every recorded span name is a row of the layer table.

Output correctness is not asserted: a three-sweep model need not beat
the majority label. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_NAMES  # noqa: E402

SEED = 7

# Metrics the benchmark was specified to report, whatever BENCHMARK.json
# declares: end-to-end (untraced) and per-layer (traced).
REQUIRED = {
    0: """setup_s wall_s tf_train_nodes_per_s sp_train_nodes_per_s tf_sweep_ms_p50
        tf_sweep_ms_tail sp_sweep_ms_p50 sp_sweep_ms_tail tf_infer_nodes_per_s
        sp_infer_nodes_per_s tf_tree_ms_p50 tf_tree_ms_tail tf_accuracy sp_accuracy
        peak_rss_mb failed_ratio""".split(),
    1: [f"{layer}.{q}" for layer in (
        "gibbs.propose gibbs.accept gibbs.stats gibbs.tuple_counts gibbs.size_move "
        "gibbs.redraw gibbs.base_measure gibbs.complete_ll sp.propose sp.accept sp.stats "
        "sp.redraw sp.complete_ll inference.corpus_ll inference.tree_ll "
        "inference.state_marginals sp.marginal_ll sp.state_marginals model.dense_core "
        "trees.parse trees.format model.checkpoint_load model.checkpoint_save "
        "tasks.eval_labelling tasks.eval_classification").split()
        for q in ("calls", "self_s")] + """gibbs.propose.nodes_per_s gibbs.accept.rate
        gibbs.tuple_counts.calls_per_sweep gibbs.size_move.accept_rate gibbs.other.self_s
        sp.accept.rate model.core_entry.calls model.core_entry.lazy_draws
        model.checkpoint_save.bytes rand.categorical.calls rand.dirichlet_rows.calls
        gibbs.k_cells gibbs.stats.ext_tuples trace.overhead failed_ratio""".split(),
}


def run(workload, traced):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(traced),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            report, result = run(workload, traced)
            tag = f"{workload} trace={traced}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            metrics = result["metrics"]
            expect(set(metrics) == set(declared[traced]), f"{tag}: metric names")
            for name, unit in declared[traced].items():
                expect(metrics[name]["unit"] == unit, f"{tag}: unit of {name}")
            printed = {line.split()[0]: line.split()[2] for line in report
                       if not line.startswith("#")}
            for name in set(declared[traced]) | set(REQUIRED[traced]):
                expect(printed.get(name, "") != "", f"{tag}: {name} not printed with a unit")
            if traced:
                self_sum = sum(m["value"] for n, m in metrics.items()
                               if n.endswith(".self_s"))
                wall = metrics["trace.wall_s"]["value"]
                expect(self_sum <= wall, f"{tag}: self times {self_sum} > wall {wall}")
                spans = json.loads(
                    (ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1-spans.json")
                    .read_text()
                )
                names = {span["name"] for span in spans}
                expect(names <= set(LAYER_NAMES),
                       f"{tag}: spans outside the layer table: {names - set(LAYER_NAMES)}")
            print(f"ok  {tag}  ({len(metrics)} metrics)")
    print("smoke check passed")


if __name__ == "__main__":
    main()
