"""bhtmm benchmark: one workload per call, metrics on the last line.

    python3 perfbench/run.py --workload label-ternary --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Workloads: ``label-ternary`` and ``classify-wide`` (see
``workloads.py``); ``all`` runs each in its own process. ``--trace 0``
runs protocol runs for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs one protocol run untraced and once more with layer
wrappers, and prints the per-layer metrics. Earlier lines are a readable report;
the full report (environment, sample counts, checks) and, when traced,
the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import measure

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S is
# spent, at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
WORKLOAD_NAMES = ("label-ternary", "classify-wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="protocol runs repeat while another fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke check")
    return parser.parse_args(argv)


def _protocol(wl, run, directory, out, clock):
    """One protocol run: a training step and a first inference pass."""
    start = time.perf_counter()
    clock.new_run()
    models = wl.train(run, directory, out, clock)
    wl.infer(models, directory, out, run)
    elapsed = time.perf_counter() - start
    out.protocol_s.append(elapsed)
    return models, elapsed


def _repeat_pass(wl, models, directory, out):
    """A further inference pass on the same models."""
    start = time.perf_counter()
    wl.infer(models, directory, out)
    return time.perf_counter() - start


def _fresh(work, name):
    directory = work / name
    directory.mkdir(parents=True)
    return directory


def _setup(wl_cls, args, size, work, out, clock, repeat):
    """Set up from scratch, several times when ``repeat``; returns the
    last workload and the set-up times. Every repetition must build the
    same inputs."""
    times = []
    prints = set()
    while not times or repeat and len(times) < SETUP_MAX and (
        len(times) < SETUP_MIN or sum(times) < SETUP_BUDGET_S
    ):
        wl = wl_cls(args.seed, size)
        start = time.perf_counter()
        wl.setup(_fresh(work, f"setup{len(times)}"), out, clock)
        times.append(time.perf_counter() - start)
        prints.add(wl.fingerprint())
    out.check(len(prints) == 1, "set-up is deterministic")
    return wl, times


def _same_files(first, second, out):
    """Byte-compare every file two protocol runs wrote."""
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    other = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    out.check(names == other, "traced run writes the same files")
    for name in names:
        same = (second / name).is_file() and (
            (first / name).read_bytes() == (second / name).read_bytes()
        )
        out.check(same, f"traced output {name} identical")


def _median_rate(pairs):
    return statistics.median(work / secs for work, secs in pairs)


def end_to_end(out, setup_times, clock):
    """Every end-to-end metric: name -> (value, unit, samples, note)."""
    m = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times), "median"),
        "wall_s": (statistics.median(out.protocol_s), "s", len(out.protocol_s),
                   "median protocol run"),
    }
    for kind in ("tf", "sp"):
        m[f"{kind}_train_nodes_per_s"] = (
            _median_rate(out.train[kind]), "1/s", len(out.train[kind]),
            "median over training calls of nodes x sweeps / seconds",
        )
        # Each protocol run's p50 and tail, then the median over runs: a
        # slow spell of the machine as long as ten sweeps sets the tail
        # of one run, not the result.
        runs = [[1000.0 * s for s in group] for group in clock.runs[kind] if group]
        n = sum(len(group) for group in runs)
        tails = [measure.tail(group) for group in runs]
        pct = min(p for _, p in tails)
        m[f"{kind}_sweep_ms_p50"] = (
            statistics.median(measure.p50(group) for group in runs), "ms", n,
            f"median over {len(runs)} runs of the run's p50")
        m[f"{kind}_sweep_ms_tail"] = (
            statistics.median(value for value, _ in tails), "ms", n,
            f"median over {len(runs)} runs of the run's p{pct}")
    for kind in ("tf", "sp"):
        m[f"{kind}_infer_nodes_per_s"] = (
            _median_rate(out.infer[kind]), "1/s", len(out.infer[kind]),
            "median over inference passes",
        )
    # One sample per tree: the median of its latencies over the runs or
    # passes, which sit seconds apart, so a slow spell of the machine
    # does not set the tail.
    per_tree = [statistics.median(v) for v in out.tree_ms.values()]
    repeats = min(len(v) for v in out.tree_ms.values())
    tail, pct = measure.tail(per_tree)
    m["tf_tree_ms_p50"] = (measure.p50(per_tree), "ms", len(per_tree),
                           f"p50 over trees of per-tree medians of {repeats}")
    m["tf_tree_ms_tail"] = (tail, "ms", len(per_tree),
                            f"p{pct} over trees of per-tree medians of {repeats}")
    for kind in ("tf", "sp"):
        acc = out.accuracy[kind]
        m[f"{kind}_accuracy"] = (statistics.fmean(acc), "%", len(acc), "mean over runs")
    m["peak_rss_mb"] = (measure.peak_rss_mb(), "MB", 1, "ru_maxrss")
    return m


def _log_rates(directory):
    """Latent and size-move acceptance from the per-sweep training logs."""
    rates = {"tf": [], "sp": []}
    moves = []
    for path in sorted(directory.rglob("*.log")):
        for line in path.read_text(encoding="utf-8").splitlines():
            cols = line.split("\t")
            kind = "sp" if cols[4] == "-" else "tf"
            rates[kind].append(float(cols[3]))
            if kind == "tf":
                moves.append(int(cols[4]))
    return rates, moves


def per_layer(recorder, directory, traced_s, untraced_s):
    """Every per-layer metric: name -> (value, unit)."""
    total, own = recorder.times()
    m = {}
    for layer in layers.LAYERS:
        name = layer.name
        m[f"{name}.calls"] = (recorder.calls[name], "count")
        if layer.kind == "span":
            m[f"{name}.self_s"] = (own[name], "s")
        if layer.nodes is not None:
            nodes = recorder.nodes[name]
            m[f"{name}.nodes"] = (nodes, "count")
            m[f"{name}.nodes_per_s"] = (nodes / total[name] if total[name] else 0.0, "1/s")
        if layer.size is not None:
            m[f"{name}.bytes"] = (recorder.bytes[name], "B")
    m["model.core_entry.lazy_draws"] = (recorder.lazy_draws, "count")
    rates, moves = _log_rates(directory)
    for kind, prefix in (("tf", "gibbs"), ("sp", "sp")):
        m[f"{prefix}.accept.rate"] = (
            statistics.fmean(rates[kind]) if rates[kind] else 0.0, "ratio")
    m["gibbs.size_move.accept_rate"] = (statistics.fmean(moves) if moves else 0.0, "ratio")
    m["gibbs.tuple_counts.calls_per_sweep"] = (
        recorder.calls["gibbs.tuple_counts"] / len(moves) if moves else 0.0, "ratio")
    k_cells = 0
    ext_tuples = 0
    for state in recorder.chains:
        cells = state.params.n_states
        for k in state.params.clustering.k:
            cells *= k
        k_cells += cells
        ext_tuples += len(state.stats.raw)
    m["gibbs.k_cells"] = (k_cells, "count")
    m["gibbs.stats.ext_tuples"] = (ext_tuples, "count")
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    m["trace.self_s_sum"] = (sum(own.values()), "s")
    return m


def run_workload(args, work):
    from workloads import SCALES, WORKLOADS, Outcome

    size = SCALES[args.scale][args.workload]
    out = Outcome()
    clock = measure.SweepClock()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "size": size,
              "environment": measure.environment()}
    with layers.Patches() as patches:
        measure.add_sweep_hooks(patches, clock)
        wl, setup_times = _setup(WORKLOADS[args.workload], args, size, work, out, clock,
                                 repeat=not args.trace)
        start = time.perf_counter()
        if args.trace:
            plain = _fresh(work, "untraced")
            _, untraced_s = _protocol(wl, 0, plain, out, clock)
            recorder = layers.Recorder()
            layers.install(patches, recorder)
            traced = _fresh(work, "traced")
            _, traced_s = _protocol(wl, 0, traced, out, clock)
            patches.undo()
            _same_files(plain, traced, out)
            metrics = per_layer(recorder, traced, traced_s, untraced_s)
            metrics = {k: (v, unit, None, "") for k, (v, unit) in metrics.items()}
            spans = recorder.dump()
        else:
            # Protocol runs, each followed by repeat_s of inference
            # passes, while another run is expected to fit in --seconds.
            passes = 0
            run_s = []
            while len(run_s) < size["min_runs"] or (
                time.perf_counter() - start + statistics.median(run_s) <= args.seconds
            ):
                run = len(run_s)
                models, spent = _protocol(wl, run, _fresh(work, f"run{run}"), out, clock)
                repeats = 0.0
                while repeats < size["repeat_s"]:
                    repeats += _repeat_pass(wl, models, _fresh(work, f"pass{passes}"), out)
                    passes += 1
                run_s.append(spent + repeats)
            out.check(statistics.fmean(out.accuracy["tf"]) > wl.majority_acc,
                      "tf_accuracy beats the majority baseline")
            metrics = end_to_end(out, setup_times, clock)
            spans = None
        report["measured_s"] = time.perf_counter() - start
    failed = sum(out.failures.values())
    report.update({
        "sizes": out.sizes,
        "attempted": out.attempted,
        "failed": failed,
        "failed_ratio": failed / max(1, out.attempted),
        "failures": dict(out.failures),
        "accuracy_per_run": out.accuracy,
        "tf_k": out.tf_k,
        "metrics": {k: {"value": v, "unit": u, "samples": n, "note": note}
                    for k, (v, u, n, note) in metrics.items()},
    })
    return report, spans


def print_report(report):
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"scale={report['scale']}")
    env = report["environment"]
    print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']} caches {env['caches']}")
    print("# sizes " + " ".join(f"{k}={v}" for k, v in report["sizes"].items()))
    for name, m in report["metrics"].items():
        extra = f"  (n={m['samples']}, {m['note']})" if m["samples"] is not None else ""
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"{'failed_ratio':42s} {report['failed_ratio']:>16.6g} ratio  "
          f"({report['failed']} of {report['attempted']} checks failed)")
    for what, count in report["failures"].items():
        print(f"# FAILED {count}x: {what}")


def run_all(args):
    """Each workload in a fresh process; their result lines, keyed."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status:
        return status
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "bhtmm" / "__init__.py").is_file():
        print(f"error: no program source under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        report, spans = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print_report(report)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
