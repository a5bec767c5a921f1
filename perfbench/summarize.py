"""Medians and quartiles of saved benchmark reports.

    python3 perfbench/summarize.py [REPORT_DIR] > summary.json

Reads the reports ``run.py`` writes (``.perfbench_out/`` by default)
and prints one JSON document: per workload, the seeds, and for every
metric the median and quartiles over the untraced runs (end-to-end)
and over the traced runs (per-layer), plus the environment of the
last report read. ``baseline.json`` was made this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(report_dir):
    runs = defaultdict(list)
    environment = None
    for path in sorted(report_dir.glob("*-trace[01].json")):
        report = json.loads(path.read_text())
        runs[report["workload"], report["trace"]].append(report)
        environment = report["environment"]
    out = {"environment": environment, "workloads": {}}
    for (workload, traced), reports in sorted(runs.items()):
        entry = out["workloads"].setdefault(workload, {})
        values = defaultdict(list)
        for report in reports:
            for name, metric in report["metrics"].items():
                values[name, metric["unit"]].append(metric["value"])
        table = {}
        for (name, unit), vals in values.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                              else (vals[0],) * 3)
            table[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
        key = "per_layer" if traced else "end_to_end"
        entry[key] = table
        entry[f"{key}_seeds"] = sorted(report["seed"] for report in reports)
        entry[f"{key}_failed"] = sum(report["failed"] for report in reports)
        entry["sizes"] = reports[-1]["sizes"]
    return out


def main(argv):
    root = Path(__file__).resolve().parent.parent
    report_dir = Path(argv[1]) if len(argv) > 1 else root / ".perfbench_out"
    print(json.dumps(summarize(report_dir), indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
