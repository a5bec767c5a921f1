"""Timing helpers shared by the workloads, and the run's environment."""

from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path

import numpy as np


class SweepClock:
    """Per-sweep wall times taken from the public ``on_sweep`` hook.

    Samples are grouped by protocol run: ``new_run()`` starts a group.
    ``chain(kind)`` returns a fresh callback for one training call. A
    sweep's time is the gap between two consecutive callbacks, so the
    first sweep of a chain, which also pays for initialisation, gives
    no sample.
    """

    def __init__(self):
        self.runs = {"tf": [[]], "sp": [[]]}

    def new_run(self):
        for groups in self.runs.values():
            if groups[-1]:
                groups.append([])

    def chain(self, kind):
        last = [None]
        samples = self.runs[kind][-1]

        def on_sweep(m, params):
            now = time.perf_counter()
            if last[0] is not None:
                samples.append(now - last[0])
            last[0] = now

        return on_sweep


def add_sweep_hooks(patches, clock):
    """Give ``train_classifier``'s training calls an ``on_sweep`` hook.

    ``tasks._train_single`` calls ``train`` and ``sp_train`` without a
    hook; the adapters add one through the module attributes it looks
    up, and change nothing else.
    """

    def adapter(kind):
        def make(fn):
            def call(*args, **kwargs):
                kwargs.setdefault("on_sweep", clock.chain(kind))
                return fn(*args, **kwargs)

            return call

        return make

    patches.replace("bhtmm.tasks", "train", adapter("tf"))
    patches.replace("bhtmm.tasks", "sp_train", adapter("sp"))


def p50(values):
    return float(np.median(values))


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``. Below twenty samples no percentile
    at or above the median has ten beyond it, and the maximum is
    returned as percentile 100.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n < 20:
        return float(ordered[-1]), 100
    return float(ordered[n - 11]), int(100 * (n - 10) // n)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip()
            )
    except OSError:
        pass
    return out


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }
