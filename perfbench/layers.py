"""Layer spans recorded from outside the program.

``LAYERS`` is the one table that maps a layer name to the module
attributes its wrapper replaces. A span layer records one span per
call: name, start, end and the enclosing span. A count layer only
counts calls, for functions called once per node where a span would
cost more than the call. Wrappers replace the attribute the caller
looks up (``bhtmm.gibbs.propose_latents``, ``bhtmm.tasks.train``, a
class attribute such as ``SufficientStats.tuple_counts``), so the
program runs unchanged underneath.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np


def _tree(i):
    return lambda args, result: args[i].n_nodes


def _trees(i):
    return lambda args, result: sum(t.n_nodes for t in args[i])


def _corpus(i):
    return lambda args, result: sum(t.n_nodes for t in args[i].trees)


def _result_corpus(args, result):
    return sum(t.n_nodes for t in result.trees)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Layer:
    """One row of the layer table.

    ``targets`` are ``(module, attribute path)`` pairs; ``nodes`` maps
    ``(args, result)`` of one call to the tree nodes it handled and
    ``size`` to the bytes it read or wrote.
    """

    name: str
    kind: str
    targets: tuple
    nodes: object = None
    size: object = None


LAYERS = (
    # The sweep loops; their self time is sweep time no child span covers.
    Layer("gibbs.other", "span",
          (("bhtmm.gibbs", "train"), ("bhtmm.tasks", "train"))),
    Layer("gibbs.propose", "span", (("bhtmm.gibbs", "propose_latents"),), _tree(0)),
    Layer("gibbs.accept", "span",
          (("bhtmm.gibbs", "latent_acceptance"),),
          lambda args, result: len(args[1].q)),
    Layer("gibbs.stats", "span",
          (("bhtmm.gibbs", "SufficientStats.from_latents"),), _trees(1)),
    Layer("gibbs.tuple_counts", "span",
          (("bhtmm.gibbs", "SufficientStats.tuple_counts"),)),
    Layer("gibbs.size_move", "span",
          (("bhtmm.gibbs", "propose_size_move"), ("bhtmm.gibbs", "size_acceptance"))),
    Layer("gibbs.redraw", "span", (("bhtmm.gibbs", "resample_parameters"),)),
    Layer("gibbs.base_measure", "span", (("bhtmm.gibbs", "resample_base_measure"),)),
    Layer("gibbs.complete_ll", "span",
          (("bhtmm.gibbs", "complete_data_log_likelihood"),)),
    Layer("sp.other", "span",
          (("bhtmm.sp", "sp_train"), ("bhtmm.tasks", "sp_train"))),
    Layer("sp.propose", "span", (("bhtmm.sp", "sp_propose_latents"),), _tree(0)),
    Layer("sp.accept", "span", (("bhtmm.sp", "sp_latent_acceptance"),), _tree(2)),
    Layer("sp.stats", "span", (("bhtmm.sp", "SpStats.from_latents"),), _trees(1)),
    # sp_train redraws inline; every Dirichlet draw the sp module makes
    # is a redraw except the four of init_sp_params.
    Layer("sp.redraw", "span", (("bhtmm.sp", "dirichlet_rows"),)),
    Layer("sp.complete_ll", "span", (("bhtmm.sp", "_complete_data_ll"),)),
    Layer("sp.marginal_ll", "span",
          (("bhtmm.tasks", "sp_marginal_log_likelihood"),), _tree(0)),
    Layer("sp.label_marginals", "span",
          (("bhtmm.tasks", "sp_node_label_marginals"),
           ("bhtmm.sp", "sp_node_label_marginals")), _tree(0)),
    Layer("sp.state_marginals", "span", (("bhtmm.sp", "sp_state_marginals"),), _tree(0)),
    Layer("inference.corpus_ll", "span",
          (("bhtmm.tasks", "corpus_log_likelihoods"),), _trees(0)),
    Layer("inference.tree_ll", "span",
          (("bhtmm.tasks", "marginal_log_likelihood"),), _tree(0)),
    Layer("inference.label_marginals", "span",
          (("bhtmm.tasks", "node_label_marginals"),
           ("bhtmm.inference", "node_label_marginals")), _tree(0)),
    Layer("inference.state_marginals", "span",
          (("bhtmm.inference", "state_marginals"),), _tree(0)),
    Layer("model.dense_core", "span", (("bhtmm.model", "TfModelParams.dense_core"),)),
    Layer("model.checkpoint_save", "span",
          (("bhtmm.model", "save_checkpoint"),), size=_file_bytes),
    Layer("model.checkpoint_load", "span",
          (("bhtmm.model", "load_checkpoint"),), size=_file_bytes),
    Layer("trees.parse", "span", (("bhtmm.trees", "parse_corpus"),), _result_corpus),
    Layer("trees.format", "span", (("bhtmm.trees", "format_corpus"),), _corpus(0)),
    Layer("tasks.train_classifier", "span", (("bhtmm.tasks", "train_classifier"),)),
    # Self time of the eval spans is per-node bookkeeping outside inference.
    Layer("tasks.eval_labelling", "span", (("bhtmm.tasks", "eval_labelling"),)),
    Layer("tasks.eval_classification", "span",
          (("bhtmm.tasks", "eval_classification"),)),
    Layer("tasks.classify", "span", (("bhtmm.tasks", "classify"),)),
    Layer("model.core_entry", "count", (("bhtmm.model", "TfModelParams.core_entry"),)),
    Layer("rand.categorical", "count",
          (("bhtmm.gibbs", "categorical"), ("bhtmm.sp", "categorical"),
           ("bhtmm.inference", "categorical"))),
    Layer("rand.dirichlet_rows", "count",
          (("bhtmm.model", "dirichlet_rows"), ("bhtmm.gibbs", "dirichlet_rows"),
           ("bhtmm.sp", "dirichlet_rows"))),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)


class Recorder:
    """Spans and counts held in memory until the run ends."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.nodes = dict.fromkeys(LAYER_NAMES, 0)
        self.bytes = dict.fromkeys(LAYER_NAMES, 0)
        self.lazy_draws = 0
        self.chains = []

    def span(self, name, fn, nodes, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            if nodes is not None:
                self.nodes[name] += nodes(args, result)
            if size is not None:
                self.bytes[name] += size(args, result)
            if name == "gibbs.other":
                self.chains.append(result)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls
        if name == "model.core_entry":

            @functools.wraps(fn)
            def core_entry(params, key):
                calls[name] += 1
                if key not in params.core:
                    self.lazy_draws += 1
                return fn(params, key)

            return core_entry

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def times(self):
        """Per layer: summed span durations, and the same minus the part
        that child spans cover (self time)."""
        durations = np.array(self.ends, dtype=np.float64) - np.array(self.starts)
        child_cover = np.zeros(len(durations))
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child_cover, parents[has_parent], durations[has_parent])
        total = dict.fromkeys(LAYER_NAMES, 0.0)
        own = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, dur, cover in zip(self.names, durations, child_cover):
            total[name] += float(dur)
            own[name] += float(dur - cover)
        return total, own

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name, path, make):
        """Replace one attribute by ``make(original function)``."""
        owner, attr = _resolve(module_name, path)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            new = classmethod(make(static.__func__))
        else:
            new = make(getattr(owner, attr))
        self._saved.append((owner, attr, static))
        setattr(owner, attr, new)

    def undo(self):
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def install(patches, recorder):
    """Wrap every target of ``LAYERS``: counts innermost, spans outside."""
    for layer in LAYERS:
        if layer.kind == "count":
            for module_name, path in layer.targets:
                patches.replace(
                    module_name, path,
                    lambda fn, name=layer.name: recorder.count(name, fn),
                )
    for layer in LAYERS:
        if layer.kind == "span":
            for module_name, path in layer.targets:
                patches.replace(
                    module_name, path,
                    lambda fn, layer=layer: recorder.span(
                        layer.name, fn, layer.nodes, layer.size
                    ),
                )
