"""Model parameters, priors, and the hard-clustered transition factorisation.

The joint child-to-parent transition table of a bottom-up tree model has
``n_states ** (n_slots + 1)`` entries. Here it is represented in
factored form: per child slot, a hard clustering maps the extended child
state (the child's hidden state, or a reserved bottom symbol when the
slot is empty) to a cluster index, and a core table holds one state
simplex per tuple of cluster indices. Extended states use indices
``0 .. n_states``; index ``n_states`` is the bottom symbol.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .rand import dirichlet_rows

CHECKPOINT_FORMAT = "bhtmm-checkpoint"
CHECKPOINT_VERSION = 2

LATENT_RATIOS = ("cross", "plain")
# Tolerance on the row sums of a loaded probability table.
ROW_TOL = 1e-9
# Most cluster-grid cells ``TfModelParams.transition_map`` holds at once:
# with ten states and five active slots one node has 11**5 of them.
GRID_BUDGET = 2**20


@dataclass(frozen=True)
class HyperParams:
    """Run configuration for both model families.

    ``max_active`` defaults to ``n_slots``; ``core_conc`` and
    ``base_conc`` default to ``n_states``; ``anneal_iters`` defaults to
    half the iteration budget. ``latent_ratio`` selects the latent
    acceptance ratio: ``"cross"`` keeps the extra cross terms, ``"plain"``
    uses the bare proposed/current core-term ratio.
    """

    n_states: int
    n_slots: int
    n_labels: int
    size_decay: float = 2.0
    min_active: int = 1
    max_active: int | None = None
    core_conc: float | None = None
    base_conc: float | None = None
    leaf_conc: float = 1.0
    emit_conc: float = 1.0
    init_temp: float = 10.0
    anneal_iters: int | None = None
    iterations: int = 100
    seed: int = 0
    latent_ratio: str = "cross"

    def __post_init__(self):
        if self.max_active is None:
            object.__setattr__(self, "max_active", self.n_slots)
        if self.core_conc is None:
            object.__setattr__(self, "core_conc", float(self.n_states))
        if self.base_conc is None:
            object.__setattr__(self, "base_conc", float(self.n_states))
        if self.anneal_iters is None:
            object.__setattr__(self, "anneal_iters", max(1, self.iterations // 2))
        for name in ("size_decay", "core_conc", "base_conc", "leaf_conc", "emit_conc",
                     "init_temp"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.n_states < 1 or self.n_slots < 1 or self.n_labels < 1:
            raise ConfigError("n_states, n_slots and n_labels must be >= 1")
        if self.size_decay <= 0:
            raise ConfigError("size_decay must be positive")
        if not 1 <= self.min_active <= self.max_active <= self.n_slots:
            raise ConfigError("need 1 <= min_active <= max_active <= n_slots")
        for name in ("core_conc", "base_conc", "leaf_conc", "emit_conc"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.init_temp < 1:
            raise ConfigError("init_temp must be at least 1")
        if self.anneal_iters < 1:
            raise ConfigError("anneal_iters must be at least 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.latent_ratio not in LATENT_RATIOS:
            raise ConfigError(f"latent_ratio must be one of {LATENT_RATIOS}")

    def with_seed(self, seed):
        return replace(self, seed=int(seed))

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class HardClustering:
    """Per-slot hard assignment of extended child states to clusters.

    ``assign`` is a read-only ``(n_slots, n_states + 1)`` array:
    ``assign[l][j]`` is the cluster of extended state ``j`` at slot
    ``l``; ``k[l]`` is the cluster count there. Clusters are renumbered
    canonically by their smallest member, so equal partitions compare
    equal regardless of construction order. Instances are immutable;
    ``split`` and ``merge`` return new objects.
    """

    __slots__ = ("assign", "k")

    def __init__(self, assign):
        canon = []
        sizes = []
        for a in assign:
            a = np.asarray(a, dtype=np.int64)
            if a.ndim != 1 or len(a) < 2:
                raise DomainError("each slot needs n_states + 1 extended states")
            if a.min() < 0:
                raise DomainError("negative cluster index")
            # Renumber the distinct cluster ids by their smallest member;
            # dead clusters are therefore unrepresentable.
            remap = {}
            for cid in a.tolist():
                if cid not in remap:
                    remap[cid] = len(remap)
            canon.append([remap[cid] for cid in a.tolist()])
            sizes.append(len(remap))
        self.assign = np.array(canon, dtype=np.int64)
        self.assign.setflags(write=False)
        self.k = tuple(sizes)

    @property
    def n_slots(self):
        return len(self.assign)

    @property
    def n_states(self):
        return self.assign.shape[1] - 1

    @classmethod
    def trivial(cls, n_states, n_slots):
        """One cluster per slot: children do not influence the parent state."""
        return cls([np.zeros(n_states + 1, dtype=np.int64)] * n_slots)

    @classmethod
    def identity(cls, n_states, n_slots):
        """Every extended state in its own cluster."""
        return cls([np.arange(n_states + 1, dtype=np.int64)] * n_slots)

    def cells(self, ext):
        """Raveled cell of the cluster grid ``k`` (C order, as
        ``np.ravel_multi_index`` of the slots' clusters) for extended
        child states, one slot per entry along the last axis of ``ext``.
        Only slots with more than one cluster are read."""
        cells = np.zeros(np.shape(ext)[:-1], dtype=np.int64)
        stride = 1
        for l in reversed(range(self.n_slots)):
            if self.k[l] > 1:
                cells += self.assign[l][ext[..., l]] * stride
                stride *= self.k[l]
        return cells

    def members(self, slot, cluster):
        return np.flatnonzero(self.assign[slot] == cluster)

    def n_active(self):
        """Number of slots whose cluster count differs from one."""
        return sum(1 for k in self.k if k != 1)

    def split(self, slot, cluster, movers):
        """Move ``movers`` out of ``cluster`` at ``slot`` into a new cluster."""
        a = self.assign[slot].copy()
        movers = np.asarray(list(movers), dtype=np.int64)
        if np.any(a[movers] != cluster):
            raise DomainError("movers must belong to the split cluster")
        if len(movers) == 0 or len(movers) == len(self.members(slot, cluster)):
            raise DomainError("a split must leave both sides non-empty")
        a[movers] = self.k[slot]
        return self._with_slot(slot, a)

    def merge(self, slot, first, second):
        """Fuse two clusters of ``slot`` into one."""
        if first == second:
            raise DomainError("cannot merge a cluster with itself")
        a = self.assign[slot].copy()
        a[a == second] = first
        return self._with_slot(slot, a)

    def _with_slot(self, slot, array):
        """This clustering with ``array`` at ``slot``, renumbered by first
        occurrence there; the other slots are canonical already."""
        _, first, inverse = np.unique(array, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        new = HardClustering.__new__(HardClustering)
        new.assign = self.assign.copy()
        new.assign[slot] = rank[inverse]
        new.assign.setflags(write=False)
        new.k = self.k[:slot] + (len(first),) + self.k[slot + 1:]
        return new

    def __eq__(self, other):
        if not isinstance(other, HardClustering):
            return NotImplemented
        return np.array_equal(self.assign, other.assign)

    def __repr__(self):
        return f"HardClustering(k={self.k})"


class NodeTables:
    """Sizes read off the tables both model kinds share: ``leaf_prior``
    is ``(n_slots, n_states)`` and ``emission`` ``(n_states, n_labels)``."""

    @property
    def n_states(self):
        return self.leaf_prior.shape[1]

    @property
    def n_slots(self):
        return self.leaf_prior.shape[0]

    @property
    def n_labels(self):
        return self.emission.shape[1]


def init_node_tables(hyper, rng):
    """Prior draws of the leaf prior, then the emission table."""
    return (dirichlet_rows(np.full((hyper.n_slots, hyper.n_states), hyper.leaf_conc), rng),
            dirichlet_rows(np.full((hyper.n_states, hyper.n_labels), hyper.emit_conc), rng))


class TfModelParams(NodeTables):
    """Parameters of the tensor-factorised model.

    ``core`` is one complete ``(prod(clustering.k), n_states)`` table of
    state simplexes: row ``r`` belongs to the cluster tuple whose C-order
    raveled index is ``r``, the cell ``clustering.cells`` gives. Every
    redraw replaces it whole, so no read ever draws. ``transition_map``
    is built on first use and kept until a field is assigned.
    """

    def __init__(self, leaf_prior, emission, base_measure, clustering, core, core_conc):
        self.leaf_prior = np.asarray(leaf_prior, dtype=np.float64)
        self.emission = np.asarray(emission, dtype=np.float64)
        self.base_measure = np.asarray(base_measure, dtype=np.float64)
        self.clustering = clustering
        self.core = np.asarray(core, dtype=np.float64)
        self.core_conc = float(core_conc)

    def __setattr__(self, name, value):
        # Every field feeds the map, so an assignment drops the cached one.
        self.__dict__.pop("_step", None)
        object.__setattr__(self, name, value)

    def __getstate__(self):
        # The cached map is a closure, which does not pickle.
        return {k: v for k, v in self.__dict__.items() if k != "_step"}

    def core_entry(self, key):
        """The state simplex for one cluster tuple: the cell of its clusters' first members."""
        first = np.array([self.clustering.members(l, c)[0] for l, c in enumerate(key)])
        return self.core[self.clustering.cells(first)]

    def dense_core(self):
        """The whole ``core``."""
        return self.core

    def transition_map(self):
        """Parent-state rows of a stack of extended child distributions,
        ``(m, n_slots, n_states + 1)`` to ``(m, n_states)``: the outer
        product of each slot's projection onto its clusters weights the
        core rows, in blocks of at most ``GRID_BUDGET`` grid cells. A
        distribution projects onto a lone cluster with weight one, so
        one-cluster slots are left out of the grid."""
        step = self.__dict__.get("_step")
        if step is not None:
            return step
        core = self.core
        slots = [l for l, k in enumerate(self.clustering.k) if k > 1]
        if slots:
            bounds = np.cumsum([0] + [self.clustering.k[l] for l in slots])
            # Slot slots[i]'s extended states feed columns bounds[i]... by cluster.
            width = self.n_states + 1
            project = np.zeros((self.n_slots * width, bounds[-1]))
            for i, l in enumerate(slots):
                project[l * width + np.arange(width), bounds[i] + self.clustering.assign[l]] = 1.0
            block = max(1, GRID_BUDGET // len(core))

            def rows(part):
                clusters = part.reshape(len(part), -1) @ project
                grid = clusters[:, :bounds[1]]
                for a, b in zip(bounds[1:-1], bounds[2:]):
                    grid = (grid[:, :, None] * clusters[:, None, a:b]).reshape(len(part), -1)
                return grid @ core

            def step(child_ext):
                if len(child_ext) <= block:
                    return rows(child_ext)
                return np.concatenate([rows(child_ext[start:start + block])
                                       for start in range(0, len(child_ext), block)])
        else:
            def step(child_ext):
                return np.repeat(core, len(child_ext), axis=0)

        object.__setattr__(self, "_step", step)
        return step


@dataclass
class SpModelParams(NodeTables):
    """Parameters of the switching-parent baseline.

    ``child_transitions[l]`` is a ``(n_states + 1, n_states)`` table
    whose rows are indexed by the extended state of the child in slot
    ``l`` (bottom row included); ``switch_weights`` mixes the slots.
    """

    leaf_prior: np.ndarray
    emission: np.ndarray
    switch_weights: np.ndarray
    child_transitions: np.ndarray

    def transition_map(self):
        """Parent-state rows of a stack of extended child distributions,
        ``(m, n_slots, n_states + 1)`` to ``(m, n_states)``: the
        switch-weighted sum over slots of each child's distribution times
        its slot's transition table."""
        weighted = (self.switch_weights[:, None, None] * self.child_transitions).reshape(
            -1, self.n_states)
        return lambda child_ext: child_ext.reshape(len(child_ext), -1) @ weighted


def size_prior_log(k_l, size_decay):
    """Unnormalised log prior of one slot's cluster count.

    Exponential decay ``exp(-size_decay * k_l)``; only ratios of this
    prior are ever used, so the normaliser is dropped.
    """
    if k_l < 1:
        raise DomainError("cluster counts start at 1")
    if size_decay <= 0:
        raise DomainError("size_decay must be positive")
    return -size_decay * k_l


@dataclass(frozen=True)
class StorageCost:
    explicit: int
    factored: int
    saturated: bool


def storage_cost(n_states, n_slots, k):
    """Entry counts of the explicit vs the factored transition table.

    ``explicit`` is ``n_states ** (n_slots + 1)``; ``factored`` is the
    core size plus the per-slot assignment tables. ``saturated`` flags
    an explicit count beyond 64-bit range (the exact value is still
    returned, Python integers permitting).
    """
    if n_states < 1 or n_slots < 1:
        raise DomainError("need n_states >= 1 and n_slots >= 1")
    k = tuple(int(v) for v in k)
    if len(k) != n_slots or any(v < 1 or v > n_states + 1 for v in k):
        raise DomainError("k needs one entry in [1, n_states + 1] per slot")
    explicit = n_states ** (n_slots + 1)
    core = n_states
    for v in k:
        core *= v
    modes = sum((n_states + 1) * v for v in k)
    return StorageCost(explicit, core + modes, explicit > 2**63 - 1)


def init_clustering(hyper, rng):
    """Starting clustering: ``min_active`` random slots get two clusters.

    The chosen slots receive a uniformly random non-trivial split of the
    extended alphabet; all other slots collapse to a single cluster, so
    the active-slot window holds from the first sweep.
    """
    n = hyper.n_states
    active = rng.choice(hyper.n_slots, size=hyper.min_active, replace=False)
    arrays = []
    for l in range(hyper.n_slots):
        a = np.zeros(n + 1, dtype=np.int64)
        if l in active:
            while True:
                mask = rng.random(n + 1) < 0.5
                if 0 < mask.sum() < n + 1:
                    break
            a[mask] = 1
        arrays.append(a)
    return HardClustering(arrays)


def init_params(hyper, rng):
    """Draw fresh factored-model parameters from their priors, the whole
    core last, in one call."""
    leaf_prior, emission = init_node_tables(hyper, rng)
    base_measure = dirichlet_rows(np.full(hyper.n_states, hyper.base_conc / hyper.n_states), rng)
    clustering = init_clustering(hyper, rng)
    core = dirichlet_rows(np.broadcast_to(hyper.core_conc * base_measure,
                                          (math.prod(clustering.k), hyper.n_states)), rng)
    return TfModelParams(leaf_prior, emission, base_measure, clustering, core, hyper.core_conc)


def _array_to_lists(a):
    return np.asarray(a, dtype=np.float64).tolist()


def _params_to_dict(kind, params):
    out = {
        "leaf_prior": _array_to_lists(params.leaf_prior),
        "emission": _array_to_lists(params.emission),
    }
    if kind == "tf":
        out["base_measure"] = _array_to_lists(params.base_measure)
        out["clustering"] = params.clustering.assign.tolist()
        keys = itertools.product(*map(range, params.clustering.k))
        out["core"] = [[list(key), row] for key, row in zip(keys, params.core.tolist())]
        out["core_conc"] = params.core_conc
    else:
        out["switch_weights"] = _array_to_lists(params.switch_weights)
        out["child_transitions"] = _array_to_lists(params.child_transitions)
    return out


def save_checkpoint(path, kind, hyper, params):
    """Write a model checkpoint atomically.

    The canonical JSON (sorted keys, exact float reprs) round-trips
    bit-exactly through ``load_checkpoint``. A tf core is stored whole,
    one row per cluster tuple in lexicographic order.
    """
    if kind not in ("tf", "sp"):
        raise ConfigError(f"unknown model kind {kind!r}")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "hyper": hyper.to_dict(),
        "params": _params_to_dict(kind, params),
    }
    write_text(path, json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def write_text(path, text):
    """Atomic UTF-8 write: a temp file in the same directory, then rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _prob_table(path, name, values, shape):
    """``values`` as an array of probability rows of the given shape."""
    table = np.array(values, dtype=np.float64)
    if table.shape != shape:
        raise ConfigError(f"{path}: {name} has shape {table.shape}, expected {shape}")
    if not (np.all(np.isfinite(table)) and np.all(table >= 0)
            and np.all(np.abs(table.sum(axis=-1) - 1.0) <= ROW_TOL)):
        raise ConfigError(f"{path}: {name} rows must be finite, non-negative and sum to 1")
    return table


def _ints(value):
    return isinstance(value, list) and all(type(v) is int for v in value)


def load_checkpoint(path):
    """Read a checkpoint back; returns ``(kind, hyper, params)``.

    A file that is not a checkpoint, lacks a key, has an invalid
    ``hyper`` block or clustering (entries must be JSON integers), holds
    a table whose shape disagrees with it or whose rows are not
    simplexes (to ``ROW_TOL``), a core key that is not a cluster tuple
    of the clustering or repeats one, a version 2 core that lacks a
    row, or a ``core_conc`` other than the hyper block's raises
    ``ConfigError`` naming ``path``. A version 1 tf file stores part of
    the core and a generator state: the missing rows are drawn from that
    generator in lexicographic key order, as its first read drew them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"{path}: not a model checkpoint")
        version = doc.get("version")
        if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
            raise ConfigError(f"{path}: unsupported checkpoint version")
        try:
            hyper = HyperParams(**doc["hyper"])
        except ConfigError as exc:
            raise ConfigError(f"{path}: invalid hyper block ({exc})") from None
        raw = doc["params"]
        kind = doc["kind"]
        if kind not in ("tf", "sp"):
            raise ConfigError(f"{path}: unknown model kind {kind!r}")
        n, slots = hyper.n_states, hyper.n_slots

        def table(name, *shape):
            return _prob_table(path, name, raw[name], shape)

        leaf_prior = table("leaf_prior", slots, n)
        emission = table("emission", n, hyper.n_labels)
        if kind == "tf":
            if not (isinstance(raw["clustering"], list) and all(map(_ints, raw["clustering"]))):
                raise ConfigError(f"{path}: clustering entries must be integers")
            try:
                clustering = HardClustering(raw["clustering"])
            except DomainError as exc:
                raise ConfigError(f"{path}: invalid clustering ({exc})") from None
            if clustering.n_slots != slots or clustering.n_states != n:
                raise ConfigError(f"{path}: clustering does not match hyper")
            if version == CHECKPOINT_VERSION and len(raw["core"]) < math.prod(clustering.k):
                raise ConfigError(f"{path}: core lacks rows of k={clustering.k}")
            core = np.full((math.prod(clustering.k), n), np.nan)
            # A key's row is its C-order raveled index.
            strides = np.cumprod((1,) + clustering.k[:0:-1])[::-1]
            for key, row in raw["core"]:
                if not (_ints(key) and len(key) == slots
                        and all(0 <= c < k for c, k in zip(key, clustering.k))):
                    raise ConfigError(f"{path}: core key {key} is not a cluster tuple "
                                      f"of k={clustering.k}")
                at = np.dot(key, strides)
                if not np.isnan(core[at, 0]):
                    raise ConfigError(f"{path}: core key {key} appears twice")
                core[at] = _prob_table(path, f"core row {key}", row, (n,))
            if raw["core_conc"] != hyper.core_conc:
                raise ConfigError(f"{path}: params.core_conc differs from hyper.core_conc")
            base_measure = table("base_measure", n)
            if version == 1:
                rng = np.random.default_rng()
                rng.bit_generator.state = raw["rng"]
                missing = np.isnan(core[:, 0])
                core[missing] = dirichlet_rows(np.broadcast_to(
                    hyper.core_conc * base_measure, (int(missing.sum()), n)), rng)
            params = TfModelParams(leaf_prior, emission, base_measure, clustering, core,
                                   hyper.core_conc)
        else:
            params = SpModelParams(
                leaf_prior=leaf_prior,
                emission=emission,
                switch_weights=table("switch_weights", slots),
                child_transitions=table("child_transitions", slots, n + 1, n),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: corrupt checkpoint ({type(exc).__name__}: {exc})") from None
    return kind, hyper, params
