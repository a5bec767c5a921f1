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

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .rand import dirichlet_rows

CHECKPOINT_FORMAT = "bhtmm-checkpoint"
CHECKPOINT_VERSION = 1

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
        if self.latent_ratio not in LATENT_RATIOS:
            raise ConfigError(f"latent_ratio must be one of {LATENT_RATIOS}")

    def with_seed(self, seed):
        return replace(self, seed=int(seed))

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class HardClustering:
    """Per-slot hard assignment of extended child states to clusters.

    ``assign[l][j]`` is the cluster of extended state ``j`` at slot
    ``l``; ``k[l]`` is the cluster count there, and ``table`` stacks the
    ``assign`` rows into one array. Clusters are renumbered
    canonically by their smallest member, so equal partitions compare
    equal regardless of construction order. Instances are immutable;
    ``split`` and ``merge`` return new objects.
    """

    __slots__ = ("assign", "k", "table")

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
        self.table = np.array(canon, dtype=np.int64)
        self.table.setflags(write=False)
        self.assign = tuple(self.table)
        self.k = tuple(sizes)

    @property
    def n_slots(self):
        return len(self.assign)

    @property
    def n_states(self):
        return len(self.assign[0]) - 1

    @classmethod
    def trivial(cls, n_states, n_slots):
        """One cluster per slot: children do not influence the parent state."""
        return cls([np.zeros(n_states + 1, dtype=np.int64)] * n_slots)

    @classmethod
    def identity(cls, n_states, n_slots):
        """Every extended state in its own cluster."""
        return cls([np.arange(n_states + 1, dtype=np.int64)] * n_slots)

    def cluster_of(self, slot, ext_state):
        return int(self.assign[slot][ext_state])

    def map_ext(self, ext_states):
        """Cluster tuple for a tuple of extended child states."""
        return tuple(int(self.assign[l][j]) for l, j in enumerate(ext_states))

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
        arrays = list(self.assign)
        arrays[slot] = array
        return HardClustering(arrays)

    def to_lists(self):
        return [a.tolist() for a in self.assign]

    def __eq__(self, other):
        if not isinstance(other, HardClustering):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.assign, other.assign))

    def __repr__(self):
        return f"HardClustering(k={self.k})"


class TfModelParams:
    """Parameters of the tensor-factorised model.

    ``core`` maps cluster tuples to state simplexes and is populated
    lazily: a missing entry is drawn from ``Dirichlet(core_conc *
    base_measure)`` on first access using the owned ``rng``. Reads that
    may materialise entries must therefore be serialised with writes
    (single-writer contract).
    """

    def __init__(self, leaf_prior, emission, base_measure, clustering, core,
                 core_conc, rng):
        self.leaf_prior = np.asarray(leaf_prior, dtype=np.float64)
        self.emission = np.asarray(emission, dtype=np.float64)
        self.base_measure = np.asarray(base_measure, dtype=np.float64)
        self.clustering = clustering
        self.core = dict(core)
        self.core_conc = float(core_conc)
        self.rng = rng

    @property
    def n_states(self):
        return self.leaf_prior.shape[1]

    @property
    def n_slots(self):
        return self.leaf_prior.shape[0]

    @property
    def n_labels(self):
        return self.emission.shape[1]

    def core_entry(self, key):
        """The state simplex for one cluster tuple, drawn lazily."""
        row = self.core.get(key)
        if row is None:
            row = dirichlet_rows(self.core_conc * self.base_measure, self.rng)
            self.core[key] = row
        return row

    def dense_core(self):
        """Materialise every cluster tuple into one array.

        Shape is ``clustering.k + (n_states,)``; missing entries are
        drawn in lexicographic key order so the result is deterministic
        for a given generator state.
        """
        k = self.clustering.k
        out = np.empty(k + (self.n_states,))
        for key in np.ndindex(*k):
            out[key] = self.core_entry(key)
        return out

    def transition_map(self):
        """Parent-state rows of a stack of extended child distributions,
        ``(m, n_slots, n_states + 1)`` to ``(m, n_states)``: the outer
        product of each slot's projection onto its clusters weights the
        core rows, materialised once, in blocks of at most ``GRID_BUDGET``
        grid cells. A distribution projects onto a lone cluster with
        weight one, so one-cluster slots are left out of the grid."""
        core = self.dense_core().reshape(-1, self.n_states)
        slots = [l for l, k in enumerate(self.clustering.k) if k > 1]
        if not slots:
            return lambda child_ext: np.repeat(core, len(child_ext), axis=0)
        bounds = np.cumsum([0] + [self.clustering.k[l] for l in slots])
        # Slot slots[i]'s extended states feed columns bounds[i]... by cluster.
        width = self.n_states + 1
        project = np.zeros((self.n_slots * width, bounds[-1]))
        for i, l in enumerate(slots):
            project[l * width + np.arange(width), bounds[i] + self.clustering.assign[l]] = 1.0
        block = max(1, GRID_BUDGET // len(core))

        def rows(child_ext):
            out = np.empty((len(child_ext), self.n_states))
            for start in range(0, len(child_ext), block):
                part = child_ext[start:start + block]
                clusters = part.reshape(len(part), -1) @ project
                grid = clusters[:, :bounds[1]]
                for a, b in zip(bounds[1:-1], bounds[2:]):
                    grid = (grid[:, :, None] * clusters[:, None, a:b]).reshape(len(part), -1)
                out[start:start + block] = grid @ core
            return out

        return rows


@dataclass
class SpModelParams:
    """Parameters of the switching-parent baseline.

    ``child_transitions[l]`` is a ``(n_states + 1, n_states)`` table
    whose rows are indexed by the extended state of the child in slot
    ``l`` (bottom row included); ``switch_weights`` mixes the slots.
    """

    leaf_prior: np.ndarray
    emission: np.ndarray
    switch_weights: np.ndarray
    child_transitions: np.ndarray

    @property
    def n_states(self):
        return self.leaf_prior.shape[1]

    @property
    def n_slots(self):
        return self.leaf_prior.shape[0]

    @property
    def n_labels(self):
        return self.emission.shape[1]

    def transition_map(self):
        """Parent-state rows of a stack of extended child distributions,
        ``(m, n_slots, n_states + 1)`` to ``(m, n_states)``: the
        switch-weighted sum over slots of each child's distribution times
        its slot's transition table."""
        weighted = (self.switch_weights[:, None, None] * self.child_transitions).reshape(
            -1, self.n_states)
        return lambda child_ext: child_ext.reshape(len(child_ext), -1) @ weighted


def reconstruct_transition(params, ext_states):
    """Parent-state simplex for one joint child configuration.

    With one-hot clustering rows the full double sum over cluster
    indices collapses to a single core lookup at the clusters of the
    given extended child states.
    """
    return params.core_entry(params.clustering.map_ext(ext_states))


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
    """Draw fresh factored-model parameters from their priors."""
    leaf_prior = dirichlet_rows(
        np.full((hyper.n_slots, hyper.n_states), hyper.leaf_conc), rng
    )
    emission = dirichlet_rows(
        np.full((hyper.n_states, hyper.n_labels), hyper.emit_conc), rng
    )
    base_measure = dirichlet_rows(
        np.full(hyper.n_states, hyper.base_conc / hyper.n_states), rng
    )
    clustering = init_clustering(hyper, rng)
    return TfModelParams(
        leaf_prior=leaf_prior,
        emission=emission,
        base_measure=base_measure,
        clustering=clustering,
        core={},
        core_conc=hyper.core_conc,
        rng=rng,
    )


def _array_to_lists(a):
    return np.asarray(a, dtype=np.float64).tolist()


def _params_to_dict(kind, params):
    out = {
        "leaf_prior": _array_to_lists(params.leaf_prior),
        "emission": _array_to_lists(params.emission),
    }
    if kind == "tf":
        out["base_measure"] = _array_to_lists(params.base_measure)
        out["clustering"] = params.clustering.to_lists()
        out["core"] = [
            [list(key), _array_to_lists(row)]
            for key, row in sorted(params.core.items())
        ]
        out["core_conc"] = params.core_conc
        out["rng"] = params.rng.bit_generator.state
    else:
        out["switch_weights"] = _array_to_lists(params.switch_weights)
        out["child_transitions"] = _array_to_lists(params.child_transitions)
    return out


def save_checkpoint(path, kind, hyper, params):
    """Write a model checkpoint atomically.

    The canonical JSON (sorted keys, exact float reprs) round-trips
    bit-exactly through ``load_checkpoint``.
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
    text = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
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


def load_checkpoint(path):
    """Read a checkpoint back; returns ``(kind, hyper, params)``.

    A file that is not a checkpoint, lacks a key, has an invalid
    ``hyper`` block or clustering, holds a table whose shape disagrees
    with it or whose rows are not simplexes (to ``ROW_TOL``), or a core
    key that is not a cluster tuple of the clustering or repeats one,
    raises ``ConfigError`` naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"{path}: not a model checkpoint")
        if doc.get("version") != CHECKPOINT_VERSION:
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
            rng = np.random.default_rng()
            rng.bit_generator.state = raw["rng"]
            try:
                clustering = HardClustering(raw["clustering"])
            except DomainError as exc:
                raise ConfigError(f"{path}: invalid clustering ({exc})") from None
            if clustering.n_slots != slots or {len(a) for a in clustering.assign} != {n + 1}:
                raise ConfigError(f"{path}: clustering does not match hyper")
            core = {}
            for key, row in raw["core"]:
                if not (isinstance(key, list) and len(key) == slots
                        and all(type(c) is int and 0 <= c < k
                                for c, k in zip(key, clustering.k))):
                    raise ConfigError(f"{path}: core key {key} is not a cluster tuple "
                                      f"of k={clustering.k}")
                if tuple(key) in core:
                    raise ConfigError(f"{path}: core key {key} appears twice")
                core[tuple(key)] = _prob_table(path, f"core row {key}", row, (n,))
            params = TfModelParams(
                leaf_prior=leaf_prior,
                emission=emission,
                base_measure=table("base_measure", n),
                clustering=clustering,
                core=core,
                core_conc=raw["core_conc"],
                rng=rng,
            )
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
