"""Positional labelled trees and tree corpora.

Every node carries a categorical label and a fixed number of positional
child slots; absent slots are kept explicit because slot positions are
meaningful to the models built on top of this module.

Corpora live in a line-based text format::

    L=3 M=4 CLASSES=2
    SYM 0 paragraph
    (1 (0) _ (2 _ (0))) | 1

The header declares the slot count ``L``, the label alphabet size ``M``
and optionally a class count. ``SYM`` lines attach human-readable names
to integer labels. Each remaining line is one tree written as an
s-expression ``(label slot1 ... slotL)`` where a slot is ``_`` for an
empty position or a nested tree; trailing empty slots may be omitted.
An optional ``| c`` suffix assigns the tree to class ``c``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import DomainError, ParseError, StructureError


class LabelledTree:
    """Immutable rooted tree with positional child slots.

    Nodes are integers ``0 .. n_nodes - 1`` with the root at index 0.
    Structure is stored column-wise: ``labels``, ``parent`` (-1 for the
    root), ``position`` (slot under the parent; 0 for the root) and
    ``children`` with shape ``(n_nodes, n_slots)`` holding child ids or
    -1 for empty slots. Construction validates connectivity; instances
    must not be mutated afterwards.
    """

    def __init__(self, labels, parent, position, children, n_slots):
        self.labels = np.array(labels, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.position = np.array(position, dtype=np.int64)
        self.children = np.array(children, dtype=np.int64)
        self.n_slots = int(n_slots)
        self._heights = self._validate()
        self._lock()

    def _lock(self):
        for table in (self.labels, self.parent, self.position, self.children, self._heights):
            table.setflags(write=False)

    @property
    def n_nodes(self):
        return len(self.labels)

    @property
    def root(self):
        return 0

    def _validate(self):
        """Raise ``StructureError``, naming an offending node where there
        is one, unless the tables form one tree rooted at node 0; return
        each node's height."""
        n = self.n_nodes
        if n == 0:
            raise StructureError("a tree needs at least one node")
        if self.parent.shape != (n,) or self.position.shape != (n,):
            raise StructureError(f"parent and position need one entry per node ({n})")
        if self.children.shape != (n, self.n_slots):
            raise StructureError("children table has the wrong shape")
        if self.parent[0] != -1:
            raise StructureError("exactly one root (node 0) is required")
        extra = np.flatnonzero(self.parent[1:] < 0)
        if len(extra):
            raise StructureError(f"node {extra[0] + 1} is a second root")
        bad = np.flatnonzero(((self.children >= n) | (self.children < -1)).any(axis=1))
        if len(bad):
            raise StructureError(f"node {bad[0]} has a child reference out of range")
        # Parent/position bookkeeping must agree with the slot table.
        node, slot = np.nonzero(self.children >= 0)
        kid = self.children[node, slot]
        wrong = np.flatnonzero((self.parent[kid] != node) | (self.position[kid] != slot))
        if len(wrong):
            i = wrong[0]
            raise StructureError(f"node {kid[i]} disagrees with slot {slot[i]} of node {node[i]}")
        # Every node now fills at most one slot and the root none, so the
        # walk down from the root, one depth level at a time, reaches no
        # node twice and ends; a node it misses is an orphan or on a cycle.
        depths = [np.zeros(1, dtype=np.int64)]
        while len(depths[-1]):
            kids = self.children[depths[-1]]
            depths.append(kids[kids >= 0])
        seen = np.zeros(n, dtype=bool)
        seen[np.concatenate(depths)] = True
        if not seen.all():
            raise StructureError(f"node {np.argmin(seen)} is not reachable from the root")
        # Entry -1, which an empty slot selects, is below every leaf; the
        # deepest level goes first, so children are done before parents.
        heights = np.full(n + 1, -1, dtype=np.int64)
        for nodes in reversed(depths[:-1]):
            heights[nodes] = heights[self.children[nodes]].max(axis=1) + 1
        return heights[:-1]

    @cached_property
    def leaf_mask(self):
        mask = ~(self.children >= 0).any(axis=1)
        mask.setflags(write=False)
        return mask

    def leaves(self):
        """Node ids with no occupied child slot, in ascending id order."""
        return np.flatnonzero(self.leaf_mask)

    @cached_property
    def _order(self):
        order = np.argsort(self._heights, kind="stable")
        order.setflags(write=False)
        return order

    def bottom_up_order(self):
        """All node ids ordered so children precede parents.

        Nodes are grouped by height (leaves first, root last) and by id
        within a group, which makes the order deterministic.
        """
        return self._order

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock()  # unpickled arrays come back writable

    @cached_property
    def internal_nodes(self):
        """Non-leaf node ids in bottom-up order."""
        order = self.bottom_up_order()
        return order[~self.leaf_mask[order]]

    def child_counts(self):
        return (self.children >= 0).sum(axis=1)

    def to_text(self):
        """Canonical s-expression; trailing empty slots are dropped.
        One pre-order pass over a stack, so deep chains format too, and
        in time and memory linear in the node count."""
        children = self.children.tolist()
        # Each node's text opens with a space, which the root's drops at the end.
        opens = [f" ({label}" for label in self.labels.tolist()]
        literal = (")", " _")  # what stack entries -2 and -1 (an empty slot) write
        tokens, stack = [], [0]
        while stack:
            u = stack.pop()
            if u < 0:
                tokens.append(literal[u])
                continue
            slots = children[u]
            while slots and slots[-1] < 0:
                slots.pop()
            if slots:
                tokens.append(opens[u])
                stack.append(-2)
                stack += reversed(slots)
            else:
                tokens.append(opens[u] + ")")
        return "".join(tokens)[1:]

    def __eq__(self, other):
        """Structural equality: same labels at the same occupied positions.

        Node numbering is irrelevant; the canonical text form is the
        invariant."""
        if not isinstance(other, LabelledTree):
            return NotImplemented
        return self.n_slots == other.n_slots and self.to_text() == other.to_text()

    def __repr__(self):
        return f"LabelledTree({self.to_text()!r}, n_slots={self.n_slots})"


class TreeBuilder:
    """Incremental construction of a LabelledTree.

    The first ``add`` creates the root; later calls attach nodes to an
    existing parent slot. Labels may be revised before ``build``.
    """

    def __init__(self, n_slots):
        if n_slots < 1:
            raise StructureError("n_slots must be at least 1")
        self.n_slots = int(n_slots)
        self.labels = []
        self.parent = []
        self.position = []
        self.children = []

    def add(self, label, parent=None, position=0):
        u = len(self.labels)
        if parent is None:
            if u != 0:
                raise StructureError("only the first node may be the root")
            self.parent.append(-1)
            self.position.append(0)
        else:
            if not 0 <= parent < u:
                raise StructureError(f"unknown parent {parent}")
            if not 0 <= position < self.n_slots:
                raise DomainError(f"slot {position} outside 0..{self.n_slots - 1}")
            if self.children[parent][position] >= 0:
                raise StructureError(
                    f"slot {position} of node {parent} is already occupied"
                )
            self.parent.append(parent)
            self.position.append(position)
            self.children[parent][position] = u
        self.labels.append(int(label))
        self.children.append([-1] * self.n_slots)
        return u

    def set_label(self, node, label):
        self.labels[node] = int(label)

    def build(self):
        return LabelledTree(
            self.labels, self.parent, self.position, self.children, self.n_slots
        )


@dataclass(frozen=True)
class TreeCorpus:
    """A set of i.i.d. trees sharing one slot count and label alphabet.

    ``pack`` is the corpus packed into flat arrays (``PackedCorpus``),
    built on first use and kept: training and inference over the corpus
    all read this one pack, and inference folds it, once per key and on
    its first read, into its distinct subtrees (``PackedCorpus.fold``).
    Nothing builds it at construction, in ``subset`` or on a split, and
    it is never pickled: an unpickled corpus builds its own.
    """

    trees: tuple
    n_slots: int
    n_labels: int
    class_labels: tuple | None = None
    n_classes: int | None = None
    symbols: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_slots < 1 or self.n_labels < 1:
            raise DomainError("corpus needs n_slots >= 1 and n_labels >= 1")
        for i, tree in enumerate(self.trees):
            if tree.n_slots != self.n_slots:
                raise DomainError(f"tree {i} declares {tree.n_slots} slots")
            bad = tree.labels[(tree.labels < 0) | (tree.labels >= self.n_labels)]
            if len(bad):
                raise DomainError(f"tree {i} has label {bad[0]} outside the alphabet")
        if self.class_labels is not None:
            if len(self.class_labels) != len(self.trees):
                raise DomainError("class_labels must have one entry per tree")
            if self.n_classes is not None:
                for c in self.class_labels:
                    if not 0 <= c < self.n_classes:
                        raise DomainError(f"class {c} outside 0..{self.n_classes - 1}")

    def __len__(self):
        return len(self.trees)

    @cached_property
    def pack(self):
        """This corpus's ``PackedCorpus``: read-only, and the one that folds."""
        pack = PackedCorpus(self.trees, self.n_slots)
        pack._hold()
        return pack

    def __getstate__(self):
        # ``--jobs`` payloads carry corpora; the pack is rebuilt where used.
        return {k: v for k, v in self.__dict__.items() if k != "pack"}

    def subset(self, indices):
        classes = None
        if self.class_labels is not None:
            classes = tuple(self.class_labels[i] for i in indices)
        return TreeCorpus(
            trees=tuple(self.trees[i] for i in indices),
            n_slots=self.n_slots,
            n_labels=self.n_labels,
            class_labels=classes,
            n_classes=self.n_classes,
            symbols=dict(self.symbols),
        )


class PackedCorpus:
    """Trees stored once as flat arrays over global node ids.

    Node ``u`` of tree ``i`` has id ``offsets[i] + u``; per node there
    are ``children`` (ids, -1 when empty), ``labels``, ``position``,
    ``tree`` (the owner) and ``leaf_mask``. ``levels[h]`` lists the ids
    of height ``h``: children sit lower than parents, so a bottom-up
    pass can take one level of every tree at once. ``order`` chains the
    levels (one tree: its ``bottom_up_order()``) between ``bounds``;
    ``internal`` is its non-leaf tail, and ``internal_children`` their
    ``children``, built on first use (by training). Iterating yields the trees.

    One tree has zero offsets, so its own read-only tables are the
    pack's: nothing is copied. The pack a corpus holds
    (``TreeCorpus.pack``) is read-only and folds into its distinct
    subtrees (``fold``); a pack built any other way is for one call and
    its ``fold`` only renumbers its nodes bottom up.
    """

    def __init__(self, trees, n_slots):
        self.trees = tuple(trees)
        self.n_slots = int(n_slots)
        # Folds by key, kept only by a corpus's own pack (see ``fold``).
        self._folds = None
        if len(self.trees) == 1:
            (tree,) = self.trees
            self.offsets = np.array([0, tree.n_nodes])
            self.tree = np.zeros(tree.n_nodes, dtype=np.int64)
            self._index(tree.children, tree.leaf_mask, tree.labels, tree.position,
                        tree._heights)
            return
        sizes = [t.n_nodes for t in self.trees]
        self.offsets = np.array([0, *accumulate(sizes)])
        self.tree = np.repeat(np.arange(len(sizes)), sizes)

        def stack(attr, shape=(0,)):
            return np.concatenate([np.empty(shape, np.int64)]
                                  + [getattr(t, attr) for t in self.trees])

        kids = stack("children", (0, self.n_slots))
        occupied = kids >= 0
        self._index(np.where(occupied, kids + self.offsets[self.tree, None], -1),
                    ~occupied.any(axis=1), stack("labels"), stack("position"),
                    stack("_heights"))

    def _index(self, children, leaf_mask, labels, position, height):
        """Set the per-node tables and the level index."""
        self.children, self.leaf_mask = children, leaf_mask
        self.labels, self.position = labels, position
        self.n_nodes = len(labels)
        # Python ints: slicing with them is cheaper than with numpy scalars,
        # which counts when one small tree is packed per call.
        self._level(height.argsort(kind="stable"),
                    (0, *accumulate(np.bincount(height, minlength=1).tolist())))

    def _level(self, order, bounds):
        self.order, self.bounds = order, bounds
        self.levels = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        self.internal = order[bounds[1]:]

    def _bottom_up_pack(self, children, leaf_mask, labels, position, bounds):
        """A ``folded`` pack for ``fold``: the given tables over ids
        numbered bottom up, level ``h`` from ``bounds[h]`` to ``bounds[h + 1]``."""
        pack = PackedCorpus.__new__(PackedCorpus)
        pack.trees, pack.n_slots, pack._folds = (), self.n_slots, None
        pack.offsets, pack.tree = np.zeros(1, np.int64), np.empty(0, np.int64)
        pack.children, pack.leaf_mask = children, leaf_mask
        pack.labels, pack.position = labels, position
        pack.n_nodes = len(labels)
        pack._level(np.arange(pack.n_nodes), bounds)
        return pack

    @cached_property
    def internal_children(self):
        kids = self.children[self.internal]
        kids.setflags(write=False)
        return kids

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def _hold(self):
        """Make this a corpus's kept pack: read-only, and folding. A pack
        for one call skips both, which it would pay for on every tree."""
        self._folds = {}
        self._lock()

    def _lock(self):
        for table in (self.offsets, self.tree, self.children, self.leaf_mask, self.labels,
                      self.position, self.order, self.internal, *self.levels):
            table.setflags(write=False)

    def fold(self, labelled):
        """``(unique, folded)`` for one inference read of this pack:
        ``folded`` is a pack whose ids run bottom up, level ``h`` the ids
        ``folded.bounds[h]`` to ``folded.bounds[h + 1]`` (its ``order``
        is ``arange``), and ``unique[u]`` is node ``u``'s id in it. A
        bottom-up pass over ``folded`` gathered at ``unique`` is the pass
        over this pack. ``folded`` serves only ``upward``: it holds no
        trees, so its ``len``, iteration and ``tree`` are empty.

        The pack a corpus holds folds into its distinct subtrees, on the
        first read with a key, and keeps that fold for every later read.
        Two nodes merge when their subtrees are the same: a leaf by its
        slot position, an internal node by its children's merged ids per
        slot (-1 for an empty slot), and, when ``labelled``, by their
        labels at every node.

        Any other pack is for one call, where folding costs more than it
        saves: its fold is its own nodes renumbered bottom up (``unique``
        the rank of each node in ``order``), the same for either key and
        computed once per pack, so the class models of one call share it.
        """
        if self._folds is None:
            return self._renumbered
        if labelled not in self._folds:
            self._folds[labelled] = self._distinct(labelled)
        return self._folds[labelled]

    @cached_property
    def _renumbered(self):
        """``fold`` of a pack for one call: ``(rank, renumbered)``."""
        order = self.order
        rank = np.empty(self.n_nodes + 1, dtype=np.int64)
        rank[order] = np.arange(self.n_nodes)
        rank[-1] = -1  # what an empty slot (child id -1) reads
        return rank[:-1], self._bottom_up_pack(
            rank[self.children.take(order, axis=0)], self.leaf_mask[order],
            self.labels[order], self.position[order], self.bounds)

    def _distinct(self, labelled):
        """Compute ``fold(labelled)`` of a held pack, one height level at a time."""
        merged = np.empty(self.n_nodes + 1, dtype=np.int64)
        merged[-1] = -1  # what an empty slot (child id -1) reads
        n_labels = int(self.labels.max(initial=0)) + 1
        reps, total = [], 0
        for height, nodes in enumerate(self.levels):
            if height == 0:
                columns = [(self.position[nodes], self.n_slots)]
            else:
                kids = merged[self.children[nodes]] + 1
                columns = [(col, total + 1) for col in kids.T]
            if labelled:
                columns.append((self.labels[nodes], n_labels))
            key, span = np.zeros(len(nodes), dtype=np.int64), 1
            for col, base in columns:
                if span * base >= 2**63:
                    _, key = np.unique(key, return_inverse=True)
                    span = len(nodes)
                key = key * base + col
                span *= base
            # Without ``return_index`` the sort need not be stable, which
            # is several times faster; any node of a class represents it.
            distinct, inverse = np.unique(key, return_inverse=True)
            merged[nodes] = total + inverse
            rep = np.empty(len(distinct), dtype=np.int64)
            rep[inverse] = nodes
            reps.append(rep)
            total += len(rep)
        rep = np.concatenate(reps)
        folded = self._bottom_up_pack(merged[self.children[rep]], self.leaf_mask[rep],
                                      self.labels[rep], self.position[rep],
                                      (0, *accumulate(map(len, reps))))
        folded._lock()
        unique = merged[:-1]
        unique.setflags(write=False)
        return unique, folded


# Header bounds, far above real corpora; every node holds L child ids.
MAX_SLOTS, MAX_LABELS = 1_024, 1_000_000
_HEADER = re.compile(r"^L=(\d+)\s+M=(\d+)(?:\s+CLASSES=(\d+))?\s*$")
_TOKEN = re.compile(r"[()_|]|[^()\s_|]+")


def _integer(token, message, line_no, signed=True):
    """``token`` as an int: at most 4,000 ASCII digits (under Python's
    int conversion limit), after one leading '-' if ``signed``; anything
    else raises ``ParseError(message)``."""
    digits = token[1:] if signed and token[:1] == "-" else token
    if digits.isascii() and digits.isdigit() and len(digits) <= 4000:
        return int(token)
    raise ParseError(message, line_no)


def _parse_tree_line(line, n_slots, n_labels, line_no):
    """Parse one ``(label slots...) [| class]`` line."""
    tokens = _TOKEN.findall(line)
    class_label = None
    if "|" in tokens:
        bar = tokens.index("|")
        tail = tokens[bar + 1 :]
        class_label = _integer(tail[0] if len(tail) == 1 else "",
                               "expected a single class integer after '|'", line_no)
        tokens = tokens[:bar]
    builder = TreeBuilder(n_slots)
    stack = []  # (node id, slots consumed so far)
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            label = _integer(tokens[pos] if pos < len(tokens) else "",
                             "expected a label after '('", line_no)
            if not 0 <= label < n_labels:
                raise DomainError(f"label {label} outside 0..{n_labels - 1}", line_no)
            if stack:
                parent, used = stack[-1]
                if used >= n_slots:
                    raise DomainError(
                        f"more than {n_slots} child slots on one node", line_no
                    )
                node = builder.add(label, parent=parent, position=used)
                stack[-1] = (parent, used + 1)
            else:
                if builder.labels:
                    raise ParseError("more than one tree on a line", line_no)
                node = builder.add(label)
            stack.append((node, 0))
        elif tok == "_":
            if not stack:
                raise ParseError("'_' outside a tree", line_no)
            parent, used = stack[-1]
            if used >= n_slots:
                raise DomainError(
                    f"more than {n_slots} child slots on one node", line_no
                )
            stack[-1] = (parent, used + 1)
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line_no)
            stack.pop()
        else:
            raise ParseError(f"unexpected token {tok!r}", line_no)
        pos += 1
    if stack:
        raise ParseError("unbalanced '('", line_no)
    if not builder.labels:
        raise ParseError("empty tree", line_no)
    return builder.build(), class_label


def parse_corpus(text):
    """Parse a corpus document into a validated TreeCorpus."""
    lines = text.splitlines()
    header = None
    header_no = 0
    for line_no, raw in enumerate(lines, start=1):
        if raw.strip():
            header = _HEADER.match(raw.strip())
            header_no = line_no
            break
    if header is None:
        raise ParseError("missing 'L=<int> M=<int>' header", header_no or 1)
    n_slots, n_labels, n_classes = (
        None if digits is None
        else _integer(digits, "header integers need at most 4,000 digits", header_no,
                      signed=False)
        for digits in header.groups())
    if not (1 <= n_slots <= MAX_SLOTS and 1 <= n_labels <= MAX_LABELS):
        raise DomainError(f"header needs 1 <= L <= {MAX_SLOTS:,} and 1 <= M <= {MAX_LABELS:,}",
                          header_no)

    symbols = {}
    trees = []
    classes = []
    for line_no, raw in enumerate(lines[header_no:], start=header_no + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("SYM"):
            if trees:
                raise ParseError("SYM lines must precede the trees", line_no)
            parts = line.split(maxsplit=2)
            sym = _integer(parts[1] if len(parts) == 3 else "",
                           "expected 'SYM <int> <name>'", line_no, signed=False)
            if not 0 <= sym < n_labels:
                raise DomainError(f"symbol {sym} outside the alphabet", line_no)
            symbols[sym] = parts[2]
            continue
        tree, class_label = _parse_tree_line(line, n_slots, n_labels, line_no)
        if class_label is not None:
            if class_label < 0 or (n_classes is not None and class_label >= n_classes):
                raise DomainError(f"class {class_label} out of range", line_no)
        trees.append(tree)
        classes.append(class_label)

    have_classes = any(c is not None for c in classes)
    if have_classes:
        if any(c is None for c in classes):
            raise ParseError("either every tree or no tree carries a class", header_no)
        class_labels = tuple(classes)
        if n_classes is None:
            n_classes = max(class_labels) + 1
    else:
        class_labels = None
    return TreeCorpus(
        trees=tuple(trees),
        n_slots=n_slots,
        n_labels=n_labels,
        class_labels=class_labels,
        n_classes=n_classes,
        symbols=symbols,
    )


def format_corpus(corpus):
    """Serialise a corpus to its canonical text form (round-trip safe)."""
    head = f"L={corpus.n_slots} M={corpus.n_labels}"
    if corpus.n_classes is not None:
        head += f" CLASSES={corpus.n_classes}"
    out = [head]
    for sym in sorted(corpus.symbols):
        out.append(f"SYM {sym} {corpus.symbols[sym]}")
    for i, tree in enumerate(corpus.trees):
        line = tree.to_text()
        if corpus.class_labels is not None:
            line += f" | {corpus.class_labels[i]}"
        out.append(line)
    return "\n".join(out) + "\n"
