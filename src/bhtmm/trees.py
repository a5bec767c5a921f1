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
        self._validate()
        for table in (self.labels, self.parent, self.position, self.children):
            table.setflags(write=False)

    @property
    def n_nodes(self):
        return len(self.labels)

    @property
    def root(self):
        return 0

    def _validate(self):
        n = self.n_nodes
        if n == 0:
            raise StructureError("a tree needs at least one node")
        if self.children.shape != (n, self.n_slots):
            raise StructureError("children table has the wrong shape")
        roots = np.flatnonzero(self.parent == -1)
        if len(roots) != 1 or roots[0] != 0:
            raise StructureError("exactly one root (node 0) is required")
        if self.children.max(initial=-1) >= n or self.children.min(initial=-1) < -1:
            raise StructureError("child reference out of range")
        # Parent/position bookkeeping must agree with the slot table.
        for u in range(n):
            for l in range(self.n_slots):
                c = self.children[u, l]
                if c < 0:
                    continue
                if self.parent[c] != u or self.position[c] != l:
                    raise StructureError(
                        f"node {c} disagrees with slot {l} of node {u}"
                    )
        if np.any(self.parent[1:] < 0):
            raise StructureError("multiple roots")
        # Reachability from the root rules out cycles and orphans.
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                if c >= 0:
                    if seen[c]:
                        raise StructureError(f"node {c} reached twice")
                    seen[c] = True
                    stack.append(c)
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise StructureError(f"node {missing} is not reachable from the root")

    @cached_property
    def leaf_mask(self):
        return ~(self.children >= 0).any(axis=1)

    def leaves(self):
        """Node ids with no occupied child slot, in ascending id order."""
        return np.flatnonzero(self.leaf_mask)

    @cached_property
    def _heights(self):
        heights = np.zeros(self.n_nodes, dtype=np.int64)
        # Parents always precede children in BFS order, so a reverse
        # sweep sees every child before its parent.
        bfs = [0]
        for u in bfs:
            bfs.extend(c for c in self.children[u] if c >= 0)
        for u in reversed(bfs):
            kids = self.children[u]
            kids = kids[kids >= 0]
            if len(kids):
                heights[u] = heights[kids].max() + 1
        return heights

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

    @cached_property
    def internal_nodes(self):
        """Non-leaf node ids in bottom-up order."""
        order = self.bottom_up_order()
        return order[~self.leaf_mask[order]]

    def child_counts(self):
        return (self.children >= 0).sum(axis=1)

    def to_text(self):
        """Canonical s-expression; trailing empty slots are dropped."""
        parts = [None] * self.n_nodes
        for u in self.bottom_up_order():
            kids = self.children[u]
            last = max((l for l in range(self.n_slots) if kids[l] >= 0), default=-1)
            slots = ["_" if kids[l] < 0 else parts[kids[l]] for l in range(last + 1)]
            parts[u] = "(" + " ".join([str(self.labels[u])] + slots) + ")"
        return parts[0]

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
    """A set of i.i.d. trees sharing one slot count and label alphabet."""

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
    levels (one tree: its ``bottom_up_order()``); ``internal`` is its
    non-leaf tail. Iterating yields the trees.
    """

    def __init__(self, trees, n_slots):
        self.trees = tuple(trees)
        self.n_slots = int(n_slots)
        sizes = [t.n_nodes for t in self.trees]
        self.offsets = np.cumsum([0] + sizes)
        self.tree = np.repeat(np.arange(len(sizes)), sizes)

        def stack(attr, shape=(0,)):
            return np.concatenate([np.empty(shape, np.int64)]
                                  + [getattr(t, attr) for t in self.trees])

        kids = stack("children", (0, self.n_slots))
        self.children = np.where(kids >= 0, kids + self.offsets[self.tree, None], -1)
        self.labels = stack("labels")
        self.n_nodes = len(self.labels)
        self.position = stack("position")
        self.leaf_mask = ~(self.children >= 0).any(axis=1)
        height = stack("_heights")
        self.order = np.argsort(height, kind="stable")
        bounds = np.searchsorted(height[self.order], np.arange(height.max(initial=0) + 2))
        self.levels = [self.order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self.internal = self.order[bounds[1]:]

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


_HEADER = re.compile(r"^L=(\d+)\s+M=(\d+)(?:\s+CLASSES=(\d+))?\s*$")
_TOKEN = re.compile(r"[()_|]|[^()\s_|]+")


def _parse_tree_line(line, n_slots, n_labels, line_no):
    """Parse one ``(label slots...) [| class]`` line."""
    tokens = _TOKEN.findall(line)
    class_label = None
    if "|" in tokens:
        bar = tokens.index("|")
        tail = tokens[bar + 1 :]
        if len(tail) != 1 or not tail[0].lstrip("-").isdigit():
            raise ParseError("expected a single class integer after '|'", line_no)
        class_label = int(tail[0])
        tokens = tokens[:bar]
    builder = TreeBuilder(n_slots)
    stack = []  # (node id, slots consumed so far)
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            if pos >= len(tokens) or not tokens[pos].lstrip("-").isdigit():
                raise ParseError("expected a label after '('", line_no)
            label = int(tokens[pos])
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
    n_slots, n_labels = int(header.group(1)), int(header.group(2))
    n_classes = int(header.group(3)) if header.group(3) else None
    if n_slots < 1 or n_labels < 1:
        raise DomainError("header needs L >= 1 and M >= 1", header_no)

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
            if len(parts) != 3 or not parts[1].isdigit():
                raise ParseError("expected 'SYM <int> <name>'", line_no)
            sym = int(parts[1])
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
