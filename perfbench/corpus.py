"""Seeded wide-slot, multi-class corpus for the classify-wide workload.

Every class has its own slot-occupation profile (a band of slots that
children favour) and its own leaf-label distribution. An internal
node's label is its child count, capped at the top label, so labels
carry structure as in the ternary labelling corpus. Trees are grown
with ``TreeBuilder``; the program only ever sees the finished
``TreeCorpus`` or its text.

Only the leaf-label laws and the sampling depend on the seed: the
occupation levels are fixed and every class gets the same node budget,
so the work per class, and with it the timings, does not swing from
one seed to the next.
"""

from __future__ import annotations

import numpy as np

from bhtmm import TreeBuilder, TreeCorpus

N_SLOTS = 16
N_LABELS = 8
N_CLASSES = 4
DEPTH_CAP = 3
DEPTH_DECAY = 0.5
MIN_NODES = 10
BAND, SHOULDER, ELSEWHERE = 0.75, 0.3, 0.03


def class_profiles(rng):
    """Per class: slot-occupation probabilities and a leaf-label law.

    Class ``c`` fills its own band of four slots starting at ``4 c``
    often and the next band (wrapping around) sometimes, so the slot
    positions, not just the sizes, tell the classes apart.
    """
    occupation = np.full((N_CLASSES, N_SLOTS), ELSEWHERE)
    band = N_SLOTS // N_CLASSES
    for c in range(N_CLASSES):
        core = c * band + np.arange(band)
        occupation[c, core] = BAND
        occupation[c, (core + band) % N_SLOTS] = SHOULDER
    leaf_labels = rng.dirichlet(np.full(N_LABELS, 0.3), size=N_CLASSES)
    return occupation, leaf_labels


def grow_tree(occupation, leaf_labels, rng):
    """One tree: slot ``l`` of a node at depth ``d`` is occupied with
    probability ``occupation[l] * DEPTH_DECAY ** d``; trees smaller than
    ``MIN_NODES`` are redrawn."""
    while True:
        builder = TreeBuilder(N_SLOTS)
        stack = [(builder.add(0), 0)]
        while stack:
            node, depth = stack.pop()
            if depth >= DEPTH_CAP:
                continue
            hits = rng.random(N_SLOTS) < occupation * DEPTH_DECAY**depth
            for slot in np.flatnonzero(hits):
                stack.append((builder.add(0, parent=node, position=int(slot)), depth + 1))
        if len(builder.labels) >= MIN_NODES:
            break
    for u, kids in enumerate(builder.children):
        count = sum(1 for c in kids if c >= 0)
        if count:
            builder.set_label(u, min(count, N_LABELS - 1))
        else:
            builder.set_label(u, int(rng.choice(N_LABELS, p=leaf_labels)))
    return builder.build()


def wide_corpus(nodes_per_class, profiles, rng):
    """Trees of every class, classes taking turns, until each class
    holds at least ``nodes_per_class`` nodes."""
    occupation, leaf_labels = profiles
    trees = []
    classes = []
    filled = np.zeros(N_CLASSES, dtype=np.int64)
    while filled.min() < nodes_per_class:
        for c in np.flatnonzero(filled < nodes_per_class):
            tree = grow_tree(occupation[c], leaf_labels[c], rng)
            trees.append(tree)
            classes.append(int(c))
            filled[c] += tree.n_nodes
    return TreeCorpus(
        trees=tuple(trees),
        n_slots=N_SLOTS,
        n_labels=N_LABELS,
        class_labels=tuple(classes),
        n_classes=N_CLASSES,
    )
