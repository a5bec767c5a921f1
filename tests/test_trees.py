import pickle
import tracemalloc

import numpy as np
import pytest

from bhtmm.errors import DomainError, ParseError, StructureError
from bhtmm.trees import (
    MAX_LABELS, MAX_SLOTS, LabelledTree, PackedCorpus, TreeBuilder, TreeCorpus, format_corpus,
    parse_corpus,
)

from oracles import random_structure


def test_parse_single_leaf():
    corpus = parse_corpus("L=3 M=4\n(0)\n")
    assert len(corpus.trees) == 1
    tree = corpus.trees[0]
    assert tree.n_nodes == 1
    assert tree.labels[0] == 0
    assert list(tree.leaves()) == [0]


def test_parse_full_fanout():
    corpus = parse_corpus("L=3 M=4\n(3 (0) (0) (0))\n")
    tree = corpus.trees[0]
    assert tree.n_nodes == 4
    assert tree.labels[0] == 3
    assert sorted(tree.position[1:]) == [0, 1, 2]
    assert all(tree.parent[1:] == 0)


def test_parse_absent_slot():
    corpus = parse_corpus("L=3 M=4\n(1 _ (0) _)\n")
    tree = corpus.trees[0]
    assert tree.n_nodes == 2
    assert tree.children[0, 0] == -1
    assert tree.children[0, 1] == 1
    assert tree.children[0, 2] == -1
    assert tree.position[1] == 1


def test_parse_trailing_slots_optional():
    a = parse_corpus("L=3 M=2\n(1 (0))\n").trees[0]
    b = parse_corpus("L=3 M=2\n(1 (0) _ _)\n").trees[0]
    assert a == b


def test_parse_classes_and_symbols():
    text = "L=2 M=3 CLASSES=2\nSYM 0 title\nSYM 1 body\n(0 (1)) | 0\n(2) | 1\n"
    corpus = parse_corpus(text)
    assert corpus.n_classes == 2
    assert corpus.class_labels == (0, 1)
    assert corpus.symbols == {0: "title", 1: "body"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_corpus("L=2 M=2\n(0)\n(0 ((1))\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_corpus("M=2 L=2\n(0)\n")


@pytest.mark.parametrize("text", [
    "L=2 M=3\n(1 (\u00b2))\n", "L=2 M=3\n(--1 (0))\n", "L=2 M=3\n(1 (0)) | --2\n",
    "L=2 M=3\nSYM \u00b2 x\n", "L=2 M=3\nSYM -1 x\n", "L=2 M=3\n(1 (0)) | -\n",
    "L=2 M=3\n(+1)\n",
    pytest.param("L=2 M=3\n(1 (0)) | " + "1" * 5000 + "\n", id="past-int-digit-limit"),
])
def test_malformed_integer_is_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_corpus(text)
    assert err.value.line == 2


def test_negative_values_stay_domain_errors():
    for text in ("L=2 M=3\n(-1)\n", "L=2 M=3\n(1) | -1\n"):
        with pytest.raises(DomainError):
            parse_corpus(text)


@pytest.mark.parametrize("header, big", [("L={} M=2", MAX_SLOTS), ("L=2 M={}", MAX_LABELS)])
def test_header_sizes_are_bounded(header, big):
    assert parse_corpus(header.format(big) + "\n(0)\n").trees[0].n_nodes == 1
    with pytest.raises(DomainError) as err:
        parse_corpus(header.format(big + 1) + "\n(0)\n")
    assert err.value.line == 1


def test_label_out_of_alphabet():
    with pytest.raises(DomainError) as err:
        parse_corpus("L=2 M=2\n(0)\n(5)\n")
    assert err.value.line == 3


def test_too_many_slots():
    with pytest.raises(DomainError):
        parse_corpus("L=2 M=2\n(0 (1) (1) (1))\n")


def test_class_suffix_must_be_uniform():
    with pytest.raises(ParseError):
        parse_corpus("L=2 M=2\n(0) | 1\n(0)\n")


def test_class_out_of_declared_range():
    with pytest.raises(DomainError):
        parse_corpus("L=2 M=2 CLASSES=2\n(0) | 5\n")


def test_builder_rejects_bad_structure():
    builder = TreeBuilder(2)
    root = builder.add(0)
    builder.add(1, parent=root, position=0)
    with pytest.raises(StructureError):
        builder.add(1, parent=root, position=0)  # slot already filled
    with pytest.raises(DomainError):
        builder.add(1, parent=root, position=5)
    with pytest.raises(StructureError):
        builder.add(1, parent=99, position=1)


# Malformed raw tables for ``LabelledTree``: labels, parent, position,
# children and slot count; every case must raise ``StructureError``.
# The well-formed base is ``(0 (1 _ (0)) (1))``: node 0 holds 1 and 3 in
# slots 0 and 1, node 1 holds 2 in slot 1.
GOOD = ([0, 1, 0, 1], [-1, 0, 1, 0], [0, 0, 1, 1],
        [[1, 3], [-1, 2], [-1, -1], [-1, -1]], 2)
MALFORMED = {
    "no nodes": ([], [], [], np.empty((0, 2)), 2),
    "children wrong width": (*GOOD[:3], [[1, 3, -1], [-1, 2, -1], [-1] * 3, [-1] * 3], 2),
    "children wrong height": (*GOOD[:3], [[1, 3], [-1, 2], [-1, -1]], 2),
    "parent too short": (GOOD[0], [-1, 0, 1], *GOOD[2:]),
    "position too short": (*GOOD[:2], [0, 0, 1], *GOOD[3:]),
    "zero roots": (GOOD[0], [3, 0, 1, 0], *GOOD[2:]),
    "two roots": (GOOD[0], [-1, 0, 1, -1], GOOD[2], [[1, -1], [-1, 2], [-1, -1], [-1, -1]], 2),
    "root not node 0": ([0, 1], [1, -1], [0, 0], [[-1, -1], [0, -1]], 2),
    "negative parent": (GOOD[0], [-1, 0, 1, -2], *GOOD[2:]),
    "child id too large": (*GOOD[:3], [[1, 3], [-1, 4], [-1, -1], [-1, -1]], 2),
    "child id below -1": (*GOOD[:3], [[1, 3], [-1, -2], [-1, -1], [-1, -1]], 2),
    "parent disagrees with slot": (GOOD[0], [-1, 0, 0, 0], *GOOD[2:]),
    "position disagrees with slot": (*GOOD[:2], [0, 0, 0, 1], *GOOD[3:]),
    "cycle": (GOOD[0], [-1, 0, 3, 2], [0, 0, 0, 0],
              [[1, -1], [-1, -1], [3, -1], [2, -1]], 2),
    "unreachable node": (GOOD[0], [-1, 0, 1, 0], GOOD[2],
                         [[1, -1], [-1, 2], [-1, -1], [-1, -1]], 2),
    "node reached twice": (GOOD[0], GOOD[1], GOOD[2],
                           [[1, 3], [-1, 2], [-1, -1], [-1, 2]], 2),
    "root as a child": (GOOD[0], GOOD[1], GOOD[2], [[1, 3], [-1, 2], [0, -1], [-1, -1]], 2),
}


def test_well_formed_table_builds():
    tree = LabelledTree(*GOOD)
    assert tree == parse_corpus("L=2 M=2\n(0 (1 _ (0)) (1))\n").trees[0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_raises(case):
    with pytest.raises(StructureError):
        LabelledTree(*MALFORMED[case])


def test_leaves_examples():
    corpus = parse_corpus("L=2 M=2\n(0 (1) (1))\n(0 (1 (0)))\n")
    fanout, chain = corpus.trees
    assert list(fanout.leaves()) == [1, 2]
    assert list(chain.leaves()) == [2]


def test_bottom_up_order_chain():
    tree = parse_corpus("L=1 M=2\n(0 (1 (0)))\n").trees[0]
    assert list(tree.bottom_up_order()) == [2, 1, 0]
    assert list(tree.leaves()) == [2]


def test_bottom_up_order_single_leaf():
    tree = parse_corpus("L=1 M=1\n(0)\n").trees[0]
    assert list(tree.bottom_up_order()) == [0]


def test_bottom_up_order_properties(rng):
    for _ in range(50):
        tree = random_structure(rng, 3, 12, 4)
        order = tree.bottom_up_order()
        assert sorted(order) == list(range(tree.n_nodes))
        rank = np.empty(tree.n_nodes, dtype=int)
        rank[order] = np.arange(tree.n_nodes)
        for u in range(tree.n_nodes):
            for child in tree.children[u]:
                if child >= 0:
                    assert rank[child] < rank[u]
        assert order[-1] == tree.root
        # Leaves are exactly the nodes with no earlier descendant.
        n_leaves = len(tree.leaves())
        assert set(order[:n_leaves]) == set(tree.leaves())


def test_pack_layout(rng):
    for n_trees in (0, 1, 5):
        trees = [random_structure(rng, 3, 12, 4) for _ in range(n_trees)]
        pack = PackedCorpus(trees, 3)
        assert list(pack) == trees and pack.n_nodes == sum(t.n_nodes for t in trees)
        for i, tree in enumerate(trees):
            a, b = pack.offsets[i], pack.offsets[i + 1]
            assert np.array_equal(pack.tree[a:b], np.full(tree.n_nodes, i))
            assert np.array_equal(pack.children[a:b], np.where(tree.children >= 0, tree.children + a, -1))
            assert np.array_equal(pack.labels[a:b], tree.labels)
            assert np.array_equal(pack.position[a:b], tree.position)
            assert np.array_equal(pack.leaf_mask[a:b], tree.leaf_mask)
            # Level h holds the tree's nodes of height h, in id order.
            for height, level in enumerate(pack.levels):
                mine = level[(level >= a) & (level < b)] - a
                assert np.array_equal(mine, np.flatnonzero(tree._heights == height))
        assert np.array_equal(pack.order, np.concatenate(pack.levels))
        assert np.array_equal(pack.internal, pack.order[len(pack.levels[0]):])
        assert all(len(level) for level in pack.levels) or pack.n_nodes == 0
    (tree,) = trees[:1]
    assert np.array_equal(PackedCorpus([tree], 3).order, tree.bottom_up_order())


def test_one_tree_pack_is_the_general_construction(rng):
    """One tree is packed from its own tables, with every field the
    offset-and-concatenate construction of a corpus gives it."""
    trees = [random_structure(rng, 3, 30, 4) for _ in range(20)]
    trees += [parse_corpus("L=3 M=2\n(1)\n").trees[0], random_structure(rng, 16, 80, 4)]
    for tree in trees:
        pack = PackedCorpus([tree], tree.n_slots)
        n, kids = tree.n_nodes, tree.children
        order = np.argsort(tree._heights, kind="stable")
        bounds = (0, *np.bincount(tree._heights, minlength=1).cumsum().tolist())
        want = {
            "offsets": np.array([0, n]), "tree": np.repeat(0, n),
            "children": np.where(kids >= 0, kids + 0, -1), "labels": tree.labels,
            "position": tree.position, "leaf_mask": ~(kids >= 0).any(axis=1),
            "order": order, "internal": order[bounds[1]:],
            "internal_children": kids[order[bounds[1]:]],
        }
        for name, table in want.items():
            got = getattr(pack, name)
            assert got.dtype == table.dtype and np.array_equal(got, table), name
        assert pack.bounds == bounds and pack.n_nodes == n and list(pack) == [tree]
        assert len(pack.levels) == len(bounds) - 1
        for a, b, level in zip(bounds, bounds[1:], pack.levels):
            assert np.array_equal(level, order[a:b])


def test_to_text_of_a_deep_chain_is_linear():
    # Keeping each subtree's text (4 characters a level) until its parent
    # is done would peak at about 2 * n**2 bytes: 200 MB here.
    n = 10_000
    builder = TreeBuilder(1)
    node = builder.add(0)
    for depth in range(n - 1):
        node = builder.add((depth + 1) % 2, parent=node)
    tree = builder.build()
    tracemalloc.start()
    try:
        text = tree.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000 * n
    assert text == " ".join(f"({u % 2}" for u in range(n)) + ")" * n


def test_unpickled_tree_stays_read_only(rng):
    tree = random_structure(rng, 3, 12, 4)
    again = pickle.loads(pickle.dumps(tree))  # the --jobs path sends trees
    assert again == tree
    for table in (again.children, again.labels, again.parent, again.position):
        with pytest.raises(ValueError):
            table[0] = 0


def test_round_trip_random_trees(rng):
    trees = tuple(random_structure(rng, 3, 15, 5) for _ in range(30))
    corpus = TreeCorpus(trees=trees, n_slots=3, n_labels=5)
    text = format_corpus(corpus)
    again = parse_corpus(text)
    assert len(again.trees) == len(trees)
    for a, b in zip(trees, again.trees):
        assert a == b
    assert format_corpus(again) == text


def test_corpus_validation():
    tree = parse_corpus("L=2 M=2\n(1)\n").trees[0]
    with pytest.raises(DomainError):
        TreeCorpus(trees=(tree,), n_slots=3, n_labels=2)
    with pytest.raises(DomainError):
        TreeCorpus(trees=(tree,), n_slots=2, n_labels=1)
    with pytest.raises(DomainError):
        TreeCorpus(trees=(tree,), n_slots=2, n_labels=2, class_labels=(0, 1))


def test_subset_keeps_classes():
    corpus = parse_corpus("L=2 M=2 CLASSES=2\n(0) | 0\n(1) | 1\n(0) | 1\n")
    sub = corpus.subset([2, 0])
    assert sub.class_labels == (1, 0)
    assert len(sub.trees) == 2
