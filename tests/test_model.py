import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bhtmm.errors import ConfigError, DomainError
from bhtmm.model import (
    HardClustering,
    HyperParams,
    SpModelParams,
    TfModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
    size_prior_log,
    storage_cost,
)

from bhtmm.inference import node_label_marginals

from oracles import (
    core_row, dense_core_reference, drawn_keys, eq5_transition, random_clustering,
    random_structure, random_tf_params,
)

V1 = Path(__file__).parent / "data" / "v1"


class TestHyperParams:
    def test_defaults_resolve(self):
        hyper = HyperParams(n_states=4, n_slots=3, n_labels=2, iterations=50)
        assert hyper.max_active == 3
        assert hyper.core_conc == 4.0
        assert hyper.base_conc == 4.0
        assert hyper.anneal_iters == 25

    def test_validation(self):
        with pytest.raises(ConfigError):
            HyperParams(n_states=0, n_slots=1, n_labels=1)
        with pytest.raises(ConfigError):
            HyperParams(n_states=1, n_slots=2, n_labels=1, min_active=0)
        with pytest.raises(ConfigError):
            HyperParams(n_states=1, n_slots=2, n_labels=1, min_active=2, max_active=1)
        with pytest.raises(ConfigError):
            HyperParams(n_states=1, n_slots=1, n_labels=1, size_decay=0.0)
        with pytest.raises(ConfigError):
            HyperParams(n_states=1, n_slots=1, n_labels=1, init_temp=0.5)
        with pytest.raises(ConfigError):
            HyperParams(n_states=1, n_slots=1, n_labels=1, latent_ratio="other")

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            HyperParams(n_states=1, n_slots=1, n_labels=1, seed=-1)

    @pytest.mark.parametrize("name", ["size_decay", "core_conc", "base_conc", "leaf_conc",
                                      "emit_conc", "init_temp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError, match=name):
            HyperParams(n_states=1, n_slots=1, n_labels=1, **{name: value})


class TestHardClustering:
    def test_canonical_numbering(self):
        a = HardClustering([[1, 1, 0, 2]])
        b = HardClustering([[0, 0, 1, 2]])
        assert a == b
        assert a.k == (3,)
        # Cluster 0 must contain state 0 after renumbering.
        assert a.assign[0][0] == 0

    def test_dead_clusters_are_unrepresentable(self):
        # Gaps in the numbering compact away; every cluster is non-empty.
        c = HardClustering([[0, 0, 2, 2]])
        assert c.k == (2,)
        assert c == HardClustering([[0, 0, 1, 1]])
        with pytest.raises(DomainError):
            HardClustering([[0, -1, 0, 0]])

    def test_split_and_merge(self):
        c = HardClustering.trivial(2, 1)  # extended alphabet {0, 1, 2}
        split = c.split(0, 0, [2])
        assert split.k == (2,)
        assert split.assign[0][2] == 1
        back = split.merge(0, 0, 1)
        assert back == c
        with pytest.raises(DomainError):
            c.split(0, 0, [0, 1, 2])  # would empty the source
        with pytest.raises(DomainError):
            split.merge(0, 1, 1)

    def test_split_and_merge_sequences_stay_canonical(self, rng):
        # Split and merge renumber only the slot they change; the result
        # must equal the clustering built and canonicalised from scratch.
        for _ in range(60):
            n_slots, n_states = int(rng.integers(1, 17)), int(rng.integers(1, 6))
            c = random_clustering(rng, n_states, n_slots)
            for _ in range(15):
                slot = int(rng.integers(n_slots))
                a = c.assign[slot].copy()
                sizes = np.bincount(a)
                if sizes.max() >= 2 and (c.k[slot] == 1 or rng.random() < 0.5):
                    cluster = int(rng.choice(np.flatnonzero(sizes >= 2)))
                    members = c.members(slot, cluster)
                    movers = rng.choice(members, int(rng.integers(1, len(members))),
                                        replace=False)
                    new = c.split(slot, cluster, movers)
                    a[movers] = c.k[slot]
                elif c.k[slot] > 1:
                    first, second = (int(v) for v in rng.choice(c.k[slot], 2, replace=False))
                    new = c.merge(slot, first, second)
                    a[a == second] = first
                else:
                    continue
                arrays = list(c.assign)
                arrays[slot] = a
                for want in (HardClustering(arrays), HardClustering(list(new.assign))):
                    assert new == want and new.k == want.k
                assert not new.assign.flags.writeable
                c = new

    def test_identity_and_active_count(self):
        ident = HardClustering.identity(3, 2)
        assert ident.k == (4, 4)
        assert ident.n_active() == 2
        assert HardClustering.trivial(3, 2).n_active() == 0

    def test_cells_ravel_the_cluster_tuples(self, rng):
        wide = HardClustering([rng.permutation(16) % 3 if l in (2, 9, 15) else [0] * 16
                               for l in range(16)])
        cases = [random_clustering(rng, n, l) for n, l in ((1, 1), (2, 2), (3, 3), (4, 5))]
        cases += [HardClustering.trivial(3, 4), HardClustering.identity(2, 3), wide]
        for _ in range(20):
            cases.append(random_clustering(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6))))
        for clustering in cases:
            ext = rng.integers(0, clustering.n_states + 1, size=(50, clustering.n_slots))
            clusters = [clustering.assign[l][ext[:, l]] for l in range(clustering.n_slots)]
            want = np.ravel_multi_index(clusters, clustering.k)
            assert np.array_equal(clustering.cells(ext), want)
            assert np.array_equal(clustering.cells(ext[:0]), want[:0])
        assert wide.k == (1, 1, 3) + (1,) * 6 + (3,) + (1,) * 5 + (3,)

    def test_members(self):
        c = HardClustering([[0, 1, 0, 1]])
        assert list(c.members(0, 0)) == [0, 2]
        assert list(c.members(0, 1)) == [1, 3]


class TestSizePrior:
    def test_values(self):
        assert size_prior_log(1, 2.0) == -2.0
        assert size_prior_log(2, 2.0) == -4.0

    def test_memoryless_ratio(self):
        decay = 1.7
        for k in range(1, 6):
            ratio = size_prior_log(k + 1, decay) - size_prior_log(k, decay)
            assert math.isclose(ratio, -decay)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            size_prior_log(0, 2.0)
        with pytest.raises(DomainError):
            size_prior_log(1, -1.0)


class TestStorageCost:
    def test_small(self):
        cost = storage_cost(2, 2, (2, 2))
        assert cost.explicit == 8
        assert cost.factored == 2 * 4 + 2 * (3 * 2)
        assert not cost.saturated

    def test_trivial_factors(self):
        cost = storage_cost(10, 5, (1, 1, 1, 1, 1))
        assert cost.explicit == 10**6
        assert cost.factored == 10 + 5 * 11
        assert not cost.saturated

    def test_worst_case_bound_with_active_window(self):
        # 32 slots, 5 of them fully informative: the core stays at the
        # documented worst case of n_states ** (max_active + 1).
        k = [1] * 32
        for slot in range(5):
            k[slot] = 10
        cost = storage_cost(10, 32, k)
        core = 10 * int(np.prod(np.array(k, dtype=object)))
        assert core == 10**6
        assert cost.explicit == 10**33
        assert cost.saturated

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            storage_cost(2, 2, (4, 1))
        with pytest.raises(DomainError):
            storage_cost(2, 2, (1,))


class TestInitParams:
    def test_deterministic(self):
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=4, seed=5)
        a = init_params(hyper, np.random.default_rng(hyper.seed))
        b = init_params(hyper, np.random.default_rng(hyper.seed))
        assert np.array_equal(a.leaf_prior, b.leaf_prior)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.base_measure, b.base_measure)
        assert a.clustering == b.clustering

    def test_simplex_rows(self):
        hyper = HyperParams(n_states=4, n_slots=3, n_labels=5)
        params = init_params(hyper, np.random.default_rng(1))
        for table in (params.leaf_prior, params.emission):
            assert np.all(table >= 0)
            assert np.allclose(table.sum(axis=-1), 1.0, atol=1e-9)
        assert np.isclose(params.base_measure.sum(), 1.0, atol=1e-9)

    def test_window_holds_at_init(self):
        hyper = HyperParams(n_states=2, n_slots=4, n_labels=2, min_active=2)
        for seed in range(20):
            params = init_params(hyper, np.random.default_rng(seed))
            active = params.clustering.n_active()
            assert hyper.min_active <= active <= hyper.max_active
            for k in params.clustering.k:
                assert k in (1, 2)

    def test_degenerate_single_state(self):
        # Even with one hidden state the extended alphabet has two
        # entries, so the starting split is still legal.
        hyper = HyperParams(n_states=1, n_slots=2, n_labels=2, min_active=1)
        params = init_params(hyper, np.random.default_rng(0))
        assert params.leaf_prior.shape == (2, 1)
        assert np.all(params.leaf_prior == 1.0)
        assert params.clustering.n_active() == 1

    def test_whole_core_drawn(self):
        hyper = HyperParams(n_states=3, n_slots=4, n_labels=2, min_active=3)
        params = init_params(hyper, np.random.default_rng(2))
        assert params.core.shape == (math.prod(params.clustering.k), 3)
        assert np.isfinite(params.core).all()
        assert np.allclose(params.core.sum(axis=-1), 1.0)

    def test_flat_emission_mean(self):
        # Monte-Carlo check of the flat Dirichlet mean for emissions.
        hyper = HyperParams(n_states=4, n_slots=1, n_labels=2, emit_conc=1.0)
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(2500):
            rows.append(init_params(hyper, rng).emission)
        rows = np.concatenate(rows, axis=0)
        assert rows.shape[0] == 10_000
        assert abs(rows[:, 0].mean() - 0.5) < 0.02


def one_hot_rows(params, exts):
    """``transition_map`` rows at one-hot extended child states ``exts``."""
    exts = np.asarray(exts)
    return params.transition_map()(np.eye(params.n_states + 1)[exts])


def all_exts(n_states, n_slots):
    return list(itertools.product(range(n_states + 1), repeat=n_slots))


class TestReconstructTransition:
    """Eq. 5's transition, read through ``transition_map`` at one-hot
    extended child states: the map that inference runs."""

    def test_single_cluster_ignores_children(self, rng):
        clustering = HardClustering.trivial(3, 2)
        params = random_tf_params(rng, 3, 2, 2, clustering=clustering)
        rows = one_hot_rows(params, all_exts(3, 2))
        for row in rows[1:]:
            assert np.array_equal(row, rows[0])

    def test_identity_clustering_is_exact(self, rng):
        clustering = HardClustering.identity(2, 2)
        params = random_tf_params(rng, 2, 2, 2, clustering=clustering)
        exts = all_exts(2, 2)
        for ext, row in zip(exts, one_hot_rows(params, exts)):
            assert np.array_equal(row, core_row(params, ext))

    def test_matches_explicit_double_sum(self, rng):
        cases = [HardClustering([[0, 1, 0], [0, 0, 0]])]
        cases += [random_clustering(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                  for _ in range(60)]
        assert cases[0].k == (2, 1)
        for clustering in cases:
            params = random_tf_params(rng, clustering.n_states, clustering.n_slots, 2,
                                      clustering=clustering)
            exts = all_exts(clustering.n_states, clustering.n_slots)
            for ext, row in zip(exts, one_hot_rows(params, exts)):
                assert np.array_equal(row, eq5_transition(params, ext))
            for key in itertools.product(*map(range, clustering.k)):
                assert np.array_equal(params.core_entry(key), core_row(params, key))
            with pytest.raises(IndexError):
                params.core_entry(clustering.k)

    def test_all_slices_are_simplexes(self, rng):
        for _ in range(10):
            params = random_tf_params(rng, 3, 2, 2)
            rows = one_hot_rows(params, all_exts(3, 2))
            assert np.all(rows >= 0)
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)


class TestCheckpoints:
    def test_labelling_then_saving_keeps_reference_bytes(self, rng, tmp_path):
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=2, min_active=2, seed=9)
        params = init_params(hyper, np.random.default_rng(9))
        save_checkpoint(tmp_path / "m.ckpt", "tf", hyper, params)
        _, _, labelled = load_checkpoint(tmp_path / "m.ckpt")
        node_label_marginals(random_structure(rng, 2, 12, 2), labelled)
        save_checkpoint(tmp_path / "labelled.ckpt", "tf", hyper, labelled)
        assert (tmp_path / "labelled.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()

    def test_tf_round_trip_bit_exact(self, rng, tmp_path):
        params = random_tf_params(rng, 3, 2, 4)
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=4, seed=11)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, "tf", hyper, params)
        kind, hyper2, loaded = load_checkpoint(first)
        save_checkpoint(second, "tf", hyper2, loaded)
        assert kind == "tf"
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["version"] == 2 and "rng" not in doc["params"]
        assert hyper2 == hyper
        assert np.array_equal(loaded.leaf_prior, params.leaf_prior)
        assert np.array_equal(loaded.emission, params.emission)
        assert loaded.clustering == params.clustering
        assert np.array_equal(loaded.core, params.core, equal_nan=True)

    def test_tf_round_trip_bit_exact_at_100_slots(self, rng, tmp_path):
        # More slots than an array has axes, three of them active: rows
        # are written and read back in C order of the cluster tuples.
        active = [3, 40, 97]
        assign = np.zeros((100, 4), dtype=np.int64)
        assign[active] = [[0, 1, 0, 2], [0, 0, 1, 1], [0, 1, 2, 3]]
        params = random_tf_params(rng, 3, 100, 4, HardClustering(assign))
        hyper = HyperParams(n_states=3, n_slots=100, n_labels=4)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, "tf", hyper, params)
        _, hyper2, loaded = load_checkpoint(first)
        save_checkpoint(second, "tf", hyper2, loaded)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.clustering == params.clustering
        assert np.array_equal(loaded.core, params.core)
        core = json.loads(first.read_text())["params"]["core"]
        assert [[key[l] for l in active] for key, _ in core] == [
            list(key) for key in itertools.product(range(3), range(2), range(4))]
        assert [row for _, row in core] == params.core.tolist()

    @pytest.mark.parametrize("value", [math.nan, -1.0, 3.0, "2.0"])
    def test_tf_core_conc_must_match_hyper(self, rng, tmp_path, value):
        hyper = HyperParams(n_states=2, n_slots=2, n_labels=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "tf", hyper, random_tf_params(rng, 2, 2, 3))
        assert load_checkpoint(path)[2].core_conc == hyper.core_conc
        doc = json.loads(path.read_text())
        doc["params"]["core_conc"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="core_conc") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_v1_missing_rows_drawn_from_saved_generator(self, tmp_path):
        raw = json.loads((V1 / "tf.ckpt").read_text())["params"]
        clustering = HardClustering(raw["clustering"])
        stored = np.full((math.prod(clustering.k), len(raw["base_measure"])), np.nan)
        for key, row in raw["core"]:
            stored[np.ravel_multi_index(key, clustering.k)] = row
        # The fixture lacks rows.
        assert len(drawn_keys(stored, clustering.k)) < math.prod(clustering.k)
        partial = TfModelParams(raw["leaf_prior"], raw["emission"], raw["base_measure"],
                                clustering, stored, raw["core_conc"])
        gen = np.random.default_rng()
        gen.bit_generator.state = raw["rng"]
        want = dense_core_reference(partial, gen)
        kind, hyper, loaded = load_checkpoint(V1 / "tf.ckpt")
        assert np.array_equal(loaded.dense_core(), want)
        assert not hasattr(loaded, "rng")
        # Saved again, it is a version 2 file holding the v1 rows bit for bit.
        save_checkpoint(tmp_path / "v2.ckpt", kind, hyper, loaded)
        doc = json.loads((tmp_path / "v2.ckpt").read_text())
        assert doc["version"] == 2 and "rng" not in doc["params"]
        saved = {tuple(key): row for key, row in doc["params"]["core"]}
        assert len(saved) == math.prod(clustering.k)
        for key, row in raw["core"]:
            assert saved[tuple(key)] == row

    def test_sp_round_trip(self, tmp_path, rng):
        from oracles import random_simplex_rows

        params = SpModelParams(
            leaf_prior=random_simplex_rows(rng, (2, 3)),
            emission=random_simplex_rows(rng, (3, 4)),
            switch_weights=random_simplex_rows(rng, (2,)),
            child_transitions=random_simplex_rows(rng, (2, 4, 3)),
        )
        hyper = HyperParams(n_states=3, n_slots=2, n_labels=4)
        path = tmp_path / "sp.ckpt"
        save_checkpoint(path, "sp", hyper, params)
        kind, _, loaded = load_checkpoint(path)
        assert kind == "sp"
        assert np.array_equal(loaded.switch_weights, params.switch_weights)
        assert np.array_equal(loaded.child_transitions, params.child_transitions)

    @pytest.mark.parametrize("version", [0, 3, True, 1.0, "2"])
    def test_rejects_unknown_version(self, rng, tmp_path, version):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "tf", HyperParams(n_states=2, n_slots=2, n_labels=3),
                        random_tf_params(rng, 2, 2, 3))
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="version") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)
