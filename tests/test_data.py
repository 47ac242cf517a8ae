"""Tests for synthetic data generation, scenarios, shard files, batching."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shardcheck import shards_equal

from fedmm.data import (
    DatasetSpec,
    ScenarioSpec,
    Shard,
    batches,
    build_scenario,
    check_scenario,
    clients_per_modality,
    gen_synthetic,
    kept_rows,
    load_shard,
    save_shard,
    sorted_quantile,
    write_manifest,
)
from fedmm.errors import ConfigError, DataError, FormatError, ValidationError


def small_spec(**overrides):
    defaults = dict(
        n_sites=100,
        latent_dim=6,
        modality_dims=(5, 8),
        n_labels=4,
        task_kind="multi-label",
        n_groups=4,
        noise_sigma=0.1,
        seed=0,
    )
    defaults.update(overrides)
    return DatasetSpec(**defaults)


class TestGenSynthetic:
    def test_same_seed_same_bytes(self):
        a = gen_synthetic(small_spec())
        b = gen_synthetic(small_spec())
        for sa, sb in zip(a.train + a.test, b.train + b.test):
            assert shards_equal(sa, sb)

    def test_sample_counts_and_pairing(self):
        ds = gen_synthetic(small_spec())
        total = sum(s.n for s in ds.train + ds.test)
        assert total == 200  # 100 sites x 2 modalities
        for split in (ds.train, ds.test):
            np.testing.assert_array_equal(split[0].geo_keys, split[1].geo_keys)

    def test_pairing_integrity_every_site_once_per_modality(self):
        ds = gen_synthetic(small_spec())
        for m in range(2):
            keys = np.concatenate([ds.train[m].geo_keys, ds.test[m].geo_keys])
            assert len(np.unique(keys)) == len(keys) == 100

    def test_split_hygiene_no_site_in_both_splits(self):
        ds = gen_synthetic(small_spec())
        overlap = set(ds.train[0].geo_keys) & set(ds.test[0].geo_keys)
        assert not overlap
        assert len(ds.train[0].geo_keys) == 80 and len(ds.test[0].geo_keys) == 20

    def test_label_prevalence_calibrated_on_train(self):
        ds = gen_synthetic(small_spec(seed=3))
        prevalence = ds.train[0].labels.mean(axis=0)
        assert np.all(prevalence >= 0.2) and np.all(prevalence <= 0.5)

    def test_single_label_argmax(self):
        ds = gen_synthetic(small_spec(task_kind="single-label", n_labels=5))
        labels = ds.train[0].labels
        assert labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 5

    def test_unresolved_seed_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(small_spec(seed=None))

    def test_modality_views_differ(self):
        ds = gen_synthetic(small_spec())
        assert ds.train[0].dim == 5 and ds.train[1].dim == 8


def assert_matches_np_quantile(column, q):
    expected = np.quantile(column, q)
    got = sorted_quantile(np.sort(column), q)
    assert np.float64(got).tobytes() == expected.tobytes(), (column.size, q, got, expected)


class TestSortedQuantile:
    """``sorted_quantile`` replaces ``np.quantile`` in the label calibration,
    so it must give the same bits."""

    def test_matches_np_quantile_on_random_columns(self):
        rng = np.random.default_rng(20)
        for i in range(10_000):
            n = int(rng.integers(2, 3001))
            column = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            if i % 4 == 0:
                # ties between neighbours; + 0.0 turns -0.0 into 0.0, since
                # sort and partition may order the two zeros differently
                # (which no label can see: scores are compared with >)
                column = np.round(column, 1) + 0.0
            assert_matches_np_quantile(column, 1.0 - rng.uniform(0.25, 0.45))
            assert_matches_np_quantile(column, rng.uniform(0.0, 1.0))

    def test_weight_of_exactly_one_half_interpolates_from_above(self):
        column = np.array([0.1, 0.7, 2.3])
        q = 0.25  # virtual index 0.5
        assert (len(column) - 1) * q == 0.5
        assert_matches_np_quantile(column, q)
        assert_matches_np_quantile(np.array([-3.0, 1e-3, 5.0, 7.5, 11.0]), 0.125)

    @pytest.mark.parametrize("q", [1.0, np.nextafter(1.0, 0.0)])
    def test_virtual_index_at_the_last_element(self, q):
        column = np.random.default_rng(3).standard_normal(3000)
        assert_matches_np_quantile(column, q)
        assert sorted_quantile(np.sort(column), 1.0) == column.max()

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_ends_and_middle(self, q):
        assert_matches_np_quantile(np.array([4.0, -1.0]), q)


class TestKeptRows:
    @pytest.mark.parametrize("n", [1, 2, 17, 1600])
    def test_matches_setdiff1d(self, n):
        rng = np.random.default_rng(n)
        for n_remove in sorted({0, 1, n // 2, n - 1, n}):
            removed = rng.choice(n, size=n_remove, replace=False)
            expected = np.setdiff1d(np.arange(n), removed)
            got = kept_rows(n, removed)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestScenarios:
    def test_iid_balanced_split(self):
        ds = gen_synthetic(small_spec())
        shards = build_scenario(ds, ScenarioSpec(kind="iid"), k_clients=4)
        assert len(shards) == 4
        for m in range(2):
            sizes = [s.n for s in shards if s.modality_id == m]
            assert len(sizes) == 2 and max(sizes) - min(sizes) <= 1
            assert sum(sizes) == 80

    def test_odd_client_count_splits_nearly_evenly(self):
        assert clients_per_modality(7, 2) == [4, 3]

    def test_group_skew_purity_one_group_per_client(self):
        ds = gen_synthetic(small_spec(n_groups=2))
        shards = build_scenario(ds, ScenarioSpec(kind="group-skew"), k_clients=4)
        for shard in shards:
            groups = np.unique(ds.site_group[shard.geo_keys])
            assert len(groups) == 1

    def test_group_skew_needs_enough_groups(self):
        ds = gen_synthetic(small_spec(n_groups=2))
        with pytest.raises(DataError):
            build_scenario(ds, ScenarioSpec(kind="group-skew"), k_clients=6)

    def test_group_skew_label_marginals_disagree(self):
        ds = gen_synthetic(DatasetSpec(seed=0))  # library defaults
        shards = build_scenario(ds, ScenarioSpec(kind="group-skew"), k_clients=14)
        mod0 = [s for s in shards if s.modality_id == 0]
        worst = 0.0
        for i in range(len(mod0)):
            for j in range(i + 1, len(mod0)):
                qi = mod0[i].labels.sum(axis=0)
                qj = mod0[j].labels.sum(axis=0)
                qi = qi / qi.sum()
                qj = qj / qj.sum()
                worst = max(worst, 0.5 * np.abs(qi - qj).sum())
        assert worst > 0.05

    def test_group_skew_mixed_perturbs_features(self):
        ds = gen_synthetic(small_spec(n_groups=2))
        plain = build_scenario(ds, ScenarioSpec(kind="group-skew"), k_clients=4)
        mixed = build_scenario(ds, ScenarioSpec(kind="group-skew-mixed", jitter=0.5), 4)
        assert any(
            not np.array_equal(a.features, b.features) for a, b in zip(plain, mixed)
        )
        for a, b in zip(plain, mixed):
            np.testing.assert_array_equal(a.geo_keys, b.geo_keys)

    def test_missing_modality_counts(self):
        ds = gen_synthetic(small_spec())
        shards = build_scenario(
            ds, ScenarioSpec(kind="missing-B", missing_fraction=0.5), k_clients=4
        )
        kept_1 = sum(s.n for s in shards if s.modality_id == 1)
        kept_0 = sum(s.n for s in shards if s.modality_id == 0)
        assert kept_1 == 40  # half of the 80 modality-1 training samples
        assert kept_0 == 80  # modality 0 untouched

    def test_missing_a_targets_modality_zero(self):
        ds = gen_synthetic(small_spec())
        shards = build_scenario(
            ds, ScenarioSpec(kind="missing-A", missing_fraction=0.25), k_clients=4
        )
        assert sum(s.n for s in shards if s.modality_id == 0) == 60
        assert sum(s.n for s in shards if s.modality_id == 1) == 80

    def test_missing_modality_scenario_needs_its_modality(self):
        # missing-B thins modality 1; a one-modality dataset has no
        # modality 1, and missing-A still thins its modality 0
        spec = small_spec(modality_dims=(5,))
        with pytest.raises(DataError, match="thins modality 1, the dataset has 1"):
            check_scenario(spec, ScenarioSpec(kind="missing-B"), k_clients=2)
        assert check_scenario(spec, ScenarioSpec(kind="missing-A"), k_clients=2) == [2]

    def test_scenario_conservation(self):
        ds = gen_synthetic(small_spec())
        shards = build_scenario(ds, ScenarioSpec(kind="iid"), k_clients=4)
        for m in range(2):
            keys = np.sort(
                np.concatenate([s.geo_keys for s in shards if s.modality_id == m])
            )
            np.testing.assert_array_equal(keys, ds.train[m].geo_keys)

    def test_deterministic_construction(self):
        ds = gen_synthetic(small_spec())
        a = build_scenario(ds, ScenarioSpec(kind="missing-B"), k_clients=4)
        b = build_scenario(ds, ScenarioSpec(kind="missing-B"), k_clients=4)
        assert all(shards_equal(x, y) for x, y in zip(a, b))

    def test_group_skew_client_with_one_row_rejected(self):
        # 16 training rows over 7 groups leave group 0 one row of modality
        # 0; batches() drops a one-row batch, so client 0 would never step
        ds = gen_synthetic(DatasetSpec(n_sites=20, seed=0))
        message = r"^client 0 received fewer than 2 training rows \(1\)$"
        with pytest.raises(DataError, match=message):
            build_scenario(ds, ScenarioSpec(kind="group-skew"), k_clients=14)

    def test_too_few_clients_rejected(self):
        ds = gen_synthetic(small_spec())
        with pytest.raises(ValidationError):
            build_scenario(ds, ScenarioSpec(kind="iid"), k_clients=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(kind="dirichlet")


class TestBatches:
    def test_partial_batch_kept_when_large_enough(self):
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in batches(10, 4, rng)]
        assert sizes == [4, 4, 2]

    def test_trailing_singleton_dropped(self):
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in batches(9, 4, rng)]
        assert sizes == [4, 4]

    def test_same_stream_same_order(self):
        a = [b.tolist() for b in batches(20, 6, np.random.default_rng(42))]
        b = [b.tolist() for b in batches(20, 6, np.random.default_rng(42))]
        assert a == b

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ConfigError):
            list(batches(10, 1, np.random.default_rng(0)))

    @given(n=st.integers(2, 200), batch=st.integers(2, 64))
    @settings(max_examples=50, deadline=None)
    def test_every_sample_appears_at_most_once(self, n, batch):
        seen = np.concatenate(list(batches(n, batch, np.random.default_rng(1))))
        assert len(np.unique(seen)) == len(seen)
        dropped = n % batch if n % batch == 1 else 0
        assert len(seen) == n - dropped


class TestShardFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_synthetic(small_spec())
        path = tmp_path / "m0.shard"
        save_shard(ds.train[0], path, n_labels=4)
        loaded = load_shard(path)
        assert shards_equal(loaded, ds.train[0])

    def test_roundtrip_single_label(self, tmp_path):
        ds = gen_synthetic(small_spec(task_kind="single-label", n_labels=3))
        path = tmp_path / "m1.shard"
        save_shard(ds.train[1], path, n_labels=3)
        assert shards_equal(load_shard(path), ds.train[1])

    def test_label_count_beyond_the_header_is_not_saved(self, tmp_path):
        shard = Shard(
            modality_id=0,
            task_kind="single-label",
            geo_keys=np.arange(1),
            features=np.zeros((1, 2)),
            labels=[2**32],  # a count of 2**32 + 1 needs more than a u32
        )
        path = tmp_path / "big.shard"
        with pytest.raises(ValidationError, match="u32"):
            save_shard(shard, path, n_labels=2**32 + 1)
        assert not path.exists()

    @pytest.mark.parametrize("modality_id", [-1, 2**16, 70000])
    def test_modality_id_beyond_the_header_is_not_saved(self, tmp_path, modality_id):
        shard = Shard(
            modality_id=modality_id,
            task_kind="single-label",
            geo_keys=np.arange(1),
            features=np.zeros((1, 2)),
            labels=[0],
        )
        path = tmp_path / "far.shard"
        with pytest.raises(ValidationError, match=f"^modality id {modality_id} .* u16"):
            save_shard(shard, path, n_labels=2)
        assert not path.exists()

    def test_empty_shard_roundtrip(self, tmp_path):
        empty = Shard(
            modality_id=0,
            task_kind="multi-label",
            geo_keys=np.zeros(0, dtype=np.int64),
            features=np.zeros((0, 3)),
            labels=np.zeros((0, 2)),
        )
        path = tmp_path / "empty.shard"
        save_shard(empty, path, n_labels=2)
        loaded = load_shard(path)
        assert loaded.n == 0 and loaded.dim == 3

    def test_truncated_file_reports_offset(self, tmp_path):
        ds = gen_synthetic(small_spec())
        path = tmp_path / "m0.shard"
        save_shard(ds.train[0], path, n_labels=4)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FormatError) as info:
            load_shard(path)
        assert info.value.offset is not None

    def test_multilabel_label_count_must_match_columns(self, tmp_path):
        ds = gen_synthetic(small_spec(n_labels=3))
        path = tmp_path / "m0.shard"
        with pytest.raises(ValidationError):
            save_shard(ds.train[0], path, n_labels=5)
        assert not path.exists()

    @pytest.mark.parametrize(
        "task_kind,value",
        [
            ("single-label", 3.0),  # the header declares 3 labels: ids 0..2
            ("single-label", -1.0),
            ("single-label", 1.5),
            ("multi-label", 0.3),
            ("multi-label", 7.0),
        ],
    )
    def test_label_the_header_cannot_describe_is_rejected_at_load(
        self, tmp_path, task_kind, value
    ):
        shard = gen_synthetic(small_spec(task_kind=task_kind, n_labels=3)).train[0]
        path = tmp_path / "m0.shard"
        save_shard(shard, path, n_labels=3)
        # overwrite the last label entry of sample 5 in place
        record = 8 * (1 + shard.dim + (3 if task_kind == "multi-label" else 1))
        data = bytearray(path.read_bytes())
        offset = len(data) - (shard.n - 6) * record - 8
        data[offset : offset + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"sample 5 is {value!r}") as info:
            load_shard(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize("task_kind", ["multi-label", "single-label"])
    @pytest.mark.parametrize("field,column", [("feature", 0), ("feature", 3), ("label", 0)])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_value_rejected_at_its_byte(
        self, tmp_path, task_kind, field, column, value
    ):
        shard = gen_synthetic(small_spec(task_kind=task_kind, n_labels=3)).train[0]
        path = tmp_path / "m0.shard"
        save_shard(shard, path, n_labels=3)
        # a 21-byte header, then per sample a u64 geo key, the features, the labels
        record = 8 * (1 + shard.dim + (3 if task_kind == "multi-label" else 1))
        within = 8 + (0 if field == "feature" else 8 * shard.dim) + 8 * column
        offset = 21 + 5 * record + within
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))
        expected = f"^shard sample 5 {field} {column} is {value!r}, not finite "
        with pytest.raises(FormatError, match=expected) as info:
            load_shard(path)
        assert info.value.offset == offset

    def test_first_non_finite_value_in_file_order_is_reported(self, tmp_path):
        # the label of sample 2 lies before the features of sample 4
        shard = gen_synthetic(small_spec(n_labels=3)).train[0]
        path = tmp_path / "m0.shard"
        save_shard(shard, path, n_labels=3)
        record = 8 * (1 + shard.dim + 3)
        feature = 21 + 4 * record + 8
        label = 21 + 2 * record + 8 + 8 * shard.dim
        data = bytearray(path.read_bytes())
        for offset in (feature, label):
            data[offset : offset + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="^shard sample 2 label 0 is nan") as info:
            load_shard(path)
        assert info.value.offset == label

    @pytest.mark.parametrize(
        "task_kind,labels",
        [("single-label", [0, 4, -1]), ("multi-label", [[1.0, 0.3], [0.0, 1.0], [0.0, 0.0]])],
    )
    def test_label_the_header_cannot_describe_is_not_saved(self, tmp_path, task_kind, labels):
        shard = Shard(
            modality_id=0,
            task_kind=task_kind,
            geo_keys=np.arange(3),
            features=np.zeros((3, 2)),
            labels=labels,
        )
        path = tmp_path / "bad.shard"
        with pytest.raises(ValidationError):
            save_shard(shard, path, n_labels=2)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_feature_is_not_saved(self, tmp_path, value):
        features = np.zeros((3, 2))
        features[1, 1] = value
        shard = Shard(0, "single-label", np.arange(3), features, [0, 1, 0])
        path = tmp_path / "bad.shard"
        # the words load_shard would use for the same value at the same place
        expected = f"^shard sample 1 feature 1 is {value!r}, not finite$"
        with pytest.raises(ValidationError, match=expected):
            save_shard(shard, path, n_labels=2)
        assert not path.exists()

    @pytest.mark.parametrize(
        "name,offset,dim,n_labels",
        [("feature dim", 13, 0, 4), ("label count", 17, 5, 0)],
        ids=["dim", "labels"],
    )
    def test_zero_width_header_rejected_at_its_field(self, tmp_path, name, offset, dim, n_labels):
        # a multi-label header of 3 samples whose payload fits the declared
        # zero width, which would otherwise load as (3, 0) arrays
        header = b"MFSH" + struct.pack("<HHBIII", 1, 0, 0, 3, dim, n_labels)
        path = tmp_path / "zero.shard"
        path.write_bytes(header + bytes(3 * 8 * (1 + dim + n_labels)))
        with pytest.raises(FormatError, match=f"declares {name} 0") as info:
            load_shard(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize(
        "task_kind,offset,dim,n_labels",
        [
            ("multi-label", 13, 2**31, 4),
            ("multi-label", 13, 2**28, 4),  # a record of 8 * (1 + 2**28 + 4) bytes
            ("single-label", 13, 2**31, 4),
            ("multi-label", 17, 5, 2**31),
            ("multi-label", 17, 5, 2**32 - 1),
        ],
        ids=["dim-2^31", "dim-record", "dim-single-label", "labels-2^31", "labels-max"],
    )
    def test_width_numpy_cannot_hold_rejected_at_its_field(
        self, tmp_path, task_kind, offset, dim, n_labels
    ):
        # even with no samples: the record type alone cannot be built
        task_idx = 0 if task_kind == "multi-label" else 1
        path = tmp_path / "wide.shard"
        path.write_bytes(b"MFSH" + struct.pack("<HHBIII", 1, 0, task_idx, 0, dim, n_labels))
        with pytest.raises(FormatError, match="too wide a record") as info:
            load_shard(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize(
        "task_kind,dim,n_labels,field",
        [
            ("multi-label", 2**28, 4, "feature dim 268435456"),
            ("single-label", 2**28, 4, "feature dim 268435456"),
            ("multi-label", 5, 2**28, "label count 268435456"),
        ],
        ids=["dim", "dim-single-label", "labels"],
    )
    def test_width_numpy_cannot_hold_not_saved(self, tmp_path, task_kind, dim, n_labels, field):
        # the save-side twin: an empty shard reaches any width, and the
        # record type is never built, so no file is written
        labels = np.zeros((0, n_labels)) if task_kind == "multi-label" else np.zeros(0)
        shard = Shard(
            modality_id=0,
            task_kind=task_kind,
            geo_keys=np.arange(0),
            features=np.zeros((0, dim)),
            labels=labels,
        )
        path = tmp_path / "wide.shard"
        with pytest.raises(ValidationError, match=f"^shard has {field}, too wide a record$"):
            save_shard(shard, path, n_labels=n_labels)
        assert not path.exists()

    def test_single_label_count_sets_no_record_width(self, tmp_path):
        # a single-label record stores one class id, whatever the count
        path = tmp_path / "many.shard"
        path.write_bytes(b"MFSH" + struct.pack("<HHBIII", 1, 0, 1, 0, 3, 2**32 - 1))
        assert load_shard(path).features.shape == (0, 3)

    @pytest.mark.parametrize(
        "features,labels", [((3, 0), (3, 2)), ((3, 2), (3, 0))], ids=["dim", "labels"]
    )
    def test_zero_width_shard_is_not_saved(self, tmp_path, features, labels):
        shard = Shard(
            modality_id=0,
            task_kind="multi-label",
            geo_keys=np.arange(3),
            features=np.zeros(features),
            labels=np.zeros(labels),
        )
        path = tmp_path / "zero.shard"
        with pytest.raises(ValidationError, match="0$"):
            save_shard(shard, path, n_labels=labels[1])
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.shard"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_shard(path)


def test_manifest_roundtrip(tmp_path):
    spec = small_spec()
    path = tmp_path / "manifest.json"
    write_manifest(
        path,
        {"train": ["train_m0.shard"], "test": ["test_m0.shard"]},
        scenario_kind="iid",
        spec=spec,
    )
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "fedmm-manifest"
    assert manifest["scenario_kind"] == "iid"
    assert manifest["dataset"]["modality_dims"] == [5, 8]
    assert DatasetSpec(**manifest["dataset"]) == spec
