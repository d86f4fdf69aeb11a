import dataclasses
import struct

import numpy as np
import pytest

from conftest import traced_peak
from dpdl.errors import (CorruptionError, FormatError, ProtocolError,
                         ValidationError)
from dpdl.features import (LABEL_ANOMALY, LABEL_NORMAL, PSEUDO_ANOMALY_CLASS_ID,
                           Dataset, FeatureMap, SynthConfig, canonical_source_id,
                           cutmix_pseudo_anomaly, cutmix_rectangle, make_splits, read_feature_file,
                           synth_generate, write_feature_file)
from dpdl.prototypes import _ROW_BLOCK

HEADER_BYTES = struct.calcsize("<8sIQIII")
RECORD_HEAD_BYTES = struct.calcsize("<IB3s")


def small_dataset(n=3, h=2, w=2, d=3, seed=0, canonical=True):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        label = LABEL_ANOMALY if i == n - 1 and n > 1 else LABEL_NORMAL
        sid = canonical_source_id(i) if canonical else f"orig-{i}"
        items.append(FeatureMap(
            rng.normal(size=(h, w, d)).astype(np.float32), label,
            5 if label else 0, sid))
    return Dataset(tuple(items), name="small")


class TestFeatureMap:
    def test_grid_is_readonly_float32(self):
        fm = FeatureMap(np.ones((1, 2, 3)), LABEL_NORMAL, 0, "x")
        assert fm.grid.dtype == np.float32
        with pytest.raises(ValueError):
            fm.grid[0, 0, 0] = 2.0

    def test_flat_is_float64_row_major(self):
        g = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        fm = FeatureMap(g, 0, 0, "x")
        flat = fm.flat()
        assert flat.dtype == np.float64
        assert np.array_equal(flat, np.arange(12.0))

    def test_rejects_bad_shapes_and_labels(self):
        with pytest.raises(ValidationError):
            FeatureMap(np.ones((2, 3)), 0, 0, "x")
        with pytest.raises(ValidationError):
            FeatureMap(np.ones((1, 1, 1)), 2, 0, "x")
        with pytest.raises(ValidationError):
            FeatureMap(np.full((1, 1, 1), np.nan), 0, 0, "x")
        with pytest.raises(ValidationError):
            FeatureMap(np.ones((1, 1, 1)), 0, -1, "x")

    def test_equality_is_bit_exact(self):
        a = FeatureMap(np.ones((1, 1, 2)), 0, 0, "x")
        b = FeatureMap(np.ones((1, 1, 2)), 0, 0, "x")
        c = FeatureMap(np.ones((1, 1, 2)) + 1e-7, 0, 0, "x")
        assert a == b
        assert a != c
        # 0.0 == -0.0 as numbers, but their bits differ.
        zero, minus_zero = (FeatureMap(v * np.zeros((1, 1, 1)), 0, 0, "x") for v in (1.0, -1.0))
        assert zero != minus_zero
        assert Dataset([zero]) != Dataset([minus_zero])
        assert Dataset([zero]) == Dataset([FeatureMap(np.zeros((1, 1, 1)), 0, 0, "x")])


class TestDataset:
    def test_requires_items_and_a_normal(self):
        with pytest.raises(ValidationError):
            Dataset(())
        only_anomaly = FeatureMap(np.ones((1, 1, 1)), LABEL_ANOMALY, 1, "a")
        with pytest.raises(ValidationError):
            Dataset((only_anomaly,))

    def test_rejects_mixed_dims(self):
        a = FeatureMap(np.ones((1, 1, 2)), 0, 0, "a")
        b = FeatureMap(np.ones((1, 2, 2)), 0, 0, "b")
        with pytest.raises(ValidationError):
            Dataset((a, b))

    def test_equality_ignores_name(self):
        ds = small_dataset()
        other = Dataset(ds.items, name="renamed", seed=99)
        assert ds == other

    def test_items_are_views_of_the_arrays(self, tmp_path):
        ds = small_dataset(n=4)
        path = tmp_path / "a.feat"
        write_feature_file(path, ds)
        back = read_feature_file(path)
        assert back == ds
        for dataset in (ds, back):
            assert dataset.grids.dtype == np.float32 and dataset.grids.shape == (4, 2, 2, 3)
            for i, item in enumerate(dataset.items):
                assert item.grid.tobytes() == dataset.grids[i].tobytes()
                assert np.shares_memory(item.grid, dataset.grids)
                assert (item.label, item.class_id, item.source_id) == (
                    dataset.labels[i], dataset.class_ids[i], dataset.source_ids[i])
            assert dataset.items is dataset.items

    @pytest.mark.parametrize("first,corrupt,file_error", [
        ({"grid": np.ones((1, 2, 3))},
         lambda blob: blob.extend(struct.pack("<IB3s", 0, 0, bytes(3)) + bytes(4 * 6)), CorruptionError),
        ({"label": 1}, lambda blob: blob.__setitem__(HEADER_BYTES + 4, 1), ValidationError),
        ({"label": 2}, lambda blob: blob.__setitem__(HEADER_BYTES + 4, 2), CorruptionError),
        ({"grid": np.full((1, 2, 2), np.nan)},
         lambda blob: struct.pack_into("<f", blob, HEADER_BYTES + RECORD_HEAD_BYTES, np.inf), CorruptionError),
    ], ids=["mixed dims", "no normal", "bad label", "non-finite"])
    def test_items_and_file_raise_the_same_errors(self, tmp_path, first, corrupt, file_error):
        # Items fail at FeatureMap or Dataset with a ValidationError.  A file
        # fails at its reader: a corrupt byte is a CorruptionError, itself a
        # ValidationError, and a well-formed file without a normal item is a
        # plain ValidationError.
        grid = np.ones((1, 2, 2), dtype=np.float32)
        with pytest.raises(ValidationError) as from_items:
            Dataset((FeatureMap(**{"grid": grid, "label": 0, "class_id": 0, "source_id": "a", **first}),
                     FeatureMap(grid, 1, 0, "b")))
        path = tmp_path / "f.feat"
        write_feature_file(path, Dataset((FeatureMap(grid, 0, 0, "a"), FeatureMap(grid, 1, 0, "b"))))
        blob = bytearray(path.read_bytes())
        corrupt(blob)
        path.write_bytes(bytes(blob))
        with pytest.raises(file_error) as from_file:
            read_feature_file(path)
        assert from_items.type is ValidationError and from_file.type is file_error


def block_dataset(n, h=4, w=4, d=64):
    """n items of 4x4x64 = 1024 values, so a row block holds _ROW_BLOCK // 1024 of them."""
    rng = np.random.default_rng(n)
    grids = rng.normal(size=(n, h, w, d)).astype(np.float32)
    labels = (np.arange(n) % 3 == 2).astype(np.uint8)
    class_ids = labels * np.uint32(7)
    return Dataset.__new__(Dataset)._hold(grids, labels, class_ids, None, "blocks", None)


ROWS_PER_BLOCK = _ROW_BLOCK // 1024
BLOCK_EDGES = [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1]


class TestRowBlocks:
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_flats_have_the_bits_of_one_promotion(self, n):
        ds = block_dataset(n)
        ids = np.random.default_rng(0).permutation(n)
        got = ds.flats(ids)
        want = ds.grids[ids].reshape(n, -1).astype(np.float64)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ds.flats(ids[:0]).shape == (0, 1024)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_file_bytes_equal_one_record_array(self, tmp_path, n):
        ds = block_dataset(n)
        records = np.zeros(n, dtype=[("class_id", "<u4"), ("label", "u1"), ("pad", "V3"),
                                     ("grid", "<f4", (4, 4, 64))])
        records["class_id"], records["label"], records["grid"] = ds.class_ids, ds.labels, ds.grids
        path = tmp_path / "b.feat"
        write_feature_file(path, ds)
        assert path.read_bytes() == struct.pack("<8sIQIII", b"DPDLFEAT", 1, n, 4, 4, 64) + records.tobytes()

    @pytest.mark.parametrize("bad", [0, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, 2 * ROWS_PER_BLOCK])
    def test_reader_names_a_non_finite_item_in_any_block(self, tmp_path, bad):
        path = tmp_path / "b.feat"
        write_feature_file(path, block_dataset(2 * ROWS_PER_BLOCK + 1))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, HEADER_BYTES + bad * (RECORD_HEAD_BYTES + 4096) + RECORD_HEAD_BYTES + 4,
                         np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match=f"item {bad} contains non-finite values"):
            read_feature_file(path)

    def test_writer_memory_does_not_grow_with_the_item_count(self, tmp_path):
        # The whole-file record array of the 10x dataset is 5 MB.
        peaks = {}
        for n in (4 * ROWS_PER_BLOCK, 40 * ROWS_PER_BLOCK):
            ds = block_dataset(n)
            _, peaks[n] = traced_peak(write_feature_file, tmp_path / f"{n}.feat", ds)
        small, large = peaks.values()
        assert large <= small + 4096
        assert small < 2 * 4 * _ROW_BLOCK


class TestFeatureFile:
    def test_round_trip_identity(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.feat"
        write_feature_file(path, ds)
        back = read_feature_file(path)
        assert back == ds
        for a, b in zip(back.items, ds.items):
            assert a.grid.tobytes() == b.grid.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = small_dataset()
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        write_feature_file(p1, ds)
        write_feature_file(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_formula(self, tmp_path):
        ds = small_dataset(n=1, h=2, w=3, d=4)
        path = tmp_path / "one.feat"
        write_feature_file(path, ds)
        assert path.stat().st_size == HEADER_BYTES + RECORD_HEAD_BYTES + 2 * 3 * 4 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        # 2 items of 2x2x3 floats = 48 payload floats; drop the last one.
        ds = small_dataset(n=2, h=2, w=2, d=3)
        path = tmp_path / "t.feat"
        write_feature_file(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CorruptionError):
            read_feature_file(path)

    def test_zero_extent_dims(self, tmp_path):
        path = tmp_path / "z.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 20, 0)  # height field
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError):
            read_feature_file(path)

    def test_nonzero_padding(self, tmp_path):
        path = tmp_path / "p.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES + 5] = 7  # first record's padding
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_feature_file(path)

    def test_bad_label_byte(self, tmp_path):
        path = tmp_path / "l.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES + 4] = 3  # first record's label
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_feature_file(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.feat"
        write_feature_file(path, small_dataset(n=1))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, HEADER_BYTES + RECORD_HEAD_BYTES, np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_feature_file(path)

    def test_bytes_match_hand_packed_file(self, tmp_path):
        g0 = np.arange(12, dtype=np.float32).reshape(2, 2, 3) - 5.5
        g1 = np.linspace(-1e30, 3e-30, 12, dtype=np.float32).reshape(2, 2, 3)
        ds = Dataset((FeatureMap(g0, LABEL_NORMAL, 0, "a"),
                      FeatureMap(g1, LABEL_ANOMALY, PSEUDO_ANOMALY_CLASS_ID, "b")))
        want = struct.pack("<8sIQIII", b"DPDLFEAT", 1, 2, 2, 2, 3)
        want += struct.pack("<IB3s", 0, 0, b"\x00\x00\x00") + struct.pack("<12f", *g0.reshape(-1))
        want += struct.pack("<IB3s", 0xFFFFFFFF, 1, b"\x00\x00\x00") + struct.pack("<12f", *g1.reshape(-1))
        path = tmp_path / "hand.feat"
        write_feature_file(path, ds)
        assert path.read_bytes() == want
        path.write_bytes(want)
        back = read_feature_file(path)
        assert [(it.label, it.class_id) for it in back.items] == [(0, 0), (1, 0xFFFFFFFF)]
        assert back.items[1].grid.tobytes() == g1.tobytes()

    def test_arrays_are_read_only_views_of_the_bytes(self, tmp_path):
        path = tmp_path / "v.feat"
        write_feature_file(path, small_dataset())
        back = read_feature_file(path)
        for array in (back.grids, back.labels, back.class_ids):
            assert not array.flags.writeable and not array.flags.owndata
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, bytes) and len(base) == path.stat().st_size
            assert np.shares_memory(array, np.frombuffer(base, dtype=np.uint8))

    def test_items_are_read_only_views(self, tmp_path):
        path = tmp_path / "v.feat"
        write_feature_file(path, small_dataset())
        back = read_feature_file(path)
        for item in back.items:
            assert item.grid.dtype == np.float32
            assert not item.grid.flags.writeable
            assert item.grid.base is not None
            with pytest.raises(ValueError):
                item.grid[0, 0, 0] = 1.0

    @pytest.mark.parametrize("corrupt,reason", [
        (lambda blob, rec: blob.__setitem__(HEADER_BYTES + rec + 6, 1), "padding"),
        (lambda blob, rec: blob.__setitem__(HEADER_BYTES + rec + 4, 2), "label 2"),
        (lambda blob, rec: struct.pack_into("<f", blob, HEADER_BYTES + rec + RECORD_HEAD_BYTES + 8,
                                            np.inf), "non-finite"),
    ])
    def test_error_names_the_first_bad_item(self, tmp_path, corrupt, reason):
        ds = small_dataset(n=5)
        path = tmp_path / "c.feat"
        write_feature_file(path, ds)
        blob = bytearray(path.read_bytes())
        rec = RECORD_HEAD_BYTES + 2 * 2 * 3 * 4
        corrupt(blob, 3 * rec)
        blob[HEADER_BYTES + 4 * rec + 4] = 9  # a later item with a bad label
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match=f"item 3 .*{reason}"):
            read_feature_file(path)

    def test_plus_and_minus_inf_in_one_item_warn_nothing(self, tmp_path, recwarn):
        # Their float64 sum is a NaN; numpy used to warn "invalid value
        # encountered in reduce" before the CorruptionError.
        path = tmp_path / "c.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        for k, value in enumerate((np.inf, -np.inf)):
            struct.pack_into("<f", blob, HEADER_BYTES + RECORD_HEAD_BYTES + 4 * k, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="item 0 contains non-finite values"):
            read_feature_file(path)
        assert not recwarn.list

    @pytest.mark.parametrize("values", [(np.nan,), (np.inf, -np.inf)], ids=["nan", "plus and minus inf"])
    def test_non_finite_item_is_refused_by_map_and_file(self, tmp_path, values):
        grid = np.ones((2, 2, 3), dtype=np.float32)
        grid.reshape(-1)[:len(values)] = values
        with pytest.raises(ValidationError, match="feature map 'x' contains non-finite values"):
            FeatureMap(grid, LABEL_NORMAL, 0, "x")
        path = tmp_path / "c.feat"
        write_feature_file(path, small_dataset())
        blob = bytearray(path.read_bytes())
        for k, value in enumerate(values):
            struct.pack_into("<f", blob, HEADER_BYTES + RECORD_HEAD_BYTES + 4 * k, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="item 0 contains non-finite values"):
            read_feature_file(path)

    def test_finite_item_whose_float32_sum_overflows_is_accepted(self, tmp_path):
        grid = np.full((2, 2, 3), 3e38, dtype=np.float32)
        with np.errstate(over="ignore"):
            assert np.isinf(grid.sum())
        fm = FeatureMap(grid, LABEL_NORMAL, 0, "x")
        path = tmp_path / "big.feat"
        write_feature_file(path, Dataset((fm,)))
        assert read_feature_file(path).grids.tobytes() == grid.tobytes()

    def test_reader_assigns_canonical_ids(self, tmp_path):
        ds = small_dataset(canonical=False)
        path = tmp_path / "ids.feat"
        write_feature_file(path, ds)
        back = read_feature_file(path)
        assert [it.source_id for it in back.items] == ["item-000000", "item-000001", "item-000002"]


class TestSynthConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SynthConfig)
                                       if f.type == "float"])
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(SynthConfig(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("noise", "1"), ("noise", True), ("height", 1.5), ("channels", 8.0), ("height", True),
    ])
    def test_rejects_value_of_another_type(self, field, value):
        # noise="1" was a bare TypeError, and height=True a TypeError inside synth_generate.
        with pytest.raises(ValidationError, match=f"{field} must be"):
            SynthConfig(**{field: value})

    def test_numpy_integers_are_accepted(self):
        assert SynthConfig(height=np.int32(3), noise=2).height == 3


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_per_normal_cluster=8, n_per_anomaly_class=3)
        assert synth_generate(cfg, 5) == synth_generate(cfg, 5)
        assert synth_generate(cfg, 5) != synth_generate(cfg, 6)

    def test_counts_and_metadata(self):
        cfg = SynthConfig(n_normal_clusters=2, n_anomaly_classes=3,
                          n_per_normal_cluster=10, n_per_anomaly_class=4)
        ds = synth_generate(cfg, 0)
        normals = [it for it in ds.items if it.label == LABEL_NORMAL]
        anomalies = [it for it in ds.items if it.label == LABEL_ANOMALY]
        assert len(normals) == 20 and len(anomalies) == 12
        assert {it.class_id for it in normals} == {0}
        assert {it.class_id for it in anomalies} == {1, 2, 3}
        assert normals[0].source_id == "normal-c0-0000"
        assert anomalies[0].source_id == "anomaly-k1-0000"

    def test_kmeans_recovers_clusters(self):
        # Brute-force 2-means on the flattened vectors; >= 95% label agreement.
        ds = synth_generate(SynthConfig(), 3)
        x = np.stack([it.flat() for it in ds.items if it.label == LABEL_NORMAL])
        true = np.array([int(it.source_id.split("-")[1][1:])
                         for it in ds.items if it.label == LABEL_NORMAL])
        book = x[[0, 1]].copy()
        for _ in range(50):
            d2 = ((x[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            new = np.stack([x[assign == k].mean(axis=0) for k in (0, 1)])
            if np.allclose(new, book):
                break
            book = new
        agreement = max(np.mean(assign == true), np.mean(assign != true))
        assert agreement >= 0.95

    def test_large_shift_separates_distances(self):
        # Anomaly displacement at 10x the noise level: every anomaly sits
        # farther from the closest cluster center than every normal.
        cfg = SynthConfig(noise=0.1, detail_noise=0.1, anomaly_shift=1.0,
                          cluster_scale=0.8, n_per_normal_cluster=60,
                          n_per_anomaly_class=20)
        ds = synth_generate(cfg, 11)
        normals = np.stack([it.flat() for it in ds.items if it.label == LABEL_NORMAL])
        centers = np.stack([normals[:60].mean(axis=0), normals[60:].mean(axis=0)])

        def nearest(v):
            return np.sqrt(((centers - v) ** 2).sum(axis=1).min())

        dn = [nearest(it.flat()) for it in ds.items if it.label == LABEL_NORMAL]
        da = [nearest(it.flat()) for it in ds.items if it.label == LABEL_ANOMALY]
        pairs = [(a > n) for a in da for n in dn]
        assert np.mean(pairs) >= 0.99

    def test_context_channels_not_displaced(self):
        cfg = SynthConfig(n_per_normal_cluster=400, n_per_anomaly_class=400,
                          n_anomaly_classes=1, noise=0.01, detail_noise=0.01,
                          anomaly_shift=3.0)
        ds = synth_generate(cfg, 2)
        normal_mean = np.stack([it.flat() for it in ds.items
                                if it.label == LABEL_NORMAL][:400]).mean(axis=0)
        anomaly_mean = np.stack([it.flat() for it in ds.items
                                 if it.label == LABEL_ANOMALY]).mean(axis=0)
        gap = np.abs(anomaly_mean - normal_mean).reshape(16, 8)
        # context channels move only by sampling noise, detail channels carry
        # the full displacement somewhere
        assert gap[:, :2].max() < 0.05
        assert gap[:, 2:].max() > 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_normal_clusters=0)
        with pytest.raises(ValidationError):
            SynthConfig(noise=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(anomaly_patch_fraction=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(n_context_channels=9)
        with pytest.raises(ValidationError):
            SynthConfig(n_context_channels=8)  # no detail channels left

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 escaped as a bare numpy ValueError, and True passed as 1.
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            synth_generate(SynthConfig(n_per_normal_cluster=5, n_per_anomaly_class=2), seed)


class TestMakeSplits:
    def test_normal_ratio_and_disjointness(self):
        ds = synth_generate(SynthConfig(n_per_normal_cluster=50,
                                        n_per_anomaly_class=5), 0)
        split = make_splits(ds, "general", 3, 9)
        train_n = set(split.train_normal_ids)
        test = set(split.test_ids)
        assert len(train_n) == 75 and not train_n & test
        assert len(split.train_anomaly_ids) == 3
        assert not set(split.train_anomaly_ids) & test
        test_normals = [i for i in split.test_ids if ds.items[i].label == LABEL_NORMAL]
        assert len(test_normals) == 25

    def test_floor_rule(self):
        # 7 normals -> 1 test, 6 train
        items = [FeatureMap(np.zeros((1, 1, 1)), 0, 0, f"n{i}") for i in range(7)]
        items += [FeatureMap(np.zeros((1, 1, 1)), 1, 1, "a0"),
                  FeatureMap(np.zeros((1, 1, 1)), 1, 2, "a1")]
        ds = Dataset(tuple(items))
        split = make_splits(ds, "general", 1, 0)
        assert len(split.train_normal_ids) == 6
        assert sum(1 for i in split.test_ids if ds.items[i].label == 0) == 1

    def test_determinism(self):
        ds = synth_generate(SynthConfig(n_per_normal_cluster=20,
                                        n_per_anomaly_class=4), 1)
        assert make_splits(ds, "hard", 1, 4) == make_splits(ds, "hard", 1, 4)
        assert make_splits(ds, "hard", 1, 4) != make_splits(ds, "hard", 1, 5)

    def test_hard_single_class_and_exclusion(self):
        ds = synth_generate(SynthConfig(n_per_normal_cluster=20,
                                        n_per_anomaly_class=6), 2)
        for seed in range(6):
            split = make_splits(ds, "hard", 2, seed)
            train_classes = {ds.items[i].class_id for i in split.train_anomaly_ids}
            assert len(train_classes) == 1
            chosen = train_classes.pop()
            test_classes = {ds.items[i].class_id for i in split.test_ids
                            if ds.items[i].label == LABEL_ANOMALY}
            assert chosen not in test_classes
            assert set(split.held_out_classes) == test_classes
            # leftover items of the chosen class are dropped, not tested
            assert len(split.test_ids) == 10 + 12

    def test_hard_m1_two_classes(self):
        items = [FeatureMap(np.zeros((1, 1, 1)), 0, 0, f"n{i}") for i in range(8)]
        items += [FeatureMap(np.ones((1, 1, 1)), 1, c, f"a{c}{i}")
                  for c in (1, 2) for i in range(3)]
        ds = Dataset(tuple(items))
        split = make_splits(ds, "hard", 1, 0)
        assert len(split.train_anomaly_ids) == 1
        chosen = ds.items[split.train_anomaly_ids[0]].class_id
        test_anoms = [ds.items[i] for i in split.test_ids if i >= 8]
        assert all(it.class_id != chosen for it in test_anoms)
        assert len(test_anoms) == 3

    def test_hard_requires_two_classes(self):
        items = [FeatureMap(np.zeros((1, 1, 1)), 0, 0, f"n{i}") for i in range(4)]
        items.append(FeatureMap(np.ones((1, 1, 1)), 1, 1, "a"))
        with pytest.raises(ProtocolError):
            make_splits(Dataset(tuple(items)), "hard", 1, 0)

    def test_too_many_anomalies_requested(self):
        ds = synth_generate(SynthConfig(n_per_anomaly_class=2), 0)
        with pytest.raises(ValidationError):
            make_splits(ds, "general", 7, 0)
        with pytest.raises(ValidationError):
            make_splits(ds, "oops", 1, 0)

    @pytest.mark.parametrize("value", [-1, 1.5, True, "a"])
    @pytest.mark.parametrize("name", ["m", "seed"])
    def test_integer_arguments_are_checked(self, name, value):
        # A seed of -1 and an m of 1.5 escaped as a bare numpy ValueError or
        # TypeError, and True passed as 1.
        ds = synth_generate(SynthConfig(n_per_normal_cluster=20, n_per_anomaly_class=4), 1)
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            make_splits(ds, "general", **{"m": 1, "seed": 0, name: value})


class TestCutmix:
    def grids(self):
        rng = np.random.default_rng(0)
        base = FeatureMap(rng.normal(size=(4, 4, 2)).astype(np.float32), 0, 0, "base")
        donor = FeatureMap(base.grid + 1.0, 0, 0, "donor")
        return base, donor, np.random.default_rng(1)

    def test_rectangle_draws_fraction_then_row_then_column(self):
        # cutmix_pseudo_anomaly and the training batch both draw through
        # cutmix_rectangle, so its draw order fixes both random streams.
        for seed in range(8):
            ref = np.random.default_rng(seed)
            side = np.sqrt(ref.uniform(0.02, 0.4))
            rect_h, rect_w = max(1, round(4 * side)), max(1, round(8 * side))
            top, left = ref.integers(0, 4 - rect_h + 1), ref.integers(0, 8 - rect_w + 1)
            want = (slice(top, top + rect_h), slice(left, left + rect_w))
            assert cutmix_rectangle(4, 8, np.random.default_rng(seed)) == want

    def test_zero_fraction_is_identity(self):
        base, donor, rng = self.grids()
        out = cutmix_pseudo_anomaly(base, donor, rng, area_fraction=0.0)
        assert np.array_equal(out.grid, base.grid)
        assert out.label == base.label

    def test_full_fraction_copies_donor(self):
        base, donor, rng = self.grids()
        out = cutmix_pseudo_anomaly(base, donor, rng, area_fraction=1.0)
        assert np.array_equal(out.grid, donor.grid)
        assert out.label == LABEL_ANOMALY
        assert out.class_id == PSEUDO_ANOMALY_CLASS_ID

    def test_quarter_fraction_changes_four_cells(self):
        base, donor, rng = self.grids()
        out = cutmix_pseudo_anomaly(base, donor, rng, area_fraction=0.25)
        changed = np.any(out.grid != base.grid, axis=2)
        assert changed.sum() == 4

    def test_changed_cells_form_one_rectangle(self):
        base, donor, rng = self.grids()
        for _ in range(50):
            out = cutmix_pseudo_anomaly(base, donor, rng)
            changed = np.any(out.grid != base.grid, axis=2)
            rows = np.flatnonzero(changed.any(axis=1))
            cols = np.flatnonzero(changed.any(axis=0))
            expect = np.zeros_like(changed)
            expect[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1] = True
            assert np.array_equal(changed, expect)
            area = changed.mean()
            assert 1 / 16 <= area <= 9 / 16  # U(0.02, 0.4) after rounding

    def test_dim_mismatch(self):
        base, _, rng = self.grids()
        other = FeatureMap(np.zeros((2, 2, 2)), 0, 0, "o")
        with pytest.raises(ValidationError):
            cutmix_pseudo_anomaly(base, other, rng)
