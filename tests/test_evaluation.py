import dataclasses

import numpy as np
import pytest

from conftest import traced_peak
from dpdl.errors import NumericError, UndefinedMetricError, ValidationError
from dpdl.evaluation import (auc, format_report, nearest_prototype_baseline_auc,
                             Report, run_experiment, score_dataset, write_report)
from dpdl.features import Dataset, FeatureMap, SplitPlan, make_splits
from dpdl.prototypes import mgp_realize
from dpdl.scoring import anomaly_score, pass_rows
from dpdl.training import TrainConfig, train

from test_training import D, H, W, tiny_config, tiny_dataset, tiny_split

# Rows per scoring pass of the tiny models trained here.
PASS = pass_rows(H * W * D, tiny_config().n_prototypes)


def pairwise_auc(scores, labels):
    """O(n^2) reference: P(anomaly > normal) with ties counted half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuc:
    def test_hand_values(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
        assert auc([0.5, 0.5], [0, 1]) == 0.5
        assert auc([1.0, 2.0, 3.0], [0, 1, 0]) == 0.5

    def test_matches_pair_counting_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 40))
            scores = np.round(rng.normal(size=n), 1)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(
            auc(np.tanh(scores) * 3 + 7, labels), abs=1e-12)

    def test_label_flip_symmetry(self, rng):
        scores = rng.normal(size=25)
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(1.0 - auc(-scores, labels), abs=1e-12)

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([1.0, 2.0], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auc([1.0, 2.0], [0, 0])

    def test_validation(self):
        with pytest.raises(ValidationError):
            auc([1.0, np.nan], [0, 1])
        with pytest.raises(ValidationError):
            auc([1.0, 2.0], [0, 2])
        with pytest.raises(ValidationError):
            auc([1.0, 2.0, 3.0], [0, 1])


class TestScoreDataset:
    def test_rows_equal_per_item_anomaly_score(self):
        ds = tiny_dataset(n_normal=70, n_anomaly=10)
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        rows = score_dataset(ckpt, ds)
        mgp = mgp_realize(ckpt.params)
        scale = ckpt.config.residual_scale
        assert len(rows) == len(ds)
        for row, item in zip(rows, ds.items):
            assert row == (item.source_id, item.label,
                           anomaly_score(mgp, ckpt.heads, item, scale))

    def test_item_subset_and_row_shape(self):
        ds = tiny_dataset()
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        rows = score_dataset(ckpt, ds, item_ids=[3, 0, 14])
        assert [r[0] for r in rows] == [ds.items[3].source_id,
                                        ds.items[0].source_id,
                                        ds.items[14].source_id]
        assert rows[2][1] == 1
        assert all(np.isfinite(r[2]) for r in rows)


def same_bits(rows, want):
    """Score rows equal ``want`` bit for bit (0.0 and -0.0 differ)."""
    return np.array([r[2] for r in rows]).tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.fixture(scope="module", params=[1e-3, 0.5], ids=["eps1e-3", "eps0.5"])
def chunk_case(request):
    """A trained checkpoint and a dataset of more than two passes.  At
    epsilon 1e-3 nearly every conditional plan is one-hot."""
    ds = tiny_dataset(n_normal=2 * PASS + 8, n_anomaly=8)
    ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1, epsilon=request.param)).checkpoint
    return ckpt, ds


class TestChunkedScoring:
    @pytest.mark.parametrize("n", [1, PASS - 1, PASS, PASS + 1, 2 * PASS + 3],
                             ids=["1", "pass-1", "pass", "pass+1", "2pass+3"])
    def test_rows_equal_anomaly_score_bits(self, chunk_case, n):
        ckpt, ds = chunk_case
        mgp = mgp_realize(ckpt.params)
        scale = ckpt.config.residual_scale
        ids = list(range(len(ds)))[-n:]
        rows = score_dataset(ckpt, ds, ids)
        assert [r[0] for r in rows] == [ds.items[i].source_id for i in ids]
        assert same_bits(rows, [anomaly_score(mgp, ckpt.heads, ds.items[i], scale) for i in ids])

    def test_shuffled_and_repeated_ids(self, chunk_case):
        ckpt, ds = chunk_case
        alone = {row[0]: row[2] for row in score_dataset(ckpt, ds)}
        order = np.random.default_rng(7).permutation(len(ds))
        for ids in (order.tolist(), [5] * (PASS + 2), order[:2 * PASS + 1].tolist() * 3):
            rows = score_dataset(ckpt, ds, ids)
            assert same_bits(rows, [alone[ds.items[i].source_id] for i in ids])

    def test_memory_does_not_grow_with_item_count(self):
        # At D = 2048 one pass of float64 rows is pass_rows(2048, C) * 16 KiB;
        # a stack of all the items would be 20 passes of it.
        rows = pass_rows(8 * 8 * 32, tiny_config().n_prototypes)
        rng = np.random.default_rng(3)
        items = tuple(FeatureMap(rng.normal(0.0, 0.1, size=(8, 8, 32)).astype(np.float32),
                                 int(i % 10 == 0), 0, f"x{i}") for i in range(20 * rows))
        ds = Dataset(items, name="wide")
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        pass_bytes = rows * 2048 * 8
        peaks = {}
        for n in (2 * rows, 20 * rows):
            _, peaks[n] = traced_peak(score_dataset, ckpt, ds, range(n))
        assert peaks[20 * rows] < 12 * pass_bytes
        assert peaks[20 * rows] - peaks[2 * rows] < pass_bytes

    def test_non_finite_score_names_its_item(self):
        # Item 13 is an anomaly with a cell near 2.1: 2.1 * 1e308 overflows.
        ds = tiny_dataset()
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        ckpt.heads.anomaly.w[:] = 1e308
        ckpt.heads.anomaly.b[:] = 0.0
        with pytest.raises(NumericError, match="not finite") as info:
            score_dataset(ckpt, ds, [1, 13])
        assert repr(ds.items[13].source_id) in str(info.value)

    @pytest.mark.parametrize("bad", [-1, "len", 1.5, float("nan")])
    def test_ids_that_name_no_item_are_rejected(self, bad):
        # A negative id used to wrap to the last item, an id at len(ds)
        # ended in a bare IndexError and a NaN id in numpy's cast warning;
        # training checks its split the same way.
        ds = tiny_dataset()
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        bad = len(ds) if bad == "len" else bad
        with pytest.raises(ValidationError, match=f"{bad} is not an item id"):
            score_dataset(ckpt, ds, [0, bad])
        split = dataclasses.replace(tiny_split(ds), test_ids=(0, bad))
        with pytest.raises(ValidationError, match=f"{bad} is not an item id"):
            train(ds, split, tiny_config(epochs=1))

    @pytest.mark.parametrize("kind", ["mask", "text", "none"])
    def test_ids_that_are_not_integers_are_rejected(self, kind):
        # A boolean mask was read as the ids 0 and 1: score_dataset returned
        # one row per mask entry, each of item 0 or 1.  A string id ended in
        # numpy's UFuncTypeError and None in a bare TypeError.
        ds = tiny_dataset()
        ckpt = train(ds, tiny_split(ds), tiny_config(epochs=1)).checkpoint
        ids = {"mask": np.isin(np.arange(len(ds)), [1, 13]), "text": np.array(["1"]),
               "none": np.array([None])}[kind]
        with pytest.raises(ValidationError, match="item ids must be integers"):
            score_dataset(ckpt, ds, ids)
        split = dataclasses.replace(tiny_split(ds), test_ids=ids)
        with pytest.raises(ValidationError, match="item ids must be integers"):
            train(ds, split, tiny_config(epochs=1))


def blobby_dataset(n_normal=40, n_anomaly=12, shift=4.0, seed=5):
    """Normals tight around zero, anomalies displaced: trivially separable."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_normal):
        grid = rng.normal(0.0, 0.1, size=(2, 2, 3)).astype(np.float32)
        items.append(FeatureMap(grid, 0, 0, f"n{i:03d}"))
    for i in range(n_anomaly):
        grid = rng.normal(0.0, 0.1, size=(2, 2, 3)).astype(np.float32)
        grid[0, 1] += shift
        items.append(FeatureMap(grid, 1, 1 + i % 2, f"a{i:03d}"))
    return Dataset(tuple(items), name="blobby")


class TestBaseline:
    def test_separates_displaced_anomalies(self):
        ds = blobby_dataset()
        split = make_splits(ds, "general", 2, seed=0)
        assert nearest_prototype_baseline_auc(ds, split, 8, seed=0) > 0.95

    def test_codebook_capped_by_pool_size(self):
        ds = blobby_dataset(n_normal=6, n_anomaly=4)
        split = make_splits(ds, "general", 1, seed=0)
        value = nearest_prototype_baseline_auc(ds, split, 32, seed=0)
        assert 0.0 <= value <= 1.0

    def test_equals_direct_distances_exactly(self):
        # Small integers, and clusters of identical training normals, so
        # the codewords are integers and the expanded distances are exact.
        centers = [(0, 0, 0, 0), (4, 4, 0, 0), (0, 0, 6, 2)]
        train = [c for c in centers for _ in range(3)]
        test = [(0, 1, 0, 0), (4, 4, 1, 1), (2, 2, 0, 0), (0, 0, 6, 2), (1, 0, 0, 1),
                (3, 0, 3, 0), (5, 5, 5, 5), (0, 2, 2, 0), (2, 0, 2, 0), (4, 2, 0, 0)]
        labels = [0, 0, 1, 0, 1, 1, 1, 0, 1, 0]
        items = [FeatureMap(np.array(v, dtype=np.float32).reshape(2, 1, 2), 0, 0, f"t{i}")
                 for i, v in enumerate(train)]
        items += [FeatureMap(np.array(v, dtype=np.float32).reshape(2, 1, 2), y, y, f"x{i}")
                  for i, (v, y) in enumerate(zip(test, labels))]
        ds = Dataset(tuple(items), name="integers")
        split = SplitPlan(train_normal_ids=tuple(range(9)), train_anomaly_ids=(),
                          test_ids=tuple(range(9, 19)), protocol="general", m=0, seed=0)
        x = np.array(test, dtype=np.float64)
        d2 = ((x[:, None, :] - np.array(centers, dtype=np.float64)) ** 2).sum(-1).min(1)
        want = auc(np.sqrt(d2), np.array(labels))
        assert 0.5 < want < 1.0
        for seed in range(3):
            assert nearest_prototype_baseline_auc(ds, split, 3, seed=seed) == want

    @pytest.mark.parametrize("bad", [-1, "len"])
    def test_ids_that_name_no_item_are_rejected(self, bad):
        # A test id of -1 scored the last item and one of len(ds) ended in
        # a bare IndexError.
        ds = blobby_dataset()
        split = make_splits(ds, "general", 2, seed=0)
        bad = len(ds) if bad == "len" else bad
        for field in ("test_ids", "train_normal_ids"):
            broken = dataclasses.replace(split, **{field: getattr(split, field) + (bad,)})
            with pytest.raises(ValidationError, match=f"{bad} is not an item id"):
                nearest_prototype_baseline_auc(ds, broken, 8, seed=0)

    @pytest.mark.parametrize("kind", ["mask", "text", "none"])
    def test_ids_that_are_not_integers_are_rejected(self, kind):
        ds = blobby_dataset()
        split = make_splits(ds, "general", 2, seed=0)
        for field in ("test_ids", "train_normal_ids"):
            ids = {"mask": np.isin(np.arange(len(ds)), getattr(split, field)), "text": np.array(["1"]),
                   "none": np.array([None])}[kind]
            broken = dataclasses.replace(split, **{field: ids})
            with pytest.raises(ValidationError, match="item ids must be integers"):
                nearest_prototype_baseline_auc(ds, broken, 8, seed=0)


class TestRunExperiment:
    def test_single_run_has_zero_std(self):
        ds = blobby_dataset()
        report, results = run_experiment(ds, "general", 1, 1, 9, tiny_config(epochs=1))
        assert report.n_runs == 1
        assert report.std_auc == 0.0
        assert report.run_seeds == (9,)
        assert report.mean_auc == report.aucs[0]
        assert len(results) == 1
        assert results[0].checkpoint.config.seed == 9
        assert results[0].checkpoint.config.protocol == "general"

    def test_deterministic_across_calls(self):
        ds = blobby_dataset()
        r1, _ = run_experiment(ds, "general", 1, 2, 0, tiny_config(epochs=1))
        r2, _ = run_experiment(ds, "general", 1, 2, 0, tiny_config(epochs=1))
        assert r1 == r2

    def test_consecutive_seeds(self):
        ds = blobby_dataset()
        report, _ = run_experiment(ds, "general", 1, 3, 4, tiny_config(epochs=1))
        assert report.run_seeds == (4, 5, 6)
        assert report.mean_auc == pytest.approx(np.mean(report.aucs), abs=1e-15)
        assert report.std_auc == pytest.approx(np.std(report.aucs, ddof=1), abs=1e-15)

    def test_rejects_zero_runs(self):
        ds = blobby_dataset()
        with pytest.raises(ValidationError):
            run_experiment(ds, "general", 1, 0, 0, tiny_config())

    @pytest.mark.parametrize("value", [-1, 1.5, True, "a"])
    @pytest.mark.parametrize("name", ["n_runs", "base_seed"])
    def test_integer_arguments_are_checked(self, name, value):
        # An n_runs of 1.5 escaped as a bare TypeError, and True passed as 1.
        args = {"n_runs": 1, "base_seed": 0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            run_experiment(blobby_dataset(), "general", 1, config=tiny_config(epochs=1), **args)

    def test_numpy_integer_arguments_are_accepted(self):
        # The run seeds count on past a narrow numpy base seed's largest value.
        ds = blobby_dataset()
        got, _ = run_experiment(ds, "general", 1, np.int64(2), np.uint8(255), tiny_config(epochs=1))
        want, _ = run_experiment(ds, "general", 1, 2, 255, tiny_config(epochs=1))
        assert got.run_seeds == want.run_seeds == (255, 256)
        assert got.aucs == want.aucs


class TestReportFiles:
    REPORT = Report(protocol="hard", m=1, n_runs=2, base_seed=0, run_seeds=(0, 1),
                    aucs=(0.9123456789012345, 1.0), mean_auc=0.9561728394506172,
                    std_auc=0.06197682284588007)

    def test_format_contains_every_field(self):
        text = format_report(self.REPORT)
        assert "protocol: hard" in text
        assert "m: 1" in text
        assert "runs: 2" in text
        assert "run 0: seed=0" in text
        assert "mean_auc:" in text and "std_auc:" in text

    def test_written_floats_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        sibling = write_report(path, self.REPORT)
        assert sibling == tmp_path / "report.txt.csv"
        lines = sibling.read_text().strip().splitlines()
        assert lines[0] == "run,seed,auc"
        assert float(lines[1].split(",")[2]) == self.REPORT.aucs[0]
        assert float(lines[-2].split(",")[2]) == self.REPORT.mean_auc
        assert float(lines[-1].split(",")[2]) == self.REPORT.std_auc
        text = path.read_text()
        assert f"{self.REPORT.aucs[0]:.17g}" in text
