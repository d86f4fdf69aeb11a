import numpy as np
import pytest

from dpdl.errors import UndefinedMetricError, ValidationError
from dpdl.evaluation import (auc, format_report, nearest_prototype_baseline_auc,
                             Report, run_experiment, score_dataset, write_report)
from dpdl.features import Dataset, FeatureMap, make_splits
from dpdl.prototypes import mgp_realize
from dpdl.scoring import anomaly_score
from dpdl.training import TrainConfig, train

from test_training import tiny_config, tiny_dataset, tiny_split


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
