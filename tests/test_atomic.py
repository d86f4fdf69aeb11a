"""Every file writer replaces its target whole or leaves it alone."""

import builtins

import numpy as np
import pytest

from dpdl import atomic
from dpdl.cli import main
from dpdl.evaluation import Report, write_report
from dpdl.features import Dataset, FeatureMap, write_feature_file
from dpdl.scoring import write_scores_csv
from dpdl.training import save_checkpoint, train
from test_training import tiny_config, tiny_dataset, tiny_split


class _FailsMidWrite:
    """A file whose first write stores half its data and then raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def fail_writes_to(monkeypatch, name_part: str):
    """Make atomic_open's file fail mid-write for targets whose name contains ``name_part``."""
    real_open = builtins.open

    def faulty_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _FailsMidWrite(fh) if name_part in path.name else fh

    monkeypatch.setattr(atomic, "open", faulty_open, raising=False)


@pytest.fixture(scope="module")
def checkpoint():
    ds = tiny_dataset()
    return train(ds, tiny_split(ds), tiny_config()).checkpoint


def small_dataset():
    rng = np.random.default_rng(0)
    return Dataset(tuple(FeatureMap(rng.normal(size=(2, 2, 3)).astype(np.float32), i % 2, 0, f"x{i}")
                         for i in range(4)))


REPORT = Report(protocol="hard", m=1, n_runs=2, base_seed=0, run_seeds=(0, 1),
                aucs=(0.5, 0.75), mean_auc=0.625, std_auc=0.17677669529663687)

WRITERS = {
    "checkpoint": lambda path, ckpt: save_checkpoint(path, ckpt),
    "report": lambda path, ckpt: write_report(path, REPORT),
    "scores": lambda path, ckpt: write_scores_csv(path, [("a", 0, 0.25), ("b", 1, 1.5)]),
    "features": lambda path, ckpt: write_feature_file(path, small_dataset()),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, checkpoint, writer, existing):
    target = tmp_path / "out.bin"
    if existing:
        target.write_bytes(b"previous")
    fail_writes_to(monkeypatch, "out.bin")
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](target, checkpoint)
    assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if existing else [])
    if existing:
        assert target.read_bytes() == b"previous"


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_target(tmp_path, checkpoint, writer):
    target = tmp_path / "out.bin"
    target.write_bytes(b"previous")
    WRITERS[writer](target, checkpoint)
    WRITERS[writer](tmp_path / "fresh.bin", checkpoint)
    assert target.read_bytes() == (tmp_path / "fresh.bin").read_bytes()
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_report_csv_sibling_failure_keeps_no_partial_sibling(tmp_path, monkeypatch):
    fail_writes_to(monkeypatch, ".csv")
    with pytest.raises(OSError, match="disk full"):
        write_report(tmp_path / "report.txt", REPORT)
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_cli_training_log_failure(tmp_path, monkeypatch):
    data = tmp_path / "data.dpdlfeat"
    ds = tiny_dataset()
    write_feature_file(data, ds)
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\niters_per_epoch = 1\nbatch_size = 4\nn_prototypes = 2\n"
                      "epsilon = 0.5\ntopk_fraction = 0.25\n")
    fail_writes_to(monkeypatch, ".log.csv")
    rc = main(["train", "--data", str(data), "--protocol", "general", "--m", "1", "--seed", "0",
               "--config", str(config), "--out", str(tmp_path / "model.ckpt")])
    assert rc == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.dpdlfeat", "model.ckpt", "train.cfg"]
