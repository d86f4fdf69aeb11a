"""Seeded byte-mutation fuzzing of every file dpdl reads.

Each mutant replaces 1-3 random bytes of a valid feature file, checkpoint
or config file.  Reading it either succeeds or raises a DpdlError; nothing
else may escape.  A sample of the mutants that fail is also run through
the command line, which must exit with code 1.

Every mutant is written under its own name: on ext4 with its default
``auto_da_alloc``, truncating and rewriting one file flushes its data on
each close, which turned a few-second loop into minutes.
"""

from pathlib import Path

import numpy as np
import pytest

import dpdl
from dpdl.cli import main
from dpdl.errors import DpdlError, ValidationError
from dpdl.features import parse_synth_config
from dpdl.training import TrainConfig

CONFIGS = Path(dpdl.__file__).resolve().parent / "configs"
MUTANTS = 3000
MUTATION_SEED = 7
CLI_SAMPLE = 5


def mutants(blob: bytes):
    rng = np.random.default_rng(MUTATION_SEED)
    for _ in range(MUTANTS):
        buf = bytearray(blob)
        for pos in rng.integers(len(buf), size=int(rng.integers(1, 4))):
            buf[pos] = int(rng.integers(256))
        yield bytes(buf)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A feature file of 2x2x3 grids and a checkpoint with C = 2 trained on it."""
    root = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(0)
    items = tuple(dpdl.FeatureMap(rng.normal(size=(2, 2, 3)).astype(np.float32),
                                  int(i >= 12), int(i >= 12), f"x{i}") for i in range(16))
    dataset = dpdl.Dataset(items)
    split = dpdl.SplitPlan(tuple(range(10)), (12, 13), (10, 11, 14, 15), "general", 2, 0)
    config = TrainConfig(epochs=1, iters_per_epoch=2, batch_size=4, n_prototypes=2, epsilon=0.5)
    dpdl.write_feature_file(root / "data.dpdlfeat", dataset)
    dpdl.save_checkpoint(root / "model.ckpt", dpdl.train(dataset, split, config).checkpoint)
    return root


def cli_args(kind, mutant, originals, out):
    """The command that reads ``mutant`` in place of the original file."""
    data, model = str(originals / "data.dpdlfeat"), str(originals / "model.ckpt")
    if kind == "feature":
        return ["score", "--model", model, "--data", str(mutant), "--out", str(out)]
    if kind == "checkpoint":
        return ["score", "--model", str(mutant), "--data", data, "--out", str(out)]
    if kind == "train_config":
        return ["train", "--data", data, "--protocol", "general", "--m", "0", "--seed", "0",
                "--config", str(mutant), "--out", str(out)]
    return ["synth", "--config", str(mutant), "--seed", "0", "--out", str(out)]


@pytest.mark.parametrize("kind", ["feature", "checkpoint", "train_config", "synth_config"])
def test_mutated_inputs_fail_typed(kind, originals, tmp_path, capsys):
    original, read = {
        "feature": (originals / "data.dpdlfeat", dpdl.read_feature_file),
        "checkpoint": (originals / "model.ckpt", dpdl.load_checkpoint),
        "train_config": (CONFIGS / "train_benchmark.cfg", dpdl.parse_train_config),
        "synth_config": (CONFIGS / "synth_benchmark.cfg", parse_synth_config),
    }[kind]
    failed = []
    for k, blob in enumerate(mutants(original.read_bytes())):
        path = tmp_path / f"mutant{k}"
        path.write_bytes(blob)
        try:
            read(path)
        except DpdlError:
            failed.append(path)
    assert failed, "no mutant was rejected"
    for k, path in enumerate(failed[:CLI_SAMPLE]):
        assert main(cli_args(kind, path, originals, tmp_path / f"out{k}")) == 1
        assert "dpdl: error" in capsys.readouterr().err


def test_config_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes((CONFIGS / "synth_benchmark.cfg").read_bytes() + b"noise = 1\xff\n")
    with pytest.raises(ValidationError, match="UTF-8"):
        parse_synth_config(bad)
    assert main(["synth", "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "d")]) == 1
