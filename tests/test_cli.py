import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpdl
from dpdl.cli import main
from dpdl.features import read_feature_file
from dpdl.training import load_checkpoint

SYNTH_CFG = """\
n_normal_clusters = 2
n_anomaly_classes = 2
n_per_normal_cluster = 12
n_per_anomaly_class = 4
height = 2
width = 2
channels = 3
n_context_channels = 1
cluster_scale = 1.0
noise = 0.5
detail_center_scale = 0.05
detail_noise = 0.05
anomaly_shift = 2.0
anomaly_patch_fraction = 0.25
"""

TRAIN_CFG = """\
epochs = 2
iters_per_epoch = 2
batch_size = 4
learning_rate = 0.01
weight_decay = 0.0001
lambda = 0.01
kappa = 2.0
epsilon = 0.5
n_prototypes = 4
topk_fraction = 0.25
pseudo_anomaly_rate = 0.25
residual_scale = std
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SYNTH_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    rc = main(["synth", "--config", str(root / "synth.cfg"), "--seed", "5",
               "--out", str(root / "data.dpdlfeat")])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    rc = main(["train", "--data", str(workspace / "data.dpdlfeat"),
               "--protocol", "general", "--m", "1", "--seed", "0",
               "--config", str(workspace / "train.cfg"),
               "--out", str(workspace / "model.ckpt")])
    assert rc == 0
    return workspace / "model.ckpt"


class TestPipeline:
    def test_synth_writes_expected_dataset(self, workspace, capsys):
        ds = read_feature_file(workspace / "data.dpdlfeat")
        assert len(ds) == 2 * 12 + 2 * 4
        assert ds.dims == (2, 2, 3)
        labels = [item.label for item in ds.items]
        assert labels.count(1) == 8

    def test_train_writes_checkpoint_and_log(self, trained):
        ckpt = load_checkpoint(trained)
        assert ckpt.epoch == 2
        assert ckpt.config.protocol == "general"
        assert ckpt.config.m == 1
        log = (trained.parent / "model.ckpt.log.csv").read_text().splitlines()
        assert log[0] == "epoch,L_Ma,L_Mn,L_Mr,L_DPLn,L_DPLa,L_DFL,total"
        assert len(log) == 1 + 2

    def test_score_writes_per_item_rows(self, workspace, trained, capsys):
        out = workspace / "scores.csv"
        rc = main(["score", "--model", str(trained),
                   "--data", str(workspace / "data.dpdlfeat"), "--out", str(out)])
        assert rc == 0
        assert "scored 32 items" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "source_id,label,score"
        assert len(lines) == 1 + 32
        assert all(np.isfinite(float(line.split(",")[2])) for line in lines[1:])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_score_exits_numeric_without_csv(self, workspace, trained, capsys):
        ckpt = load_checkpoint(trained)
        ckpt.heads.anomaly.w[:] = 1e308
        model = workspace / "overflow.ckpt"
        dpdl.save_checkpoint(model, ckpt)
        out = workspace / "overflow.csv"
        rc = main(["score", "--model", str(model),
                   "--data", str(workspace / "data.dpdlfeat"), "--out", str(out)])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_writes_report_csv_and_run_checkpoints(self, workspace, capsys):
        out = workspace / "report.txt"
        rc = main(["eval", "--data", str(workspace / "data.dpdlfeat"),
                   "--protocol", "hard", "--m", "1", "--runs", "2", "--seed", "0",
                   "--config", str(workspace / "train.cfg"), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "mean_auc:" in stdout
        assert "runtime:" in stdout
        assert out.exists()
        assert (workspace / "report.txt.csv").exists()
        for k in range(2):
            ckpt = load_checkpoint(workspace / f"report.txt.run{k}.ckpt")
            assert ckpt.config.seed == k
        report = out.read_text()
        assert "protocol: hard" in report
        assert "runtime" not in report  # wall time never lands in files

    def test_verify_bridge_passes(self, capsys):
        rc = main(["verify", "bridge"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


class TestErrorPaths:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--data", "x.dpdlfeat"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_protocol_choice(self, capsys):
        rc = main(["eval", "--data", "x", "--protocol", "weird", "--m", "1",
                   "--seed", "0", "--out", "r"])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_negative_m(self, capsys):
        rc = main(["train", "--data", "x", "--protocol", "general", "--m", "-1",
                   "--seed", "0", "--out", "o"])
        assert rc == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["score", "--model", str(tmp_path / "absent.ckpt"),
                   "--data", str(tmp_path / "absent.dpdlfeat"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "dpdl: error" in capsys.readouterr().err

    def test_corrupt_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.dpdlfeat"
        bad.write_bytes(b"this is not a feature file")
        rc = main(["train", "--data", str(bad), "--protocol", "general",
                   "--m", "0", "--seed", "0", "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert "dpdl: error" in capsys.readouterr().err

    def test_non_finite_config_value(self, workspace, capsys):
        bad = workspace / "nan.cfg"
        bad.write_text(TRAIN_CFG.replace("learning_rate = 0.01", "learning_rate = nan"))
        rc = main(["train", "--data", str(workspace / "data.dpdlfeat"),
                   "--protocol", "general", "--m", "1", "--seed", "0",
                   "--config", str(bad), "--out", str(workspace / "nan.ckpt")])
        assert rc == 1
        assert "learning_rate must be finite" in capsys.readouterr().err

    def test_zero_runs_rejected(self, workspace, capsys):
        rc = main(["eval", "--data", str(workspace / "data.dpdlfeat"),
                   "--protocol", "general", "--m", "1", "--runs", "0",
                   "--seed", "0", "--out", str(workspace / "r2.txt")])
        assert rc == 1
        assert "n_runs" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out


def test_import_loads_no_scipy():
    # The package needs numpy alone at run time; scipy is a test dependency.
    code = "import sys, dpdl, dpdl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(dpdl.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
