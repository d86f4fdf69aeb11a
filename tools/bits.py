"""Output-bits digest: the sha256 of every file a fixed matrix of dpdl runs writes.

    PYTHONPATH=src python tools/bits.py [--shape 4x4x8 ...] [--against DIGEST.json]

For each shape below and each seed in SEEDS, the command line writes into a
temporary directory, through ``dpdl.cli.main``:

* ``dpdl synth``: the feature file, from the bundled generator config with
  the shape's overrides;
* ``dpdl train``: the checkpoint (θ and both AdamW moments) and its log.csv;
* ``dpdl score``: the scores CSV of the whole feature file;
* a 2-run ``dpdl eval``: the report, its CSV and the run checkpoints.

Training takes the bundled config at EPOCHS epochs.  The digest, one JSON
object mapping each file to its sha256, goes to stdout, and each eval's
AUCs go to stderr.  With ``--against DIGEST.json`` the files whose hash
differs from that digest's, or that only one of the two names, are listed
on stdout instead, and the exit status is 1 if there is any.  Which dpdl
runs is the one on the import path, so a digest of another checkout is
taken with that checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import dpdl
from dpdl.cli import main as dpdl_main
from dpdl.configio import parse_kv_file

CONFIGS = Path(dpdl.__file__).resolve().parent / "configs"
SEEDS = (0, 1)
EPOCHS = 2
RUNS = 2

# name: (generator overrides, protocol, m)
SHAPES = {
    "4x4x8": ({"anomaly_shift": 0.5}, "hard", 1),
    "8x8x64": ({"height": 8, "width": 8, "channels": 64, "n_per_normal_cluster": 600}, "general", 5),
    "8x8x32": ({"height": 8, "width": 8, "channels": 32, "n_per_normal_cluster": 1500,
                "n_per_anomaly_class": 150}, "general", 5),
}


def _write_config(bundled: str, overrides: dict, path: Path) -> str:
    values = parse_kv_file(CONFIGS / bundled)
    values.update((key, str(value)) for key, value in overrides.items())
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8")
    return str(path)


def _dpdl(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = dpdl_main([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"dpdl {' '.join(map(str, argv))} exited with status {status}")


def _build(shape: str, seed: int, work: Path) -> None:
    synth, protocol, m = SHAPES[shape]
    # The configs sit beside the work directory, so only outputs are hashed.
    synth_cfg = _write_config("synth_benchmark.cfg", synth, work.parent / f"{work.name}.synth.cfg")
    train_cfg = _write_config("train_benchmark.cfg", {"epochs": EPOCHS}, work.parent / f"{work.name}.train.cfg")
    data, model = work / "data.dpdlfeat", work / "model.ckpt"
    _dpdl("synth", "--config", synth_cfg, "--seed", seed, "--out", data)
    common = ("--data", data, "--protocol", protocol, "--m", m, "--seed", seed, "--config", train_cfg)
    _dpdl("train", *common, "--out", model)
    _dpdl("score", "--model", model, "--data", data, "--out", work / "scores.csv")
    _dpdl("eval", *common, "--runs", RUNS, "--out", work / "report.txt")


def digest(shapes) -> dict:
    """sha256 per written file, keyed '<shape>-seed<seed>/<file>'."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="dpdl-bits-") as tmp:
        for shape in shapes:
            for seed in SEEDS:
                name = f"{shape}-seed{seed}"
                work = Path(tmp) / name
                work.mkdir()
                _build(shape, seed, work)
                for path in sorted(work.iterdir()):
                    out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                aucs = (work / "report.txt.csv").read_text(encoding="utf-8").splitlines()[1:1 + RUNS]
                print(f"{name}: eval aucs {', '.join(row.split(',')[2] for row in aucs)}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", action="append", choices=tuple(SHAPES),
                        help="run only this shape (repeatable); all shapes by default")
    parser.add_argument("--against", type=Path, help="digest JSON to compare with")
    args = parser.parse_args(argv)
    got = digest(args.shape or tuple(SHAPES))
    if args.against is None:
        print(json.dumps(got, indent=1, sort_keys=True))
        return 0
    want = json.loads(args.against.read_text(encoding="utf-8"))
    differ = sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))
    for key in differ:
        print(key)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
