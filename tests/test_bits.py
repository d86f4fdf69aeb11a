import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("bits", Path(__file__).resolve().parents[1] / "tools" / "bits.py")
bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bits)


def test_digest_of_the_smallest_shape_matches_itself_and_names_an_edited_hash(tmp_path, capsys):
    assert bits.main(["--shape", "4x4x8"]) == 0
    digest = json.loads(capsys.readouterr().out)
    # synth, train with its log, score, and a 2-run eval with its CSV and
    # run checkpoints, for each seed.
    assert len(digest) == 8 * len(bits.SEEDS)
    assert all(key.startswith("4x4x8-seed") for key in digest)

    saved = tmp_path / "digest.json"
    saved.write_text(json.dumps(digest))
    assert bits.main(["--shape", "4x4x8", "--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""

    edited = dict(digest, **{"4x4x8-seed1/scores.csv": "0" * 64})
    saved.write_text(json.dumps(edited))
    assert bits.main(["--shape", "4x4x8", "--against", str(saved)]) == 1
    assert capsys.readouterr().out.split() == ["4x4x8-seed1/scores.csv"]
