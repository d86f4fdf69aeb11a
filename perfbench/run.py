"""Benchmark of the dpdl package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports dpdl from ``src/`` of that
checkout and nowhere else, and works in ``perfbench/work/``, which it
empties of its own files before it exits.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones, timed
with nothing wrapped; with ``--trace 1`` the run repeats the same work
untraced and then traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"


def _import_program():
    package = SRC / "dpdl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dpdl sources at {package}")
    sys.path.insert(0, str(SRC))
    import dpdl
    if Path(dpdl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported dpdl from {dpdl.__file__}, not from {package}")
    return dpdl


def _timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def _metrics(values: dict) -> dict:
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}


def end_to_end_run(cls, seed: int, seconds: int, work: Path):
    workload = cls(seed, seconds, work)
    print(workload.describe(), flush=True)
    setups = [_timed_setup(workload) for _ in range(workload.setup_repeats)]
    workload.run()
    workload.verify()
    return workload, workload.ops, _metrics(workload.end_to_end(statistics.median(setups)))


def traced_run(cls, seed: int, seconds: int, work: Path, trace_path: Path):
    from tracing import Tracer, summarize

    plain = cls(seed, seconds, work)
    print(plain.describe(), flush=True)
    start = time.perf_counter()
    plain.setup()
    plain.run()
    untraced_s = time.perf_counter() - start

    workload = cls(seed, seconds, work)
    tracer = Tracer()
    workload.paused = tracer.paused
    workload.want_head_aucs = True
    tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        workload.run()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    workload.verify()
    workload.problems[:0] = plain.problems
    stats = summarize(tracer.spans)

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    steps = stat("training.optimizer_step", "calls")

    def per_step(*names: str) -> float:
        return sum(stat(n, "calls") for n in names) / steps if steps else 0.0

    peak_alloc = max(tracer.peak_alloc.values(), default=0)
    heads = workload.head_aucs()
    values = {
        "features.read_feature_file.self_s": (stat("features.read_feature_file", "self_s"), "s"),
        "features.cutmix_pseudo_anomaly.calls": (stat("features.cutmix_pseudo_anomaly", "calls"), "count"),
        "features.cutmix_pseudo_anomaly.self_s": (stat("features.cutmix_pseudo_anomaly", "self_s"), "s"),
        "prototypes.vq_init.self_s": (stat("prototypes.vq_init", "self_s"), "s"),
        "prototypes.mgp_realize.calls": (stat("prototypes.mgp_realize", "calls"), "count"),
        "prototypes.mgp_realize.self_s": (stat("prototypes.mgp_realize", "self_s"), "s"),
        "losses.loss_dpl_normal.self_s": (stat("losses.loss_dpl_normal", "self_s"), "s"),
        "losses.loss_dpl_anomaly.self_s": (stat("losses.loss_dpl_anomaly", "self_s"), "s"),
        "losses.loss_dpl.calls_per_step": (
            per_step("losses.loss_dpl_normal", "losses.loss_dpl_anomaly"), "1/step"),
        "losses.loss_dpl.peak_alloc_mb": (peak_alloc / 1e6, "MB"),
        "losses.loss_dfl.self_s": (stat("losses.loss_dfl", "self_s"), "s"),
        "losses.unitize.calls": (stat("losses.unitize", "calls"), "count"),
        "scoring.head_loss_anomaly.self_s": (stat("scoring.head_loss_anomaly", "self_s"), "s"),
        "scoring.head_loss_normal.self_s": (stat("scoring.head_loss_normal", "self_s"), "s"),
        "scoring.head_loss_residual.self_s": (stat("scoring.head_loss_residual", "self_s"), "s"),
        "scoring.head_loss.calls_per_step": (per_step(
            "scoring.head_loss_anomaly", "scoring.head_loss_normal", "scoring.head_loss_residual"),
            "1/step"),
        "scoring.residual_grid.calls": (stat("scoring.residual_grid", "calls"), "count"),
        "scoring.residual_grid.self_s": (stat("scoring.residual_grid", "self_s"), "s"),
        "scoring.anomaly_score.calls": (stat("scoring.anomaly_score", "calls"), "count"),
        "scoring.anomaly_score.busy_s": (stat("scoring.anomaly_score", "busy_s"), "s"),
        "scoring.auc_head_anomaly": (heads["anomaly"], "ratio"),
        "scoring.auc_head_residual": (heads["residual"], "ratio"),
        "scoring.auc_head_normal": (heads["normal"], "ratio"),
        "bridge.conditional_plan.calls": (stat("bridge.conditional_plan", "calls"), "count"),
        "bridge.conditional_plan.self_s": (stat("bridge.conditional_plan", "self_s"), "s"),
        "bridge.posterior_mode_index.self_s": (stat("bridge.posterior_mode_index", "self_s"), "s"),
        "training.train.self_s": (stat("training.train", "self_s"), "s"),
        "training.optimizer_step.self_s": (stat("training.optimizer_step", "self_s"), "s"),
        "training.save_checkpoint.self_s": (stat("training.save_checkpoint", "self_s"), "s"),
        "training.load_checkpoint.self_s": (stat("training.load_checkpoint", "self_s"), "s"),
        "evaluation.score_dataset.wall_s": (stat("evaluation.score_dataset", "busy_s"), "s"),
        "evaluation.score_dataset.parallelism": (
            stat("scoring.anomaly_score", "busy_s") / stat("evaluation.score_dataset", "busy_s")
            if stat("evaluation.score_dataset", "busy_s") else 0.0, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    print(f"traced {traced_s:.3f}s, untraced {untraced_s:.3f}s, {len(tracer.spans)} spans "
          f"written to {trace_path.relative_to(ROOT)}", flush=True)
    return workload, plain.ops + workload.ops, _metrics(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    _import_program()
    import measure
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    selftest.run()
    print("environment: " + json.dumps(measure.environment(SRC)), flush=True)

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            workload, attempted, metrics = traced_run(cls, args.seed, args.seconds, work, trace_path)
        else:
            workload, attempted, metrics = end_to_end_run(cls, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in workload.problems:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps({"correct": not workload.problems, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
