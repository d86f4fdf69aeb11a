"""The benchmark's workloads: inputs from a seed, timed phases, checks.

Every workload drives dpdl through the public calls the ``dpdl`` command
makes, looked up on the package at call time so that a traced run sees
them.  ``setup`` builds the inputs, ``run`` is the timed part, ``verify``
compares the outputs with independent computations (``reference``) and
with properties of the method, and ``head_aucs`` scores each head alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dpdl
from dpdl.features import parse_synth_config
from measure import RssPeak
from reference import closed_form_endpoint, on_simplex, pairwise_auc, same_bits

CONFIGS = Path(dpdl.__file__).resolve().parent / "configs"
SYNTH_CONFIG = CONFIGS / "synth_benchmark.cfg"
TRAIN_CONFIG = CONFIGS / "train_benchmark.cfg"

# Test items per scoring check whose closed-form endpoint is recomputed.
ENDPOINT_ITEMS = 3
# Relative tolerance of the endpoint check.  At epsilon = 1e-3 the tilted
# logits reach ~1e8, so their rounding moves near-tied plan weights by ~1e-8.
ENDPOINT_RTOL = 1e-6


class Workload:
    name = ""
    setup_repeats = 1
    read_repeats = 1

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.rss = RssPeak()
        # Per call: the wall time of each whole command, and work / wall time
        # of each train, score_dataset and read_feature_file call.
        self.command_s: list[float] = []
        self.rates: dict[str, list] = {"train": [], "score": [], "read": []}
        self.ops = 0
        self.problems: list[str] = []
        # A traced run pauses its tracer around checks made inside ``run``
        # and asks for the per-head AUCs.
        self.paused = contextlib.nullcontext
        self.want_head_aucs = False

    # -- to be provided by each workload --------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def auc(self) -> float:
        raise NotImplementedError

    def head_aucs(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- shared pieces ---------------------------------------------------
    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def read(self, path: Path):
        start = time.perf_counter()
        dataset = dpdl.read_feature_file(path)
        elapsed = time.perf_counter() - start
        self.rates["read"].append(path.stat().st_size / 1e6 / elapsed)
        self.ops += 1
        return dataset

    def train(self, dataset, split, config):
        start = time.perf_counter()
        result = dpdl.train(dataset, split, config)
        elapsed = time.perf_counter() - start
        self.rates["train"].append(result.checkpoint.opt.step / elapsed)
        self.ops += 1
        return result

    def score(self, ckpt, dataset, ids=None):
        start = time.perf_counter()
        rows = dpdl.score_dataset(ckpt, dataset, ids)
        elapsed = time.perf_counter() - start
        self.rates["score"].append(len(rows) / elapsed)
        self.ops += 1
        return rows

    def _read_phase(self, paths) -> None:
        # Called before every command and after the last one: the host's
        # speed drifts over tens of seconds, and reads spread over the whole
        # run vary less between runs than reads made in one block.
        for _ in range(self.read_repeats):
            for path in paths:
                self.read(path)

    def command(self, fn, *args):
        """Run one whole user-facing command and record its wall time."""
        # Garbage left by the checks between commands is collected here,
        # not inside the next command's timing.
        gc.collect()
        start = time.perf_counter()
        out = fn(*args)
        self.command_s.append(time.perf_counter() - start)
        return out

    def end_to_end(self, setup_s: float) -> dict:
        """Medians over the calls of the run; see the README for each metric."""
        return {
            "setup_s": (setup_s, "s"),
            "eval_s": (statistics.median(self.command_s), "s"),
            "train_steps_per_s": (statistics.median(self.rates["train"]), "1/s"),
            "score_items_per_s": (statistics.median(self.rates["score"]), "1/s"),
            "read_mb_per_s": (statistics.median(self.rates["read"]), "MB/s"),
            "peak_rss_mb": (self.rss.peak_mb, "MB"),
            "auc": (self.auc(), "ratio"),
        }

    def check_dataset(self, read_back, generated, what: str) -> None:
        """Grids, labels and class ids equal bit for bit, item by item."""
        same = len(read_back) == len(generated) and all(
            a.label == b.label and a.class_id == b.class_id and same_bits(a.grid, b.grid)
            for a, b in zip(read_back.items, generated.items))
        self.check(same, f"{what}: feature file read back differs from the generated dataset")

    def check_training(self, result, what: str) -> None:
        finite = all(np.isfinite([r.l_ma, r.l_mn, r.l_mr, r.l_dpl_n, r.l_dpl_a, r.l_dfl, r.total]).all()
                     for r in result.log)
        self.check(finite and len(result.log) > 0, f"{what}: training log has non-finite losses")

    def check_checkpoint(self, ckpt, path: Path, what: str) -> None:
        """load_checkpoint(save_checkpoint(ckpt)) equals ckpt, and saves to the same bytes."""
        loaded = dpdl.load_checkpoint(path)
        arrays = [(ckpt.params.a, loaded.params.a), (ckpt.params.m, loaded.params.m),
                  (ckpt.params.s, loaded.params.s)]
        for name in ("anomaly", "normal", "residual"):
            mine, theirs = getattr(ckpt.heads, name), getattr(loaded.heads, name)
            arrays += [(mine.w, theirs.w), (mine.b, theirs.b)]
        for key in ckpt.opt.exp_avg:
            arrays += [(ckpt.opt.exp_avg[key], loaded.opt.exp_avg[key]),
                       (ckpt.opt.exp_avg_sq[key], loaded.opt.exp_avg_sq[key])]
        same = (loaded.config == ckpt.config and loaded.epoch == ckpt.epoch
                and loaded.opt.step == ckpt.opt.step and loaded.rng_state == ckpt.rng_state
                and loaded.params.epsilon == ckpt.params.epsilon
                and loaded.heads.topk_fraction == ckpt.heads.topk_fraction
                and all(same_bits(x, y) for x, y in arrays))
        self.check(same, f"{what}: checkpoint does not round-trip bit for bit")
        again = self.work / "roundtrip.ckpt"
        dpdl.save_checkpoint(again, loaded)
        self.check(again.read_bytes() == path.read_bytes(), f"{what}: re-saved checkpoint bytes differ")

    def check_scores(self, ckpt, dataset, ids, rows, program_auc, what: str, stride: int = 1) -> None:
        """Rows in order and equal to per-item anomaly_score; AUC; plan closed form."""
        ids = list(range(len(dataset))) if ids is None else list(ids)
        items = dataset.items
        self.check(len(rows) == len(ids) and all(
            row[0] == items[i].source_id and row[1] == items[i].label for row, i in zip(rows, ids)),
            f"{what}: score rows are not the requested items in order")
        scores = np.array([row[2] for row in rows], dtype=np.float64)
        labels = np.array([row[1] for row in rows])
        self.check(np.all(np.isfinite(scores)), f"{what}: non-finite scores")
        mgp = dpdl.mgp_realize(ckpt.params)
        scale = ckpt.config.residual_scale
        mismatched = [ids[p] for p in range(0, len(ids), stride)
                      if dpdl.anomaly_score(mgp, ckpt.heads, items[ids[p]], scale) != rows[p][2]]
        self.check(not mismatched, f"{what}: score_dataset differs from anomaly_score on items {mismatched[:5]}")
        reference_auc = pairwise_auc(scores, labels)
        self.check(abs(reference_auc - program_auc) <= 1e-12,
                   f"{what}: auc {program_auc!r} but pairwise count gives {reference_auc!r}")
        self.check(on_simplex(mgp.alpha), f"{what}: mixture weights are off the simplex")
        p = ckpt.params
        for pos in np.linspace(0, len(ids) - 1, ENDPOINT_ITEMS).astype(int):
            x = items[ids[pos]].flat()
            cond = dpdl.conditional_plan(mgp, x)
            weights, means, endpoint = closed_form_endpoint(p.a, p.m, p.s, p.epsilon, x)
            scale_end = max(1.0, float(np.max(np.abs(means))))
            ok = (on_simplex(cond.weights, 1e-9)
                  and float(np.max(np.abs(cond.weights - weights))) <= ENDPOINT_RTOL
                  and float(np.max(np.abs(cond.means - means))) <= 1e-12 * scale_end
                  and float(np.max(np.abs(cond.mean() - endpoint))) <= ENDPOINT_RTOL * scale_end)
            self.check(ok, f"{what}: conditional plan of item {ids[pos]} differs from the closed form")


def head_scores(ckpt, dataset, ids) -> dict:
    """Each head scored alone from the public pooling pieces: S_a, S_r, -S_n."""
    mgp = dpdl.mgp_realize(ckpt.params)
    heads = ckpt.heads
    frac = heads.topk_fraction
    scale = ckpt.config.residual_scale
    out = {"anomaly": [], "residual": [], "normal": []}
    for i in ids:
        fm = dataset.items[i]
        out["anomaly"].append(dpdl.topk_mean(dpdl.pixel_scores(heads.anomaly, fm), frac))
        out["residual"].append(dpdl.topk_mean(
            dpdl.pixel_scores(heads.residual, dpdl.residual_grid(mgp, fm, scale)), frac))
        out["normal"].append(-float(np.mean(dpdl.pixel_scores(heads.normal, fm))))
    return out


@dataclass
class _Run:
    split: object
    result: object
    rows: list
    auc: float


@dataclass
class _Eval:
    dataset: object
    report_path: Path
    report: object
    runs: list


class EvalWorkload(Workload):
    """``dpdl eval`` on datasets from the shipped generator config.

    Each eval is replayed from its public parts (make_splits, train,
    score_dataset, auc, write_report, save_checkpoint) in the order
    run_experiment and the eval command use them, so that train and
    score_dataset are timed without wrappers.
    """

    synth: dict = {}
    protocol = "hard"
    m = 1
    runs = 5
    n_evals = 1
    seconds_per_epoch = 1

    @property
    def epochs(self) -> int:
        return max(1, self.seconds // self.seconds_per_epoch)

    def describe(self) -> str:
        return (f"{self.name}: {self.n_evals} eval(s) x {self.runs} runs x {self.epochs} epochs, "
                f"{self.protocol} protocol, m={self.m}, synth overrides {self.synth}, "
                f"{self.read_repeats} read(s) of each file before each eval and after the last")

    def setup(self) -> None:
        config = dataclasses.replace(parse_synth_config(SYNTH_CONFIG), **self.synth)
        self.datasets = []
        for j in range(self.n_evals):
            dataset = dpdl.synth_generate(config, seed=1000 * self.seed + j)
            path = self.work / f"data{j}.dpdlfeat"
            dpdl.write_feature_file(path, dataset)
            self.datasets.append((dataset, path))

    def run(self) -> None:
        # Each eval is verified as soon as it ends, outside its timing, and
        # then dropped, so later phases do not run beside the retained
        # outputs of earlier ones (the garbage collector would walk them).
        self.aucs = []
        self.per_head = {"anomaly": [], "residual": [], "normal": []}
        paths = [path for _, path in self.datasets]
        with self.rss:
            for j, path in enumerate(paths):
                self._read_phase(paths)
                ev = self.command(self._eval, j, path)
                with self.paused():
                    self._verify_eval(j, ev)
                    if self.want_head_aucs:
                        self._add_head_aucs(ev)
                self.aucs += [run.auc for run in ev.runs]
                self.datasets[j] = (None, path)
                del ev
            self._read_phase(paths)

    def _eval(self, j: int, path: Path) -> _Eval:
        dataset = self.read(path)
        base_seed = 1000 * self.seed + 10 * j
        config = dpdl.parse_train_config(TRAIN_CONFIG, protocol=self.protocol, m=self.m,
                                         seed=base_seed, epochs=self.epochs)
        runs = []
        for k in range(self.runs):
            seed = base_seed + k
            cfg = dataclasses.replace(config, seed=seed)
            split = dpdl.make_splits(dataset, self.protocol, self.m, seed)
            result = self.train(dataset, split, cfg)
            rows = self.score(result.checkpoint, dataset, split.test_ids)
            value = dpdl.auc([r[2] for r in rows], [r[1] for r in rows])
            runs.append(_Run(split, result, rows, value))
            self.ops += 2
        aucs = [r.auc for r in runs]
        report = dpdl.Report(
            protocol=self.protocol, m=self.m, n_runs=self.runs, base_seed=base_seed,
            run_seeds=tuple(base_seed + k for k in range(self.runs)), aucs=tuple(aucs),
            mean_auc=float(np.mean(aucs)),
            std_auc=float(np.std(aucs, ddof=1)) if self.runs > 1 else 0.0)
        report_path = self.work / f"report{j}.txt"
        dpdl.write_report(report_path, report)
        for k, run in enumerate(runs):
            dpdl.save_checkpoint(f"{report_path}.run{k}.ckpt", run.result.checkpoint)
        self.ops += 1 + self.runs
        return _Eval(dataset, report_path, report, runs)

    def auc(self) -> float:
        return float(np.mean(self.aucs))

    def _verify_eval(self, j: int, ev: _Eval) -> None:
        self.check_dataset(ev.dataset, self.datasets[j][0], f"eval {j}")
        csv_rows = ev.report_path.with_name(ev.report_path.name + ".csv").read_text().splitlines()
        written = [float(line.split(",")[2]) for line in csv_rows[1:1 + self.runs]]
        self.check(written == [run.auc for run in ev.runs], f"eval {j}: report csv aucs differ")
        for k, run in enumerate(ev.runs):
            what = f"eval {j} run {k}"
            ckpt = run.result.checkpoint
            self.check_training(run.result, what)
            self.check_scores(ckpt, ev.dataset, run.split.test_ids, run.rows, run.auc, what)
            self.check_checkpoint(ckpt, Path(f"{ev.report_path}.run{k}.ckpt"), what)

    def _add_head_aucs(self, ev: _Eval) -> None:
        for run in ev.runs:
            ids = run.split.test_ids
            labels = [ev.dataset.items[i].label for i in ids]
            for head, scores in head_scores(run.result.checkpoint, ev.dataset, ids).items():
                self.per_head[head].append(pairwise_auc(scores, labels))

    def verify(self) -> None:
        """Each eval was verified as it ended; see run."""

    def head_aucs(self) -> dict:
        return {head: float(np.mean(values)) for head, values in self.per_head.items()}


class EvalSmall(EvalWorkload):
    name = "eval-small"
    setup_repeats = 15
    synth = {"anomaly_shift": 0.5}
    protocol = "hard"
    m = 1
    runs = 5
    n_evals = 10
    read_repeats = 1
    seconds_per_epoch = 20


class Wide(EvalWorkload):
    name = "wide"
    setup_repeats = 5
    synth = {"height": 8, "width": 8, "channels": 64, "n_per_normal_cluster": 600}
    protocol = "general"
    m = 5
    runs = 2
    n_evals = 1
    read_repeats = 15
    seconds_per_epoch = 20

    def verify(self) -> None:
        super().verify()
        self.check(self.auc() >= 0.90, f"mean auc {self.auc()} is below 0.90")


class ScoreBulk(Workload):
    """``dpdl score`` of a file of a few thousand 8x8x32 items with one checkpoint.

    Set-up draws one dataset, trains on 400 of its normals and 5 of its
    anomalies, saves the checkpoint, and writes every other item to the
    file that is then scored: its normals come from the trained clusters.
    """

    name = "score-bulk"
    setup_repeats = 3
    synth = {"height": 8, "width": 8, "channels": 32,
             "n_per_normal_cluster": 1500, "n_per_anomaly_class": 150}
    train_normals = 400
    m = 5
    train_epochs = 1
    read_repeats = 3
    seconds_per_round = 3
    value_stride = 5

    @property
    def rounds(self) -> int:
        return max(1, self.seconds // self.seconds_per_round)

    def describe(self) -> str:
        return (f"{self.name}: {self.rounds} score commands, {self.read_repeats} reads before each "
                f"and after the last, "
                f"checkpoint from {self.train_epochs} epoch(s) on {self.train_normals} normals "
                f"and {self.m} anomalies, synth overrides {self.synth}")

    def setup(self) -> None:
        config = dataclasses.replace(parse_synth_config(SYNTH_CONFIG), **self.synth)
        dataset = dpdl.synth_generate(config, seed=self.seed)
        rng = np.random.default_rng([self.seed, 0x5B])
        normals = [i for i, fm in enumerate(dataset.items) if fm.label == 0]
        anomalies = [i for i, fm in enumerate(dataset.items) if fm.label == 1]
        train_normals = sorted(int(i) for i in rng.choice(normals, self.train_normals, replace=False))
        train_anomalies = sorted(int(i) for i in rng.choice(anomalies, self.m, replace=False))
        held = set(train_normals) | set(train_anomalies)
        bulk_ids = [i for i in range(len(dataset)) if i not in held]
        split = dpdl.SplitPlan(train_normal_ids=tuple(train_normals),
                               train_anomaly_ids=tuple(train_anomalies), test_ids=tuple(bulk_ids),
                               protocol="general", m=self.m, seed=self.seed)
        train_config = dpdl.parse_train_config(TRAIN_CONFIG, protocol="general", m=self.m,
                                               seed=self.seed, epochs=self.train_epochs)
        self.result = self.train(dataset, split, train_config)
        self.model_path = self.work / "model.ckpt"
        dpdl.save_checkpoint(self.model_path, self.result.checkpoint)
        self.bulk = dpdl.Dataset(tuple(dataset.items[i] for i in bulk_ids), name="bulk")
        self.bulk_path = self.work / "bulk.dpdlfeat"
        dpdl.write_feature_file(self.bulk_path, self.bulk)

    def run(self) -> None:
        csv_path = self.work / "scores.csv"
        with self.rss:
            for _ in range(self.rounds):
                self._read_phase([self.bulk_path])
                ckpt, dataset, rows = self.command(self._score_command, csv_path)
            self._read_phase([self.bulk_path])
        self.ckpt, self.scored, self.rows, self.csv_path = ckpt, dataset, rows, csv_path
        self.program_auc = dpdl.auc([r[2] for r in rows], [r[1] for r in rows])

    def _score_command(self, csv_path: Path):
        ckpt = dpdl.load_checkpoint(self.model_path)
        dataset = self.read(self.bulk_path)
        rows = self.score(ckpt, dataset)
        dpdl.write_scores_csv(csv_path, rows)
        self.ops += 2
        return ckpt, dataset, rows

    def auc(self) -> float:
        return self.program_auc

    def verify(self) -> None:
        what = "score-bulk"
        self.check_dataset(self.scored, self.bulk, what)
        self.check_training(self.result, what)
        self.check_checkpoint(self.result.checkpoint, self.model_path, what)
        self.check_scores(self.ckpt, self.scored, None, self.rows, self.program_auc, what,
                          stride=self.value_stride)
        written = [line.split(",") for line in self.csv_path.read_text().splitlines()[1:]]
        self.check([(s, int(y), float(v)) for s, y, v in written] == list(self.rows),
                   f"{what}: scores csv does not round-trip the score rows")
        self.check(self.program_auc >= 0.90, f"{what}: auc {self.program_auc} is below 0.90")

    def head_aucs(self) -> dict:
        ids = range(len(self.scored))
        labels = [fm.label for fm in self.scored.items]
        return {head: pairwise_auc(scores, labels)
                for head, scores in head_scores(self.ckpt, self.scored, ids).items()}


WORKLOADS = {cls.name: cls for cls in (EvalSmall, Wide, ScoreBulk)}
