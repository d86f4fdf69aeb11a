"""AUC, dataset scoring, repeated-run experiments, and report files.

AUC uses the rank statistic with midrank tie handling, which equals the
probability that a random anomaly outranks a random normal with ties
counted half.  ``run_experiment`` repeats split/train/score over
consecutive seeds and aggregates; everything it writes is reproducible
bit for bit, so wall-clock time is printed by the CLI but never stored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .configio import check_int
from .errors import UndefinedMetricError, ValidationError
from .features import Dataset, checked_ids, make_splits
from .prototypes import _nearest_codewords, _row_norms, mgp_realize, vq_init
from .scoring import anomaly_scores
from .training import Checkpoint, TrainConfig, TrainResult, train


def auc(scores, labels) -> float:
    """Area under the ROC curve via midranks; ties contribute half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValidationError(f"scores and labels must be matching vectors, got {scores.shape} and {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores contain non-finite values")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValidationError("labels must be 0 or 1")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one item of each class")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts + 1
    midranks = starts + (counts - 1) / 2.0
    ranks = midranks[inverse]
    u_stat = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def score_dataset(ckpt: Checkpoint, dataset: Dataset, item_ids=None) -> list:
    """Score items (all by default) and return (source_id, label, score) rows.

    Each row is exactly ``anomaly_score`` of its item: ``anomaly_scores``
    gathers ``pass_rows(D, C)`` rows of ``dataset.grids`` per pass, so the
    scored items are never copied as a whole.  ValidationError unless each
    id names an item.
    """
    ids = np.arange(len(dataset)) if item_ids is None else np.asarray(item_ids)
    scores = anomaly_scores(mgp_realize(ckpt.params), ckpt.heads, dataset,
                            ckpt.config.residual_scale, ids)
    ids = ids.reshape(-1).astype(np.int64)  # anomaly_scores checked that each names an item
    return list(zip([dataset.source_ids[i] for i in ids.tolist()], dataset.labels[ids].tolist(), scores.tolist()))


@dataclass(frozen=True)
class Report:
    """Aggregated evaluation over several seeded runs."""

    protocol: str
    m: int
    n_runs: int
    base_seed: int
    run_seeds: tuple
    aucs: tuple
    mean_auc: float
    std_auc: float


def run_experiment(dataset: Dataset, protocol: str, m: int, n_runs: int,
                   base_seed: int, config: TrainConfig) -> tuple[Report, list[TrainResult]]:
    """Repeat split/train/score over seeds base_seed..base_seed+n_runs-1.

    The standard deviation uses the n-1 denominator and is zero for a
    single run.  ValidationError names an ``n_runs`` that is not a positive
    integer or a ``base_seed`` that is not a nonnegative one.
    """
    check_int("n_runs", n_runs, 1)
    check_int("base_seed", base_seed, 0)
    aucs = []
    seeds = []
    results = []
    for k in range(n_runs):
        seed = int(base_seed) + k
        cfg = dataclasses.replace(config, protocol=protocol, m=m, seed=seed)
        split = make_splits(dataset, protocol, m, seed)
        result = train(dataset, split, cfg)
        rows = score_dataset(result.checkpoint, dataset, split.test_ids)
        scores = [r[2] for r in rows]
        labels = [r[1] for r in rows]
        aucs.append(auc(scores, labels))
        seeds.append(seed)
        results.append(result)
    mean = float(np.mean(aucs))
    std = float(np.std(aucs, ddof=1)) if n_runs > 1 else 0.0
    report = Report(protocol=protocol, m=m, n_runs=n_runs, base_seed=base_seed,
                    run_seeds=tuple(seeds), aucs=tuple(aucs), mean_auc=mean, std_auc=std)
    return report, results


def nearest_prototype_baseline_auc(dataset: Dataset, split, n_codewords: int, seed: int) -> float:
    """Distance-to-codebook baseline on the same split.

    Fits the vector quantizer on the training normals and scores each test
    item by its distance to the nearest codeword.  Both item sets are
    promoted and their row norms taken one row block at a time, and the
    training normals are released before the test items are promoted.
    """
    train_ids, test_ids = (checked_ids(ids, len(dataset)) for ids in (split.train_normal_ids, split.test_ids))
    codebook = vq_init(dataset.flats(train_ids), min(n_codewords, len(train_ids)), seed=seed).codebook
    x = dataset.flats(test_ids)
    d2 = _nearest_codewords(x, _row_norms(x), codebook)[1]
    return auc(np.sqrt(d2), dataset.labels[test_ids])


def format_report(report: Report) -> str:
    lines = [
        "dpdl evaluation report",
        f"protocol: {report.protocol}",
        f"m: {report.m}",
        f"runs: {report.n_runs}",
        f"base_seed: {report.base_seed}",
    ]
    for k, (seed, value) in enumerate(zip(report.run_seeds, report.aucs)):
        lines.append(f"run {k}: seed={seed} auc={value:.17g}")
    lines.append(f"mean_auc: {report.mean_auc:.17g}")
    lines.append(f"std_auc: {report.std_auc:.17g}")
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, report: Report) -> Path:
    """Write the text report and a CSV sibling at ``<path>.csv``; returns the sibling."""
    path = Path(path)
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(format_report(report))
    sibling = Path(str(path) + ".csv")
    rows = ["run,seed,auc"]
    for k, (seed, value) in enumerate(zip(report.run_seeds, report.aucs)):
        rows.append(f"{k},{seed},{value:.17g}")
    rows.append(f"mean,,{report.mean_auc:.17g}")
    rows.append(f"std,,{report.std_auc:.17g}")
    with atomic_open(sibling, encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return sibling
