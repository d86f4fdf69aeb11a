"""Per-cell linear heads, top-K pooling, and the composite anomaly score.

Each scoring head is an affine map applied independently to every grid
cell.  Image-level decisions pool the per-cell scores: the anomaly and
residual heads average the top K cells (a fixed fraction of the grid,
at least one cell), while the normality head scores the mean cell vector.
The final anomaly score adds the two pooled head outputs and subtracts
the normality output.

Head losses are binary cross-entropy on logits; their gradients flow only
through the selected top-K cells, with ties broken toward lower flat
indices so training is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bridge import plan_weights_and_means, posterior_mode_index
from .errors import ValidationError
from .features import FeatureMap
from .prototypes import MGP

RESIDUAL_SCALES = ("std", "var")


@dataclass
class LinearHead:
    """Affine per-cell scorer; the bias is kept as a 1-element array so the
    optimizer can update it in place like every other parameter."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(1)
        if self.w.ndim != 1 or self.w.shape[0] < 1:
            raise ValidationError(f"head weights must be a nonempty vector, got shape {self.w.shape}")


@dataclass
class ScoringHeads:
    anomaly: LinearHead
    normal: LinearHead
    residual: LinearHead
    topk_fraction: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValidationError(f"topk_fraction must lie in (0, 1], got {self.topk_fraction}")
        dims = {self.anomaly.w.shape[0], self.normal.w.shape[0], self.residual.w.shape[0]}
        if len(dims) != 1:
            raise ValidationError(f"heads disagree on channel dimension: {sorted(dims)}")

    @classmethod
    def zeros(cls, channels: int, topk_fraction: float = 0.10) -> "ScoringHeads":
        def head():
            return LinearHead(np.zeros(channels), np.zeros(1))
        return cls(anomaly=head(), normal=head(), residual=head(), topk_fraction=topk_fraction)

    @property
    def channels(self) -> int:
        return self.anomaly.w.shape[0]


def _grid_of(fm) -> np.ndarray:
    grid = fm.grid if isinstance(fm, FeatureMap) else np.asarray(fm)
    if grid.ndim != 3:
        raise ValidationError(f"expected an (H, W, d) grid, got shape {grid.shape}")
    return grid.astype(np.float64, copy=False)


def pixel_scores(head: LinearHead, fm) -> np.ndarray:
    """Affine score of every cell; accepts a FeatureMap or a raw grid."""
    grid = _grid_of(fm)
    if grid.shape[2] != head.w.shape[0]:
        raise ValidationError(f"grid channels {grid.shape[2]} != head dimension {head.w.shape[0]}")
    return grid @ head.w + head.b[0]


def _topk_flat_indices(flat: np.ndarray, fraction: float) -> np.ndarray:
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    k = max(1, int(np.floor(fraction * flat.shape[0])))
    order = np.argsort(-flat, kind="stable")
    return order[:k]


def topk_mean(scores: np.ndarray, fraction: float) -> float:
    """Mean of the K largest entries, K = max(1, floor(fraction * size))."""
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if flat.shape[0] < 1:
        raise ValidationError("cannot pool an empty score array")
    idx = _topk_flat_indices(flat, fraction)
    return float(np.mean(flat[idx]))


def bce_with_logits(z: float, y: int) -> tuple[float, float]:
    """Numerically stable binary cross-entropy and its derivative in z."""
    if y not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {y}")
    z = float(z)
    loss = max(z, 0.0) - z * y + np.log1p(np.exp(-abs(z)))
    if z >= 0:
        sig = 1.0 / (1.0 + np.exp(-z))
    else:
        ez = np.exp(z)
        sig = ez / (1.0 + ez)
    return float(loss), float(sig - y)


@dataclass(frozen=True)
class HeadLoss:
    """Scalar head loss with gradients for the head's weight and bias."""

    value: float
    grad_w: np.ndarray
    grad_b: np.ndarray


def _pooled_bce(head: LinearHead, grid: np.ndarray, label: int, fraction: float) -> HeadLoss:
    scores = grid @ head.w + head.b[0]
    flat = scores.reshape(-1)
    idx = _topk_flat_indices(flat, fraction)
    z = float(np.mean(flat[idx]))
    loss, dz = bce_with_logits(z, label)
    cells = grid.reshape(-1, grid.shape[2])[idx]
    return HeadLoss(value=loss, grad_w=dz * cells.mean(axis=0), grad_b=np.array([dz]))


def head_loss_anomaly(heads: ScoringHeads, fm, label: int) -> HeadLoss:
    """BCE of the top-K pooled anomaly-head score against the label."""
    return _pooled_bce(heads.anomaly, _grid_of(fm), label, heads.topk_fraction)


def head_loss_normal(heads: ScoringHeads, fm, label: int) -> HeadLoss:
    """BCE of the normality head applied to the mean cell vector."""
    grid = _grid_of(fm)
    mean_cell = grid.reshape(-1, grid.shape[2]).mean(axis=0)
    z = float(mean_cell @ heads.normal.w + heads.normal.b[0])
    loss, dz = bce_with_logits(z, label)
    return HeadLoss(value=loss, grad_w=dz * mean_cell, grad_b=np.array([dz]))


def residual_grid(mgp: MGP, fm, residual_scale: str = "std") -> np.ndarray:
    """Standardized gap between the deterministic endpoint and its nearest prototype.

    The endpoint is the conditional plan's posterior mean; the reference
    prototype is the component with the highest unweighted density there.
    The gap is divided elementwise by that component's standard deviation
    (or variance when ``residual_scale`` is "var") and reshaped onto the
    item's grid.
    """
    if residual_scale not in RESIDUAL_SCALES:
        raise ValidationError(f"residual_scale must be one of {RESIDUAL_SCALES}, got {residual_scale!r}")
    grid = _grid_of(fm)
    x = grid.reshape(-1)
    weights, means = plan_weights_and_means(mgp, x)
    psi = weights @ means
    c = posterior_mode_index(mgp, psi)
    denom = np.sqrt(mgp.sigma[c]) if residual_scale == "std" else mgp.sigma[c]
    return ((psi - mgp.mu[c]) / denom).reshape(grid.shape)


def head_loss_residual(heads: ScoringHeads, mgp: MGP, fm, label: int,
                       residual_scale: str = "std") -> HeadLoss:
    """BCE of the top-K pooled residual-head score against the label.

    Gradients are taken with respect to the head only; the residual grid
    is treated as a fixed input.
    """
    return _pooled_bce(heads.residual, residual_grid(mgp, fm, residual_scale), label, heads.topk_fraction)


def anomaly_score(mgp: MGP, heads: ScoringHeads, fm, residual_scale: str = "std") -> float:
    """Composite image-level score: pooled anomaly + pooled residual - normality."""
    grid = _grid_of(fm)
    s_a = topk_mean(pixel_scores(heads.anomaly, grid), heads.topk_fraction)
    s_r = topk_mean(pixel_scores(heads.residual, residual_grid(mgp, grid, residual_scale)),
                    heads.topk_fraction)
    mean_cell = grid.reshape(-1, grid.shape[2]).mean(axis=0)
    s_n = float(mean_cell @ heads.normal.w + heads.normal.b[0])
    return s_a + s_r - s_n


def write_scores_csv(path: str | Path, rows) -> None:
    """Write (source_id, label, score) rows; scores keep 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "label", "score"])
        for source_id, label, score in rows:
            writer.writerow([source_id, int(label), f"{score:.17g}"])
