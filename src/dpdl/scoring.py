"""Per-cell linear heads, top-K pooling, and the composite anomaly score.

Each scoring head is an affine map applied independently to every grid
cell.  Image-level decisions pool the per-cell scores: the anomaly and
residual heads average the top K cells (a fixed fraction of the grid,
at least one cell), while the normality head scores the mean cell vector.
The final anomaly score adds the two pooled head outputs and subtracts
the normality output.

Head losses are binary cross-entropy on logits, averaged over a
(B, H, W, d) batch in one call; their gradients flow only through the
selected top-K cells, with ties broken toward lower flat indices so
training is deterministic.  Scoring runs in zero-padded chunks of
SCORE_CHUNK items, so a score does not depend on the items beside it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .bridge import plan_endpoints, plan_weights, posterior_mode_indices
from .errors import NumericError, ValidationError
from .features import FeatureMap
from .prototypes import MGP

RESIDUAL_SCALES = ("std", "var")

# Rows per scoring pass.  Every pass runs on exactly this many rows, zero-
# padded, so every matrix product has one shape: BLAS then takes the same
# kernel and thread split for every pass, and each row rounds the same way
# whatever the other rows hold.  Products of other shapes can round differently.
# Four rows keep each (rows, D) x (D, C) product at or under 2**19 multiply-adds
# up to D * C = 2**17 (D = 4096 with 32 prototypes), and OpenBLAS 0.3.31 ran
# such products on the calling thread.  With 16 rows it split the D = 2048
# and 4096 products over two threads, with 8 rows the D = 4096 ones, and the
# scoring time then varied with whatever else the cores ran.
SCORE_CHUNK = 4


@dataclass
class LinearHead:
    """Affine per-cell scorer; the bias is kept as a 1-element array so the
    optimizer can update it in place like every other parameter."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if self.w.ndim != 1 or self.w.shape[0] < 1:
            raise ValidationError(f"head weights must be a nonempty vector, got shape {self.w.shape}")
        if self.b.shape != (1,):
            raise ValidationError(f"head bias must hold one value, got {self.b.size}")


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


def _stack_of(fms) -> np.ndarray:
    """A (B, H, W, d) float64 stack; one grid or FeatureMap is the stack of one."""
    if isinstance(fms, FeatureMap) or np.ndim(fms) == 3:
        return _grid_of(fms)[None]
    grids = np.asarray(fms)
    if grids.ndim != 4:
        raise ValidationError(f"expected an (H, W, d) grid or a (B, H, W, d) stack, got shape {grids.shape}")
    return grids.astype(np.float64, copy=False)


def _labelled_stack(fms, labels) -> tuple[np.ndarray, np.ndarray]:
    """``_stack_of(fms)`` and its labels as a (B,) vector; a scalar label goes with one grid."""
    grids = _stack_of(fms)
    labels = np.reshape(labels, -1)
    if labels.shape != grids.shape[:1]:
        raise ValidationError(f"need one label per grid: {grids.shape[0]} grids, {labels.shape[0]} labels")
    return grids, labels


def pixel_scores(head: LinearHead, fm) -> np.ndarray:
    """Affine score of every cell; accepts a FeatureMap or a raw grid."""
    grid = _grid_of(fm)
    if grid.shape[2] != head.w.shape[0]:
        raise ValidationError(f"grid channels {grid.shape[2]} != head dimension {head.w.shape[0]}")
    return grid @ head.w + head.b[0]


def _topk_flat_indices(flat: np.ndarray, fraction: float) -> np.ndarray:
    """Per row of flat (..., N), the indices of its K largest entries, ties to the lowest index."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    k = max(1, int(np.floor(fraction * flat.shape[-1])))
    order = np.argsort(-flat, axis=-1, kind="stable")
    return order[..., :k]


def topk_mean(scores: np.ndarray, fraction: float) -> float:
    """Mean of the K largest entries, K = max(1, floor(fraction * size))."""
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if flat.shape[0] < 1:
        raise ValidationError("cannot pool an empty score array")
    idx = _topk_flat_indices(flat, fraction)
    return float(np.mean(flat[idx]))


def _bce(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise stable binary cross-entropy on logits and its derivative in z."""
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError(f"labels must be 0 or 1, got {y}")
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - z * y + np.log1p(e)
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return loss, sig - y


def bce_with_logits(z: float, y: int) -> tuple[float, float]:
    """Numerically stable binary cross-entropy and its derivative in z."""
    loss, dz = _bce(np.float64(z), np.asarray(y))
    return float(loss), float(dz)


@dataclass(frozen=True)
class HeadLoss:
    """Scalar head loss with gradients for the head's weight and bias."""

    value: float
    grad_w: np.ndarray
    grad_b: np.ndarray


def _mean_bce(z: np.ndarray, labels: np.ndarray, inputs: np.ndarray) -> HeadLoss:
    """Batch-mean BCE of logits z (B,), where z_b = inputs[b] @ w + b."""
    loss, dz = _bce(z, labels)
    return HeadLoss(value=float(np.mean(loss)), grad_w=np.mean(dz[:, None] * inputs, axis=0),
                    grad_b=np.array([np.mean(dz)]))


def _topk_pooled(head: LinearHead, grids: np.ndarray, fraction: float):
    """Per item of a (B, H, W, d) stack, the mean of its K largest cell scores
    (B,), with the cells (B, H*W, d) and the pooled indices (B, K).  sum / K
    is np.mean's arithmetic without its per-call overhead, which one item feels."""
    b, h, w, d = grids.shape
    cells = grids.reshape(b, h * w, d)
    flat = cells @ head.w + head.b[0]                        # (B, H*W)
    idx = _topk_flat_indices(flat, fraction)                 # (B, K)
    rows = np.arange(b)[:, None]
    return flat[rows, idx].sum(axis=1) / idx.shape[1], cells, idx


def _mean_cell_pooled(head: LinearHead, grids: np.ndarray):
    """Per item of a (B, H, W, d) stack, the head's score of its mean cell
    vector (B,), with those vectors (B, d)."""
    mean_cells = grids.reshape(grids.shape[0], -1, grids.shape[3]).mean(axis=1)
    return mean_cells @ head.w + head.b[0], mean_cells


def _pooled_bce(head: LinearHead, grids: np.ndarray, labels: np.ndarray, fraction: float) -> HeadLoss:
    z, cells, idx = _topk_pooled(head, grids, fraction)
    top = cells[np.arange(grids.shape[0])[:, None], idx]    # (B, K, d)
    return _mean_bce(z, labels, top.mean(axis=1))


def head_loss_anomaly(heads: ScoringHeads, fms, labels) -> HeadLoss:
    """Batch-mean BCE of the top-K pooled anomaly-head scores against the labels.

    ``fms`` is a (B, H, W, d) stack with (B,) labels, or one grid or
    FeatureMap with a scalar label.
    """
    grids, labels = _labelled_stack(fms, labels)
    return _pooled_bce(heads.anomaly, grids, labels, heads.topk_fraction)


def head_loss_normal(heads: ScoringHeads, fms, labels) -> HeadLoss:
    """Batch-mean BCE of the normality head applied to each item's mean cell vector."""
    grids, labels = _labelled_stack(fms, labels)
    z, mean_cells = _mean_cell_pooled(heads.normal, grids)
    return _mean_bce(z, labels, mean_cells)


def residual_grid(mgp: MGP, fm, residual_scale: str = "std") -> np.ndarray:
    """Standardized gap between the deterministic endpoint and its nearest prototype.

    The endpoint is the conditional plan's posterior mean; the reference
    prototype is the component with the highest unweighted density there.
    The gap is divided elementwise by that component's standard deviation
    (or variance when ``residual_scale`` is "var") and reshaped onto the
    item's grid.  ``fm`` is one grid or FeatureMap, or a (B, H, W, d)
    stack, which gives a stack of residual grids.
    """
    if residual_scale not in RESIDUAL_SCALES:
        raise ValidationError(f"residual_scale must be one of {RESIDUAL_SCALES}, got {residual_scale!r}")
    grids = _stack_of(fm)
    xs = grids.reshape(grids.shape[0], -1)
    psis = plan_endpoints(mgp, plan_weights(mgp, xs), xs)
    c = posterior_mode_indices(mgp, psis)
    denom = np.sqrt(mgp.sigma[c]) if residual_scale == "std" else mgp.sigma[c]
    out = ((psis - mgp.mu[c]) / denom).reshape(grids.shape)
    return out if np.ndim(fm) == 4 else out[0]


def head_loss_residual(heads: ScoringHeads, mgp: MGP, fms, labels,
                       residual_scale: str = "std") -> HeadLoss:
    """Batch-mean BCE of the top-K pooled residual-head scores against the labels.

    Gradients are taken with respect to the head only; the residual grids
    are treated as fixed inputs.
    """
    grids, labels = _labelled_stack(fms, labels)
    return _pooled_bce(heads.residual, residual_grid(mgp, grids, residual_scale), labels,
                       heads.topk_fraction)


def _padded_chunk(fms, shape: tuple) -> np.ndarray:
    """Up to SCORE_CHUNK grids or FeatureMaps as the leading rows of a
    (SCORE_CHUNK, H, W, d) float64 stack whose other rows are zero."""
    chunk = np.zeros((SCORE_CHUNK,) + shape)
    for row, fm in zip(chunk, fms):
        grid = fm.grid if isinstance(fm, FeatureMap) else np.asarray(fm)
        if grid.shape != shape:
            raise ValidationError(f"every grid must have shape {shape}, got {grid.shape}")
        row[...] = grid
    return chunk


def anomaly_scores(mgp: MGP, heads: ScoringHeads, fms, residual_scale: str = "std") -> np.ndarray:
    """Composite scores (B,) of a sequence of B grids or FeatureMaps (or a
    (B, H, W, d) stack): pooled anomaly + pooled residual - normality.

    Each term is the pooled logit its head loss trains.  Items are scored
    SCORE_CHUNK at a time, a short last chunk padded with zero rows, so an
    item's score has the same bits whatever else its chunk holds.  A
    non-finite score raises NumericError naming its item.
    """
    out = np.empty(len(fms))
    if len(fms) == 0:
        return out
    shape = _grid_of(fms[0]).shape
    frac = heads.topk_fraction
    for start in range(0, len(fms), SCORE_CHUNK):
        grids = _padded_chunk(fms[start:start + SCORE_CHUNK], shape)
        s_a = _topk_pooled(heads.anomaly, grids, frac)[0]
        s_r = _topk_pooled(heads.residual, residual_grid(mgp, grids, residual_scale), frac)[0]
        s_n = _mean_cell_pooled(heads.normal, grids)[0]
        out[start:start + SCORE_CHUNK] = (s_a + s_r - s_n)[:len(out) - start]
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        b = bad[0]
        name = repr(fms[b].source_id) if isinstance(fms[b], FeatureMap) else f"at row {b}"
        raise NumericError(f"anomaly score of item {name} is not finite: {out[b]}")
    return out


def anomaly_score(mgp: MGP, heads: ScoringHeads, fm, residual_scale: str = "std") -> float:
    """Composite image-level score of one item: ``anomaly_scores`` of a sequence of one."""
    return float(anomaly_scores(mgp, heads, [fm], residual_scale)[0])


def write_scores_csv(path: str | Path, rows) -> None:
    """Write (source_id, label, score) rows; scores keep 17 significant digits."""
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "label", "score"])
        for source_id, label, score in rows:
            writer.writerow([source_id, int(label), f"{score:.17g}"])
