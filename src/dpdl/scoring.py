"""Per-cell linear heads, top-K pooling, and the composite anomaly score.

Each scoring head is an affine map applied independently to every grid
cell.  Image-level decisions pool the per-cell scores: the anomaly and
residual heads average the top K cells (a fixed fraction of the grid,
at least one cell), while the normality head scores the mean cell vector.
The final anomaly score adds the two pooled head outputs and subtracts
the normality output.

Every public call takes its rows from one gate, ``_rows_of``, which checks
them once against the call's model; the kernels behind it trust them.
Head losses are binary cross-entropy on logits, averaged over a
(B, H, W, d) batch in one call; their gradients flow only through the
selected top-K cells, with ties broken toward lower flat indices so
training is deterministic.  Scoring runs in zero-padded passes whose row
count ``pass_rows`` takes from the model's D and C, so a score does not
depend on the items beside it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .bridge import plan_endpoints, plan_weights, posterior_mode_indices
from .errors import NumericError, ValidationError
from .features import Dataset, FeatureMap, checked_ids
from .prototypes import MGP

RESIDUAL_SCALES = ("std", "var")

# Rows per scoring pass.  Every pass of one call runs on exactly this many
# rows, zero-padded, so every matrix product has one shape for a model: BLAS
# then takes the same kernel and thread split for every pass, and each row
# rounds the same way whatever the other rows hold.  Products of other shapes
# can round differently.  A pass's products are (rows, D) x (D, C) pairs,
# x @ mu.T and w @ mu.  Where OpenBLAS 0.3.31 (numpy 2.4.6, 2 cores) ran each
# on the calling thread and where it split it over two threads, by the
# per-thread CPU time of about 1 s of calls after 50 warm-up calls, at C =
# 16, 32 and 64 alike:
#
#     D        2**18 mult-adds   2**19                  2**20
#     128      calling thread    x @ mu.T on two        both on two
#     512      calling thread    calling thread         both on two
#     1024     calling thread    calling thread         both on two
#     2048     calling thread    calling thread         both on two
#     4096     calling thread    calling thread         both on two, except
#                                                       x @ mu.T at C = 16
#
# At 2**19, x @ mu.T also went to two threads at D = 256 (C = 64), and both
# stayed on the calling thread at every other shape tried with D >= 384 (D up
# to 8192, C up to 256).  A threaded pass is unstable in time: one run of
# 128-row passes at D = 128 took 8.2 ms per product pair, against about 50 us
# in others, with the main thread and the worker sharing one CPU.  So a pass
# holds at most 2**19 multiply-adds per product where D >= 512 and 2**18
# below, and at least 4 rows, a floor that binds once D * C exceeds a quarter
# of that budget, as at D = 8192 and C = 32.  It holds at most 32 rows: at
# D = 128 and C = 32, passes of 8 to 32 rows scored every item with the bits
# of a 4-row pass, while the 48- and 64-row products rounded differently and
# moved one score in 460 by one ulp.  The cap also bounds the zero padding of
# a short last pass; 64 rows scored a 140-item split about 4% faster than 32.


def pass_rows(dim: int, n_components: int) -> int:
    """Rows per scoring pass of a model with D = dim and C = n_components."""
    budget = 2 ** 19 if dim >= 512 else 2 ** 18
    return min(32, max(4, budget // (dim * n_components)))


@dataclass
class LinearHead:
    """Affine per-cell scorer; the bias is a 1-element array so that in a
    trained checkpoint both are views into the parameter vector θ."""

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


def _item(names, i) -> str:
    return f"at row {i}" if names is None or names[i] is None else repr(names[i])


def _is_one(fms) -> bool:
    """Whether scoring input is one item, a grid or FeatureMap, rather than rows."""
    return isinstance(fms, FeatureMap) or (isinstance(fms, np.ndarray) and fms.ndim == 3)


def _rows_of(fms, dim: int | None = None, channels: int | None = None) -> tuple[np.ndarray, list | tuple | None]:
    """The one input check of this module: the (N, H, W, d) rows of a Dataset,
    a stack, one grid or FeatureMap (the stack of one), or a sequence of grids
    or FeatureMaps, and their source ids if known.  Rows whose H * W * d is
    not ``dim`` or whose d is not ``channels`` are a ValidationError naming
    both shapes, and so is a non-finite row, by name.  A Dataset was checked
    finite when it was built; its float32 grids come back uncopied, other
    input as float64."""
    if isinstance(fms, Dataset):
        rows, names = fms.grids, fms.source_ids
    elif isinstance(fms, np.ndarray) and fms.ndim == 4:
        rows, names = fms.astype(np.float64, copy=False), None
    else:
        items = [fms] if _is_one(fms) else list(fms)
        grids = [fm.grid if isinstance(fm, FeatureMap) else np.asarray(fm) for fm in items]
        shapes = sorted({grid.shape for grid in grids})
        if len(shapes) > 1 or (shapes and len(shapes[0]) != 3):
            raise ValidationError(f"expected (H, W, d) grids of one shape or an (N, H, W, d) stack, got {shapes}")
        rows = np.array(grids, dtype=np.float64) if grids else np.empty((0, 0, 0, 0))
        names = [getattr(fm, "source_id", None) for fm in items]
    if len(rows) and (dim not in (None, math.prod(rows.shape[1:])) or channels not in (None, rows.shape[3])):
        takes = " in ".join(t for t in (dim and f"{dim} values per item",
                                        channels and f"cells of {channels} channels") if t)
        raise ValidationError(f"items of shape {rows.shape[1:]} do not fit the model, which takes {takes}")
    if not isinstance(fms, Dataset):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=(1, 2, 3)))
        if bad.size:
            raise ValidationError(f"item {_item(names, bad[0])} contains non-finite values")
    return rows, names


def _batch_of(fms, dim: int | None = None, channels: int | None = None) -> np.ndarray:
    """``_rows_of``'s rows as a float64 batch of at least one row."""
    rows = _rows_of(fms, dim, channels)[0]
    if not len(rows):
        raise ValidationError("need at least one item")
    return rows.astype(np.float64, copy=False)


def pixel_scores(head: LinearHead, fm) -> np.ndarray:
    """Affine score of every cell: (H, W) for one item, (N, H, W) for rows of them."""
    out = _batch_of(fm, channels=head.w.shape[0]) @ head.w + head.b[0]
    return out[0] if _is_one(fm) else out


def _topk_flat_indices(flat: np.ndarray, fraction: float) -> np.ndarray:
    """Per row of flat (..., N), the indices of its K largest entries, ties to the lowest index."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    k = max(1, int(np.floor(fraction * flat.shape[-1])))
    order = np.argsort(-flat, axis=-1, kind="stable")
    return order[..., :k]


def topk_mean(scores: np.ndarray, fraction: float) -> float:
    """Mean of the K largest entries, K = max(1, floor(fraction * size)).
    A NaN would sort last and never be pooled, so non-finite scores are refused."""
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if flat.shape[0] < 1 or not np.all(np.isfinite(flat)):
        raise ValidationError("cannot pool an empty or non-finite score array")
    idx = _topk_flat_indices(flat, fraction)
    return float(np.mean(flat[idx]))


def bce_with_logits(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise stable binary cross-entropy of logits z against 0/1 labels y,
    and its derivative in z; scalars are arrays of one."""
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError(f"labels must be 0 or 1, got {y}")
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - z * y + np.log1p(e)
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return loss, sig - y


@dataclass(frozen=True)
class HeadLoss:
    """Scalar head loss with gradients for the head's weight and bias."""

    value: float
    grad_w: np.ndarray
    grad_b: np.ndarray


def _mean_bce(z: np.ndarray, labels: np.ndarray, inputs: np.ndarray) -> HeadLoss:
    """Batch-mean BCE of logits z (B,) against one label each, where z_b = inputs[b] @ w + b."""
    labels = np.reshape(labels, -1)
    if labels.shape != z.shape:
        raise ValidationError(f"need one label per grid: {z.shape[0]} grids, {labels.shape[0]} labels")
    loss, dz = bce_with_logits(z, labels)
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
    """Batch-mean BCE of the top-K pooled anomaly-head scores of ``_rows_of(fms)``
    against one label per row; one grid or FeatureMap takes a scalar label."""
    return _pooled_bce(heads.anomaly, _batch_of(fms, channels=heads.channels), labels,
                       heads.topk_fraction)


def head_loss_normal(heads: ScoringHeads, fms, labels) -> HeadLoss:
    """Batch-mean BCE of the normality head applied to each item's mean cell vector."""
    z, mean_cells = _mean_cell_pooled(heads.normal, _batch_of(fms, channels=heads.channels))
    return _mean_bce(z, labels, mean_cells)


def residual_grid(mgp: MGP, fm, residual_scale: str = "std") -> np.ndarray:
    """Standardized gap between the deterministic endpoint and its nearest prototype.

    The endpoint is the conditional plan's posterior mean; the reference
    prototype is the component with the highest unweighted density there.
    The gap is divided elementwise by that component's standard deviation
    (or variance when ``residual_scale`` is "var") and reshaped onto the
    item's grid.  One grid or FeatureMap gives one residual grid, rows of
    items a stack of them.
    """
    out = _residuals(mgp, _batch_of(fm, mgp.dim), residual_scale)
    return out[0] if _is_one(fm) else out


def _residuals(mgp: MGP, grids: np.ndarray, residual_scale: str, weights=None) -> np.ndarray:
    """``residual_grid`` of a checked float64 (B, H, W, d) stack, from its
    rows' ``plan_weights`` if the caller holds them."""
    if residual_scale not in RESIDUAL_SCALES:
        raise ValidationError(f"residual_scale must be one of {RESIDUAL_SCALES}, got {residual_scale!r}")
    xs = grids.reshape(grids.shape[0], -1)
    if weights is None:
        weights = plan_weights(mgp, xs)
    elif weights.shape != (len(xs), mgp.n_components):
        raise ValidationError(f"plan weights of shape {weights.shape} do not fit {len(xs)} rows")
    psis = plan_endpoints(mgp, weights, xs)
    c = posterior_mode_indices(mgp, psis)
    denom = np.sqrt(mgp.sigma[c]) if residual_scale == "std" else mgp.sigma[c]
    return ((psis - mgp.mu[c]) / denom).reshape(grids.shape)


def head_loss_residual(heads: ScoringHeads, mgp: MGP, fms, labels,
                       residual_scale: str = "std", weights=None) -> HeadLoss:
    """Batch-mean BCE of the top-K pooled residual-head scores against the labels.

    Gradients are taken with respect to the head only; the residual grids
    are treated as fixed inputs.  ``weights``, if the caller holds them, are
    the rows' ``plan_weights``.
    """
    grids = _batch_of(fms, mgp.dim, heads.channels)
    return _pooled_bce(heads.residual, _residuals(mgp, grids, residual_scale, weights), labels,
                       heads.topk_fraction)


def anomaly_scores(mgp: MGP, heads: ScoringHeads, fms, residual_scale: str = "std",
                   ids=None) -> np.ndarray:
    """Composite scores of rows ``ids`` (all by default) of ``_rows_of(fms)``:
    pooled anomaly + pooled residual - normality.

    Each term is the pooled logit its head loss trains.  Each pass gathers
    ``pass_rows(D, C)`` rows into a stack padded with zero rows, so an
    item's score has the same bits whatever else its pass holds.  A
    non-finite score, or a pass whose arithmetic overflows, divides by zero
    or goes invalid, raises NumericError naming the item at fault.
    """
    grids, names = _rows_of(fms, mgp.dim, heads.channels)
    ids = np.arange(len(grids)) if ids is None else checked_ids(ids, len(grids))
    size = pass_rows(mgp.dim, mgp.n_components)
    out = np.empty(len(ids))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for start in range(0, len(ids), size):
            rows = ids[start:start + size]
            try:
                out[start:start + len(rows)] = _pass_scores(mgp, heads, grids[rows], size, residual_scale)[:len(rows)]
            except FloatingPointError:
                # Rows score independently, so rescoring the pass row by row
                # finds the row at fault.
                for i in rows:
                    try:
                        _pass_scores(mgp, heads, grids[i:i + 1], size, residual_scale)
                    except FloatingPointError as exc:
                        raise NumericError(f"anomaly score of item {_item(names, i)} is not finite: {exc}") from None
                raise
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NumericError(f"anomaly score of item {_item(names, ids[bad[0]])} is not finite: {out[bad[0]]}")
    return out


def _pass_scores(mgp: MGP, heads: ScoringHeads, rows: np.ndarray, size: int,
                 residual_scale: str) -> np.ndarray:
    """Scores (size,) of up to ``size`` rows, zero-padded to a full pass."""
    chunk = np.zeros((size,) + rows.shape[1:])
    chunk[:len(rows)] = rows
    frac = heads.topk_fraction
    s_a = _topk_pooled(heads.anomaly, chunk, frac)[0]
    s_r = _topk_pooled(heads.residual, _residuals(mgp, chunk, residual_scale), frac)[0]
    s_n = _mean_cell_pooled(heads.normal, chunk)[0]
    return s_a + s_r - s_n


def anomaly_score(mgp: MGP, heads: ScoringHeads, fm, residual_scale: str = "std") -> float:
    """Composite image-level score of one grid or FeatureMap: its ``anomaly_scores``."""
    scores = anomaly_scores(mgp, heads, fm, residual_scale)
    if scores.shape != (1,):
        raise ValidationError(f"anomaly_score takes one item, got {len(scores)}")
    return float(scores[0])


def write_scores_csv(path: str | Path, rows) -> None:
    """Write (source_id, label, score) rows; scores keep 17 significant digits."""
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "label", "score"])
        for source_id, label, score in rows:
            writer.writerow([source_id, int(label), f"{score:.17g}"])
