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
training is deterministic.  Scoring runs in passes of a fixed
``_PASS_ROWS`` rows, so a score does not depend on the items beside it, and
scores a group of whole passes, one ``prototypes._row_blocks`` block, per
kernel call: every matrix product becomes a stacked product, which numpy
computes as one BLAS call per pass at the pass's shape, so the per-call
overhead and the streaming of the (C, D) mixture tables are paid once per
group.
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
from .prototypes import MGP, _row_blocks

RESIDUAL_SCALES = ("std", "var")

# Rows per scoring pass.  Every pass holds exactly this many rows, the last
# padded with repeats of real rows, so every matrix product has one shape
# for a model and each row rounds the same way whatever else its pass holds;
# products of other shapes can round differently.  4 rows keep a pass's
# (4, D) x (D, C) products, x @ mu.T and w @ mu, on BLAS's calling thread up
# to D * C = 2**17 (2**16 below D = 512) with OpenBLAS 0.3.31 on 2 cores,
# which split larger ones over two threads, unstable in time.  Not a knob:
# another size can move output bits.
_PASS_ROWS = 4


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
    grids = _batch_of(fm, channels=head.w.shape[0])
    out = _cell_scores(head, grids).reshape(grids.shape[:-1])
    return out[0] if _is_one(fm) else out


def _cell_scores(head: LinearHead, grids: np.ndarray) -> np.ndarray:
    """The head's score of every cell of a float64 (..., H, W, d) stack, as (..., H*W)."""
    flat = grids.reshape(grids.shape[:-3] + (-1, grids.shape[-1])) @ head.w
    flat += head.b[0]
    return flat


def _topk(flat: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of flat (..., N), the mean of its K largest entries (...) and
    their indices (..., K), K = max(1, floor(fraction * N)), ties to the
    lowest index.  The entries are gathered by flat index, and sum / K is
    np.mean's arithmetic, both without the per-call overhead that one item feels."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    n = flat.shape[-1]
    k = max(1, int(np.floor(fraction * n)))
    idx = np.argsort(-flat, axis=-1, kind="stable")[..., :k]
    starts = np.arange(0, flat.size, n).reshape(flat.shape[:-1] + (1,))
    return flat.reshape(-1)[idx + starts].sum(axis=-1) / k, idx


def topk_mean(scores: np.ndarray, fraction: float) -> float:
    """Mean of the K largest entries, K = max(1, floor(fraction * size)).
    A NaN would sort last and never be pooled, so non-finite scores are refused."""
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if flat.shape[0] < 1 or not np.all(np.isfinite(flat)):
        raise ValidationError("cannot pool an empty or non-finite score array")
    return float(_topk(flat, fraction)[0])


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


def _mean_cell_pooled(head: LinearHead, grids: np.ndarray):
    """Per item of a (..., H, W, d) stack, the head's score of its mean cell
    vector (...), with those vectors (..., d)."""
    mean_cells = grids.reshape(grids.shape[:-3] + (-1, grids.shape[-1])).mean(axis=-2)
    return mean_cells @ head.w + head.b[0], mean_cells


def _pooled_bce(head: LinearHead, grids: np.ndarray, labels: np.ndarray, fraction: float) -> HeadLoss:
    z, idx = _topk(_cell_scores(head, grids), fraction)
    cells = grids.reshape(len(grids), -1, grids.shape[-1])   # (B, H*W, d)
    top = cells[np.arange(len(grids))[:, None], idx]         # (B, K, d)
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
    """``residual_grid`` of a checked float64 (..., H, W, d) stack, from its
    rows' ``plan_weights`` if the caller holds them."""
    if residual_scale not in RESIDUAL_SCALES:
        raise ValidationError(f"residual_scale must be one of {RESIDUAL_SCALES}, got {residual_scale!r}")
    xs = grids.reshape(grids.shape[:-3] + (-1,))
    if weights is None:
        weights = plan_weights(mgp, xs)
    elif weights.shape != xs.shape[:-1] + (mgp.n_components,):
        raise ValidationError(f"plan weights of shape {weights.shape} do not fit {len(xs)} rows")
    psis = plan_endpoints(mgp, weights, xs)
    c = posterior_mode_indices(mgp, psis)
    psis -= mgp.mu[c]
    psis /= mgp.sqrt_sigma[c] if residual_scale == "std" else mgp.sigma[c]
    return psis.reshape(grids.shape)


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

    Each term is the pooled logit its head loss trains.  Rows are scored in
    passes of ``_PASS_ROWS`` rows, the last padded with repeats of the first
    ids, and a ``_row_blocks`` group of whole passes per kernel call, so an
    item's score has the same bits whatever else its pass holds.  A
    non-finite score, or a group whose arithmetic overflows, divides by zero
    or goes invalid, raises NumericError naming the item at fault.
    """
    grids, names = _rows_of(fms, mgp.dim, heads.channels)
    ids = np.arange(len(grids)) if ids is None else checked_ids(ids, len(grids))
    passes = np.resize(ids, (-(-len(ids) // _PASS_ROWS), _PASS_ROWS))
    out = np.empty(passes.shape)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for block in _row_blocks(len(passes), _PASS_ROWS * mgp.dim):
            try:
                out[block] = _group_scores(mgp, heads, grids[passes[block]], residual_scale)
            except FloatingPointError:
                # Rows score independently, so rescoring the group row by row,
                # each row alone as a pass of its copies, finds the row at fault.
                for i in ids[block.start * _PASS_ROWS:block.stop * _PASS_ROWS]:
                    try:
                        _group_scores(mgp, heads, grids[np.full((1, _PASS_ROWS), i)], residual_scale)
                    except FloatingPointError as exc:
                        raise NumericError(f"anomaly score of item {_item(names, i)} is not finite: "
                                           f"{exc}") from None
                raise
    out = out.reshape(-1)[:len(ids)]
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NumericError(f"anomaly score of item {_item(names, ids[bad[0]])} is not finite: {out[bad[0]]}")
    return out


def _group_scores(mgp: MGP, heads: ScoringHeads, group: np.ndarray, residual_scale: str) -> np.ndarray:
    """Scores (P, rows) of a (P, rows, H, W, d) stack of passes."""
    group = group.astype(np.float64, copy=False)
    frac = heads.topk_fraction
    s_a = _topk(_cell_scores(heads.anomaly, group), frac)[0]
    s_r = _topk(_cell_scores(heads.residual, _residuals(mgp, group, residual_scale)), frac)[0]
    s_n = _mean_cell_pooled(heads.normal, group)[0]
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
