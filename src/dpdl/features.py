"""Feature maps, the on-disk feature format, synthetic data, and splits.

Everything downstream consumes precomputed feature maps: an ``(H, W, d)``
float32 grid per item plus a binary label and an anomaly class id.  A
``Dataset`` holds N items as one (N, H, W, d) grid block with label and
class-id vectors.  This module owns the binary container for datasets, a
synthetic generator used by the benchmark, train/test splits for the
general and hard protocols, and the rectangle-paste pseudo-anomalies.

Binary container layout (all little-endian):

    magic   8 bytes  b"DPDLFEAT"
    version u32      currently 1
    count   u64
    height  u32
    width   u32
    depth   u32
    then per item: class_id u32, label u8, 3 zero bytes,
    height*width*depth float32 values in row-major order.

``_record_dtype`` spells one item as a numpy structured dtype; the writer
and the reader both go through it.

Work over a dataset's items goes one row block at a time
(``prototypes._row_blocks``: at most 2^17 values per block): the writer
fills and writes one block of records, ``Dataset.flats`` promotes one
block of grids to float64, and the item check tests one block of grids
for finite values, so none of them copies the dataset as a whole.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .configio import check_field_values, check_int, coerce_fields, parse_kv_file
from .errors import CorruptionError, FormatError, ProtocolError, ValidationError
from .prototypes import _row_blocks

MAGIC = b"DPDLFEAT"
FORMAT_VERSION = 1
LABEL_NORMAL = 0
LABEL_ANOMALY = 1

# Reserved class id for synthesized pseudo-anomalies (maximum u32).
PSEUDO_ANOMALY_CLASS_ID = 0xFFFFFFFF

_HEADER = struct.Struct("<8sIQIII")
_ZERO_PAD = np.void(b"\x00\x00\x00")


def _record_dtype(h: int, w: int, d: int) -> np.dtype:
    """One stored item: class id, label, 3 padding bytes, then the grid."""
    return np.dtype([("class_id", "<u4"), ("label", "u1"), ("pad", "V3"), ("grid", "<f4", (h, w, d))])


def _check_items(grids, labels, class_ids, error, name, *faults) -> None:
    """Raise ``error``, naming item i as ``name(i)``, for the first of N items
    (float32 grids) that fails a check.  In the order an item reports them:
    the caller's (mask, reason) ``faults``, a label not 0 or 1, a class id
    outside u32, a non-finite grid value.  Finiteness is tested value by
    value, one row block at a time, so the check holds one block of bools;
    a sum could overflow on finite values or warn on +inf and -inf."""
    finite = np.empty(len(grids), dtype=bool)
    for rows in _row_blocks(len(grids), math.prod(grids.shape[1:])):
        np.isfinite(grids[rows]).all(axis=(1, 2, 3), out=finite[rows])
    faults += (((labels != LABEL_NORMAL) & (labels != LABEL_ANOMALY), lambda i: f"has label {labels[i]}"),
               ((class_ids < 0) | (class_ids > 0xFFFFFFFF), lambda i: f"has class id {class_ids[i]} outside u32"),
               (~finite, lambda i: "contains non-finite values"))
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))
    if bad.size:
        i = int(bad[0])
        raise error(f"{name(i)} {next(reason(i) for mask, reason in faults if mask[i])}")


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """One item: a float32 feature grid with label and class metadata.

    The grid is stored read-only so items can be shared freely between
    datasets, batches, and augmentation outputs.
    """

    grid: np.ndarray
    label: int
    class_id: int
    source_id: str

    def __post_init__(self):
        grid = np.asarray(self.grid)
        if grid.ndim != 3 or min(grid.shape) < 1:
            raise ValidationError(f"feature grid must be (H, W, d) with positive dims, got shape {grid.shape}")
        grid = np.array(grid, dtype=np.float32)
        _check_items(grid[None], np.array([self.label]), np.array([self.class_id]), ValidationError,
                     lambda i: f"feature map {self.source_id!r}")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _view(cls, grid: np.ndarray, label: int, class_id: int, source_id: str) -> "FeatureMap":
        """Wrap an already validated read-only float32 grid without copying it."""
        fm = object.__new__(cls)
        fm.__dict__.update(grid=grid, label=label, class_id=class_id, source_id=source_id)
        return fm

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.shape  # type: ignore[return-value]

    def flat(self) -> np.ndarray:
        """Row-major flattening promoted to float64 for numerics."""
        return self.grid.astype(np.float64).reshape(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return (
            self.label == other.label
            and self.class_id == other.class_id
            and self.source_id == other.source_id
            and self.grid.shape == other.grid.shape
            and self.grid.tobytes() == other.grid.tobytes()
        )


class Dataset:
    """N items as arrays: read-only float32 ``grids`` (N, H, W, d), u8
    ``labels``, u32 ``class_ids`` and a tuple of ``source_ids``.

    Equality compares the items (bit-exact grids, labels, class and source
    ids) and ignores the name/seed metadata, which is not persisted.
    """

    def __init__(self, items, name: str = "", seed: int | None = None):
        items = tuple(items)
        if len({item.dims for item in items}) != 1:
            raise ValidationError(f"need items of one grid shape, got {sorted({item.dims for item in items})}")
        self._hold(np.stack([item.grid for item in items]),
                   np.array([item.label for item in items], dtype=np.uint8),
                   np.array([item.class_id for item in items], dtype=np.uint32),
                   tuple(item.source_id for item in items), name, seed)

    def _hold(self, grids, labels, class_ids, source_ids, name, seed) -> "Dataset":
        """Hold checked arrays read-only without copying them; None ``source_ids`` are canonical."""
        if not np.any(labels == LABEL_NORMAL):
            raise ValidationError("dataset must contain at least one normal item")
        if source_ids is not None:
            self.source_ids = source_ids
        for array in (grids, labels, class_ids):
            array.flags.writeable = False
        self.grids, self.labels, self.class_ids, self.name, self.seed = grids, labels, class_ids, name, seed
        return self

    @functools.cached_property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(map(canonical_source_id, range(len(self))))

    @functools.cached_property
    def items(self) -> tuple[FeatureMap, ...]:
        """Read-only FeatureMap views into ``grids``, built on first use."""
        return tuple(map(FeatureMap._view, self.grids, self.labels.tolist(), self.class_ids.tolist(),
                         self.source_ids))

    def __len__(self) -> int:
        return len(self.grids)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grids.shape[1:]  # type: ignore[return-value]

    def flats(self, ids: np.ndarray) -> np.ndarray:
        """The grids of the items ``ids`` (an int vector of checked ids) as one
        float64 (n, H*W*d) array in row-major order, promoted one row block
        at a time, so no float32 copy of them is made."""
        out = np.empty((len(ids), self.grids[0].size))
        for rows in _row_blocks(*out.shape):
            out[rows] = self.grids[ids[rows]].reshape(-1, out.shape[1])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.source_ids == other.source_ids and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.class_ids, other.class_ids) and self.grids.shape == other.grids.shape
                and self.grids.tobytes() == other.grids.tobytes())


def checked_ids(ids, size: int) -> np.ndarray:
    """``ids`` as an int64 vector; ValidationError unless each is an integer naming one of ``size`` items."""
    ids = np.asarray(ids).reshape(-1)
    if ids.dtype.kind not in "iuf":
        # A boolean mask would otherwise be read as the ids 0 and 1.
        raise ValidationError(f"item ids must be integers, got an array of {ids.dtype}")
    bad = ids[~((ids >= 0) & (ids < size)) | (ids != np.trunc(ids))]
    if bad.size:
        raise ValidationError(f"{bad[0]} is not an item id of a dataset of size {size}")
    return ids.astype(np.int64)


def canonical_source_id(index: int) -> str:
    """Source id assigned on read; the container does not store ids."""
    return f"item-{index:06d}"


def write_feature_file(path: str | Path, dataset: Dataset) -> None:
    """Write ``dataset`` as a feature file, one row block of records at a time."""
    h, w, d = dataset.dims
    dtype = _record_dtype(h, w, d)
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(dataset), h, w, d))
        for rows in _row_blocks(len(dataset), h * w * d):
            records = np.zeros(rows.stop - rows.start, dtype=dtype)
            records["class_id"], records["label"] = dataset.class_ids[rows], dataset.labels[rows]
            records["grid"] = dataset.grids[rows]
            fh.write(records.view(np.uint8))
            del records  # so the next block is not allocated beside this one


def read_feature_file(path: str | Path) -> Dataset:
    """Read a feature file; the dataset's arrays are read-only views into the file's bytes."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise CorruptionError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, count, h, w, d = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if count == 0:
        raise CorruptionError(f"{path}: dataset is empty")
    if min(h, w, d) < 1:
        raise CorruptionError(f"{path}: non-positive grid dims ({h}, {w}, {d})")
    # Sized in Python ints (8 bytes of class id, label and padding, then the
    # grid) before any dtype is built, so a corrupt header cannot reach numpy.
    expected = _HEADER.size + count * (8 + 4 * h * w * d)
    if len(blob) != expected:
        raise CorruptionError(f"{path}: expected {expected} bytes for {count} items, found {len(blob)}")
    records = np.frombuffer(blob, dtype=_record_dtype(h, w, d), count=count, offset=_HEADER.size)
    grids, labels, class_ids = records["grid"], records["label"], records["class_id"]
    _check_items(grids, labels, class_ids, CorruptionError, lambda i: f"{path}: item {i}",
                 (records["pad"] != _ZERO_PAD, lambda i: "has nonzero padding bytes"))
    return Dataset.__new__(Dataset)._hold(grids, labels, class_ids, None, path.stem, None)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic benchmark generator.

    Feature channels come in two groups, mimicking how backbone features
    split into high-variance context (background, style, pose) and tightly
    regulated detail channels where defects actually show up.  The first
    ``n_context_channels`` of every cell carry the cluster identity
    (centers spread by ``cluster_scale``) plus per-item noise of scale
    ``noise``; the remaining detail channels are nearly constant
    (``detail_center_scale`` / ``detail_noise``).

    Each anomaly class is a single displaced Gaussian: it reuses one
    normal cluster and adds a fixed nonnegative displacement of norm
    ``anomaly_shift`` on the detail channels of a class-specific set of
    cells covering roughly ``anomaly_patch_fraction`` of the grid.
    Context channels stay normal-like, so raw-distance detectors have to
    fight the context noise while the defect itself is far outside the
    detail-channel spread.
    """

    n_normal_clusters: int = 2
    n_anomaly_classes: int = 3
    n_per_normal_cluster: int = 200
    n_per_anomaly_class: int = 20
    height: int = 4
    width: int = 4
    channels: int = 8
    n_context_channels: int = 2
    cluster_scale: float = 1.0
    noise: float = 1.0
    detail_center_scale: float = 0.05
    detail_noise: float = 0.05
    anomaly_shift: float = 2.5
    anomaly_patch_fraction: float = 0.0625

    def __post_init__(self):
        check_field_values(self)
        for field in ("n_normal_clusters", "n_per_normal_cluster",
                      "n_per_anomaly_class", "height", "width", "channels"):
            check_int(field, getattr(self, field), 1)
        check_int("n_anomaly_classes", self.n_anomaly_classes, 0)
        check_int("n_context_channels", self.n_context_channels, 0, self.channels)
        if self.n_anomaly_classes >= 1 and self.n_context_channels == self.channels:
            raise ValidationError("anomaly displacement needs at least one detail channel")
        if self.noise <= 0 or self.detail_noise <= 0:
            raise ValidationError("noise scales must be positive")
        if min(self.cluster_scale, self.detail_center_scale, self.anomaly_shift) < 0:
            raise ValidationError("center scales and anomaly_shift must be nonnegative")
        if not 0 < self.anomaly_patch_fraction <= 1:
            raise ValidationError("anomaly_patch_fraction must lie in (0, 1]")


def parse_synth_config(path: str | Path) -> SynthConfig:
    return SynthConfig(**coerce_fields(SynthConfig, parse_kv_file(path)))


def synth_generate(config: SynthConfig, seed: int) -> Dataset:
    """Draw a synthetic dataset; identical (config, seed) gives identical bytes.

    Normals carry class_id 0 and source ids ``normal-c<cluster>-<i>``;
    anomaly classes are numbered from 1.  The seed must be a nonnegative
    integer (ValidationError otherwise).
    """
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    h, w, d = config.height, config.width, config.channels
    n_ctx = config.n_context_channels
    std_center = np.full(d, config.detail_center_scale)
    std_center[:n_ctx] = config.cluster_scale
    std_noise = np.full(d, config.detail_noise)
    std_noise[:n_ctx] = config.noise
    centers = rng.normal(size=(config.n_normal_clusters, h * w, d)) * std_center
    n_norm, n_anom = config.n_per_normal_cluster, config.n_per_anomaly_class
    n_normal = config.n_normal_clusters * n_norm
    grids = np.empty((n_normal + config.n_anomaly_classes * n_anom, h * w, d), dtype=np.float32)
    for k in range(config.n_normal_clusters):
        grids[k * n_norm:(k + 1) * n_norm] = centers[k] + rng.normal(size=(n_norm, h * w, d)) * std_noise
    n_cells = max(1, int(round(config.anomaly_patch_fraction * h * w)))
    for a in range(config.n_anomaly_classes):
        base = centers[a % config.n_normal_clusters]
        cells = rng.choice(h * w, size=n_cells, replace=False)
        pattern = np.zeros((h * w, d))
        # Nonnegative detail-channel pattern: anomaly classes differ in
        # direction but share an orthant, so a few observed classes inform
        # unseen ones.  Context channels are never displaced.
        pattern[cells, n_ctx:] = np.abs(rng.normal(size=(n_cells, d - n_ctx)))
        shift = config.anomaly_shift * pattern / np.linalg.norm(pattern)
        start = n_normal + a * n_anom
        grids[start:start + n_anom] = base + shift + rng.normal(size=(n_anom, h * w, d)) * std_noise
    grids = grids.reshape(-1, h, w, d)
    class_ids = np.repeat(np.arange(config.n_anomaly_classes + 1, dtype=np.uint32),
                          [n_normal] + [n_anom] * config.n_anomaly_classes)
    labels = (class_ids > 0).astype(np.uint8)
    _check_items(grids, labels, class_ids, ValidationError, lambda i: f"synthetic item {i}")
    source_ids = ([f"normal-c{k}-{i:04d}" for k in range(config.n_normal_clusters) for i in range(n_norm)]
                  + [f"anomaly-k{a + 1}-{i:04d}" for a in range(config.n_anomaly_classes) for i in range(n_anom)])
    return Dataset.__new__(Dataset)._hold(grids, labels, class_ids, tuple(source_ids), "synth", seed)


@dataclass(frozen=True)
class SplitPlan:
    """Index sets for one train/test split of a dataset."""

    train_normal_ids: tuple[int, ...]
    train_anomaly_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    protocol: str
    m: int
    seed: int
    held_out_classes: tuple[int, ...] = ()


def make_splits(dataset: Dataset, protocol: str, m: int, seed: int) -> SplitPlan:
    """Split normals 3:1 train:test and pick M training anomalies.

    Under ``general`` the M training anomalies are sampled from all anomaly
    items and the rest go to test.  Under ``hard`` one anomaly class is
    chosen to supply the M training items; every other class goes to test
    and leftover items of the chosen class are dropped entirely.
    ValidationError names an ``m`` or ``seed`` that is not a nonnegative
    integer.
    """
    if protocol not in ("general", "hard"):
        raise ValidationError(f"protocol must be 'general' or 'hard', got {protocol!r}")
    check_int("m", m, 0)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    normal_ids = np.flatnonzero(dataset.labels == LABEL_NORMAL)
    anomaly_ids = np.flatnonzero(dataset.labels == LABEL_ANOMALY)
    perm = rng.permutation(normal_ids)
    n_test = len(normal_ids) // 4
    test_normals, train_normals = np.sort(perm[:n_test]), np.sort(perm[n_test:])
    held_out: tuple[int, ...] = ()
    if protocol == "general":
        if m > len(anomaly_ids):
            raise ValidationError(f"m={m} exceeds the {len(anomaly_ids)} available anomalies")
        train_anomalies = np.sort(rng.choice(anomaly_ids, size=m, replace=False)) if m else anomaly_ids[:0]
        test_anomalies = np.setdiff1d(anomaly_ids, train_anomalies)
    else:
        anomaly_classes = dataset.class_ids[anomaly_ids].astype(np.int64)
        classes = np.unique(anomaly_classes)
        if len(classes) < 2:
            raise ProtocolError(f"hard protocol needs at least 2 anomaly classes, found {len(classes)}")
        chosen_class = int(rng.choice(classes))
        pool = anomaly_ids[anomaly_classes == chosen_class]
        if m > len(pool):
            raise ValidationError(f"m={m} exceeds the {len(pool)} items of anomaly class {chosen_class}")
        train_anomalies = np.sort(rng.choice(pool, size=m, replace=False)) if m else pool[:0]
        test_anomalies = anomaly_ids[anomaly_classes != chosen_class]
        held_out = tuple(c for c in classes.tolist() if c != chosen_class)
    test_ids = np.sort(np.concatenate([test_normals, test_anomalies]))
    return SplitPlan(
        train_normal_ids=tuple(train_normals.tolist()),
        train_anomaly_ids=tuple(train_anomalies.tolist()),
        test_ids=tuple(test_ids.tolist()),
        protocol=protocol,
        m=m,
        seed=seed,
        held_out_classes=held_out,
    )


def cutmix_rectangle(h: int, w: int, rng: np.random.Generator,
                     area_fraction: float | None = None) -> tuple[slice, slice] | None:
    """Rows and columns of a rectangle covering ``area_fraction`` (drawn from
    U(0.02, 0.4) when None) of an h x w grid; None for a zero fraction.  Draw
    order is fixed (fraction, then row, then column) so results are
    reproducible from the generator state."""
    fraction = float(rng.uniform(0.02, 0.4)) if area_fraction is None else float(area_fraction)
    if fraction == 0:
        return None
    side = np.sqrt(fraction)
    rect_h = max(1, min(h, int(round(h * side))))
    rect_w = max(1, min(w, int(round(w * side))))
    top = int(rng.integers(0, h - rect_h + 1))
    left = int(rng.integers(0, w - rect_w + 1))
    return slice(top, top + rect_h), slice(left, left + rect_w)


def cutmix_pseudo_anomaly(base: FeatureMap, donor: FeatureMap, rng: np.random.Generator,
                          area_fraction: float | None = None) -> FeatureMap:
    """Paste one donor rectangle (``cutmix_rectangle``) into a copy of ``base``.

    The rectangle's area fraction is drawn from U(0.02, 0.4) unless forced
    via ``area_fraction``.  A zero fraction returns the base grid unchanged
    with its original label; otherwise the result is labeled anomalous
    with the reserved pseudo class id.
    """
    if base.dims != donor.dims:
        raise ValidationError(f"base dims {base.dims} != donor dims {donor.dims}")
    if area_fraction is not None and not 0 <= area_fraction <= 1:
        raise ValidationError(f"area_fraction must lie in [0, 1], got {area_fraction}")
    source_id = f"cutmix({base.source_id}|{donor.source_id})"
    rect = cutmix_rectangle(base.dims[0], base.dims[1], rng, area_fraction)
    if rect is None:
        return FeatureMap(base.grid, base.label, base.class_id, source_id)
    grid = base.grid.copy()
    grid[rect] = donor.grid[rect]
    return FeatureMap(grid, LABEL_ANOMALY, PSEUDO_ANOMALY_CLASS_ID, source_id)
