"""Feature maps, the on-disk feature format, synthetic data, and splits.

Everything downstream consumes precomputed feature maps: an ``(H, W, d)``
float32 grid per item plus a binary label and an anomaly class id.  This
module owns the binary container for such datasets, a synthetic generator
used by the benchmark, train/test split construction for the general and
hard protocols, and the rectangle-paste pseudo-anomaly augmentation.

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
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .configio import check_finite_floats, coerce_fields, parse_kv_file
from .errors import CorruptionError, FormatError, ProtocolError, ValidationError

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
        if grid.dtype != np.float32:
            grid = grid.astype(np.float32)
        if not np.all(np.isfinite(grid)):
            raise ValidationError(f"feature grid for {self.source_id!r} contains non-finite values")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        if self.label not in (LABEL_NORMAL, LABEL_ANOMALY):
            raise ValidationError(f"label must be 0 or 1, got {self.label}")
        if not 0 <= self.class_id <= 0xFFFFFFFF:
            raise ValidationError(f"class_id must fit in u32, got {self.class_id}")

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
            and np.array_equal(self.grid, other.grid)
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of feature maps with identical grid dims.

    Equality compares the items (bit-exact grids, labels, class and source
    ids) and ignores the name/seed metadata, which is not persisted.
    """

    items: tuple[FeatureMap, ...]
    name: str = ""
    seed: int | None = None

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValidationError("dataset must contain at least one item")
        dims = items[0].dims
        for i, item in enumerate(items):
            if item.dims != dims:
                raise ValidationError(f"item {i} has dims {item.dims}, expected {dims}")
        if not any(item.label == LABEL_NORMAL for item in items):
            raise ValidationError("dataset must contain at least one normal item")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.items[0].dims

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return len(self.items) == len(other.items) and all(
            a == b for a, b in zip(self.items, other.items)
        )


def canonical_source_id(index: int) -> str:
    """Source id assigned on read; the container does not store ids."""
    return f"item-{index:06d}"


def write_feature_file(path: str | Path, dataset: Dataset) -> None:
    h, w, d = dataset.dims
    records = np.zeros(len(dataset), dtype=_record_dtype(h, w, d))
    records["class_id"] = [item.class_id for item in dataset.items]
    records["label"] = [item.label for item in dataset.items]
    for i, item in enumerate(dataset.items):
        records["grid"][i] = item.grid
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(dataset), h, w, d))
        fh.write(records.view(np.uint8))


def read_feature_file(path: str | Path) -> Dataset:
    """Read a feature file; items are read-only views into the file's bytes."""
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
    grids = records["grid"]
    labels = records["label"]
    bad_pad = records["pad"] != _ZERO_PAD
    bad_label = labels > LABEL_ANOMALY
    # A float64 sum of finite float32 values cannot overflow, so an item's
    # sum is finite exactly when all of its values are.
    bad_values = ~np.isfinite(grids.sum(axis=(1, 2, 3), dtype=np.float64))
    bad = bad_pad | bad_label | bad_values
    if bad.any():
        i = int(np.argmax(bad))
        if bad_pad[i]:
            reason = "has nonzero padding bytes"
        elif bad_label[i]:
            reason = f"has label {labels[i]}"
        else:
            reason = "contains non-finite values"
        raise CorruptionError(f"{path}: item {i} {reason}")
    items = tuple(FeatureMap._view(grid, label, class_id, canonical_source_id(i))
                  for i, (grid, label, class_id) in enumerate(
                      zip(grids, labels.tolist(), records["class_id"].tolist())))
    return Dataset(items, name=path.stem)


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
        check_finite_floats(self)
        for field in ("n_normal_clusters", "n_per_normal_cluster",
                      "n_per_anomaly_class", "height", "width", "channels"):
            if getattr(self, field) < 1:
                raise ValidationError(f"{field} must be positive, got {getattr(self, field)}")
        if self.n_anomaly_classes < 0:
            raise ValidationError(f"n_anomaly_classes must be nonnegative, got {self.n_anomaly_classes}")
        if not 0 <= self.n_context_channels <= self.channels:
            raise ValidationError(
                f"n_context_channels must lie in [0, channels], got {self.n_context_channels}")
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
    anomaly classes are numbered from 1.
    """
    rng = np.random.default_rng(seed)
    h, w, d = config.height, config.width, config.channels
    n_ctx = config.n_context_channels
    std_center = np.full(d, config.detail_center_scale)
    std_center[:n_ctx] = config.cluster_scale
    std_noise = np.full(d, config.detail_noise)
    std_noise[:n_ctx] = config.noise
    centers = rng.normal(size=(config.n_normal_clusters, h * w, d)) * std_center
    items = []
    for k in range(config.n_normal_clusters):
        draws = centers[k] + rng.normal(size=(config.n_per_normal_cluster, h * w, d)) * std_noise
        for i in range(config.n_per_normal_cluster):
            items.append(FeatureMap(
                draws[i].reshape(h, w, d).astype(np.float32),
                LABEL_NORMAL, 0, f"normal-c{k}-{i:04d}"))
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
        draws = base + shift + rng.normal(size=(config.n_per_anomaly_class, h * w, d)) * std_noise
        for i in range(config.n_per_anomaly_class):
            items.append(FeatureMap(
                draws[i].reshape(h, w, d).astype(np.float32),
                LABEL_ANOMALY, a + 1, f"anomaly-k{a + 1}-{i:04d}"))
    return Dataset(tuple(items), name="synth", seed=seed)


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
    """
    if protocol not in ("general", "hard"):
        raise ValidationError(f"protocol must be 'general' or 'hard', got {protocol!r}")
    if m < 0:
        raise ValidationError(f"m must be nonnegative, got {m}")
    rng = np.random.default_rng(seed)
    normal_ids = [i for i, item in enumerate(dataset.items) if item.label == LABEL_NORMAL]
    anomaly_ids = [i for i, item in enumerate(dataset.items) if item.label == LABEL_ANOMALY]
    n_test = len(normal_ids) // 4
    perm = rng.permutation(np.array(normal_ids, dtype=np.int64))
    test_normals = sorted(int(i) for i in perm[:n_test])
    train_normals = sorted(int(i) for i in perm[n_test:])
    held_out: tuple[int, ...] = ()
    if protocol == "general":
        if m > len(anomaly_ids):
            raise ValidationError(f"m={m} exceeds the {len(anomaly_ids)} available anomalies")
        chosen = rng.choice(np.array(anomaly_ids, dtype=np.int64), size=m, replace=False) if m else []
        train_anomalies = sorted(int(i) for i in chosen)
        test_anomalies = sorted(set(anomaly_ids) - set(train_anomalies))
    else:
        classes = sorted({dataset.items[i].class_id for i in anomaly_ids})
        if len(classes) < 2:
            raise ProtocolError(f"hard protocol needs at least 2 anomaly classes, found {len(classes)}")
        chosen_class = int(rng.choice(np.array(classes, dtype=np.int64)))
        pool = [i for i in anomaly_ids if dataset.items[i].class_id == chosen_class]
        if m > len(pool):
            raise ValidationError(f"m={m} exceeds the {len(pool)} items of anomaly class {chosen_class}")
        chosen = rng.choice(np.array(pool, dtype=np.int64), size=m, replace=False) if m else []
        train_anomalies = sorted(int(i) for i in chosen)
        test_anomalies = sorted(i for i in anomaly_ids if dataset.items[i].class_id != chosen_class)
        held_out = tuple(c for c in classes if c != chosen_class)
    test_ids = sorted(test_normals + test_anomalies)
    return SplitPlan(
        train_normal_ids=tuple(train_normals),
        train_anomaly_ids=tuple(train_anomalies),
        test_ids=tuple(test_ids),
        protocol=protocol,
        m=m,
        seed=seed,
        held_out_classes=held_out,
    )


def cutmix_pseudo_anomaly(base: FeatureMap, donor: FeatureMap, rng: np.random.Generator,
                          area_fraction: float | None = None) -> FeatureMap:
    """Paste one donor rectangle into a copy of ``base``.

    The rectangle's area fraction is drawn from U(0.02, 0.4) unless forced
    via ``area_fraction``.  Draw order is fixed (fraction, then row, then
    column) so results are reproducible from the generator state.  A zero
    fraction returns the base grid unchanged with its original label;
    otherwise the result is labeled anomalous with the reserved pseudo
    class id.
    """
    if base.dims != donor.dims:
        raise ValidationError(f"base dims {base.dims} != donor dims {donor.dims}")
    h, w, _ = base.dims
    if area_fraction is None:
        fraction = float(rng.uniform(0.02, 0.4))
    else:
        if not 0 <= area_fraction <= 1:
            raise ValidationError(f"area_fraction must lie in [0, 1], got {area_fraction}")
        fraction = float(area_fraction)
    side = np.sqrt(fraction)
    rect_h = min(h, int(round(h * side)))
    rect_w = min(w, int(round(w * side)))
    if fraction > 0:
        rect_h = max(1, rect_h)
        rect_w = max(1, rect_w)
    if rect_h == 0 or rect_w == 0:
        return FeatureMap(base.grid, base.label, base.class_id,
                          f"cutmix({base.source_id}|{donor.source_id})")
    top = int(rng.integers(0, h - rect_h + 1))
    left = int(rng.integers(0, w - rect_w + 1))
    grid = base.grid.copy()
    grid[top:top + rect_h, left:left + rect_w, :] = donor.grid[top:top + rect_h, left:left + rect_w, :]
    return FeatureMap(grid, LABEL_ANOMALY, PSEUDO_ANOMALY_CLASS_ID,
                      f"cutmix({base.source_id}|{donor.source_id})")
