"""Training loop, optimizer, and checkpointing.

One optimizer step per iteration updates the prototype parameters and the
three scoring heads jointly.  Batches mix sampled normal items, the
observed training anomalies (all of them while there are at most ten), and
rectangle-paste pseudo-anomalies; a step stacks them into one
(B, H, W, d) array and makes one call per loss over it.  The dispersion
loss is computed on the unit-normalized batch features and contributes to
the reported total; gradients flow into the prototype parameters only
through the two prototype losses, and into each head only through its own
loss.

The trained state is four float64 vectors laid out by ``_PARAM_TABLE``:
the parameters θ, their gradient and AdamW's two moments.  The prototype
parameters, the heads and the named moments are views into them, and each
loss writes its gradient into the gradient's views by name; the gradient
clip and AdamW are one ``optimizer_step`` over the vectors.

A checkpoint (magic ``DPDLCKPT``, version 3) is a little-endian
``_CKPT_HEADER`` holding the dimensions the table takes beyond the config,
AdamW's step, the exact random generator state and the epoch, so a resumed
run reproduces an uninterrupted one bit for bit; then the config as
``key = value`` text, one line per ``TrainConfig`` field; then θ and the two
moments as one block of float64 values.  θ is the only copy of the model.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .configio import check_field_values, coerce_fields, parse_kv_file, parse_kv_text
from .errors import CorruptionError, FormatError, NumericError, ValidationError
from .features import LABEL_ANOMALY, Dataset, SplitPlan, checked_ids, cutmix_rectangle
from .losses import loss_dfl, loss_dpl, unitize
from .prototypes import MGPParams, mgp_new, mgp_realize, vq_init
from .scoring import (RESIDUAL_SCALES, LinearHead, ScoringHeads, head_loss_anomaly,
                      head_loss_normal, head_loss_residual)

CKPT_MAGIC = b"DPDLCKPT"
CKPT_VERSION = 3

# At most this many observed anomalies enter a single iteration; with ten or
# fewer available they are all used every time.
MAX_ANOMALIES_PER_ITER = 10
GRAD_CLIP_NORM = 10.0
# AdamW's moment decay rates and the stabilizer of its denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_CONFIG_ALIASES = {"lambda": "lambda_"}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; all fields can be set from a key = value file.

    The file key for ``lambda_`` is spelled ``lambda`` (the underscore only
    dodges the Python keyword).
    """

    epochs: int = 50
    iters_per_epoch: int = 20
    batch_size: int = 16
    learning_rate: float = 2e-4
    weight_decay: float = 1e-5
    lambda_: float = 0.01
    kappa: float = 10.0
    epsilon: float = 0.001
    n_prototypes: int = 32
    topk_fraction: float = 0.10
    pseudo_anomaly_rate: float = 0.25
    residual_scale: str = "std"
    protocol: str = "general"
    m: int = 1
    seed: int = 0

    def __post_init__(self):
        check_field_values(self)
        for field in ("epochs", "iters_per_epoch", "batch_size", "n_prototypes"):
            if getattr(self, field) < 1:
                raise ValidationError(f"{field} must be positive, got {getattr(self, field)}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValidationError("learning_rate must be positive and weight_decay nonnegative")
        if self.lambda_ < 0 or self.kappa < 0:
            raise ValidationError("lambda and kappa must be nonnegative")
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValidationError(f"topk_fraction must lie in (0, 1], got {self.topk_fraction}")
        if not 0.0 <= self.pseudo_anomaly_rate <= 1.0:
            raise ValidationError(f"pseudo_anomaly_rate must lie in [0, 1], got {self.pseudo_anomaly_rate}")
        if self.residual_scale not in RESIDUAL_SCALES:
            raise ValidationError(f"residual_scale must be one of {RESIDUAL_SCALES}, got {self.residual_scale!r}")
        if self.protocol not in ("general", "hard"):
            raise ValidationError(f"protocol must be 'general' or 'hard', got {self.protocol!r}")
        if self.m < 0 or self.seed < 0:
            raise ValidationError("m and seed must be nonnegative")


def parse_train_config(path: str | Path, **overrides) -> TrainConfig:
    """Read a config file and apply keyword overrides on top."""
    kwargs = coerce_fields(TrainConfig, parse_kv_file(path), aliases=_CONFIG_ALIASES)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# The trained arrays in their order in θ, its gradient and both AdamW moments,
# each shaped in C prototypes, D values per item and d channels: the prototype
# logits, means and log variances, then each head's weights and bias.
_PARAM_TABLE = (("a", "C"), ("m", "CD"), ("s", "CD"), ("w_a", "d"), ("b_a", "1"),
                ("w_n", "d"), ("b_n", "1"), ("w_r", "d"), ("b_r", "1"))


def _layout(c: int, dim: int, channels: int) -> tuple:
    """``_PARAM_TABLE`` with its shapes resolved: (name, shape) per array."""
    sizes = {"C": c, "D": dim, "d": channels, "1": 1}
    return tuple((name, tuple(sizes[k] for k in spec)) for name, spec in _PARAM_TABLE)


def _size(layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


def _views(vec: np.ndarray, layout) -> dict:
    """The arrays of ``layout`` as named views into consecutive slices of ``vec``."""
    views, start = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = vec[start:start + size].reshape(shape)
        start += size
    return views


def _unpack(theta: np.ndarray, layout, config: TrainConfig) -> tuple[MGPParams, ScoringHeads]:
    """Prototype parameters and heads as views into θ; ε and the top-K fraction come from the config."""
    v = _views(theta, layout)
    heads = (LinearHead(v[f"w_{h}"], v[f"b_{h}"]) for h in "anr")
    return MGPParams(v["a"], v["m"], v["s"], config.epsilon), ScoringHeads(*heads, config.topk_fraction)


@dataclass
class OptimizerState:
    """AdamW's step count and its first and second moments, the rows of
    ``moments``, each a vector laid out like θ by ``layout``'s (name, shape)
    pairs.  ``exp_avg`` and ``exp_avg_sq`` name views into the rows."""

    moments: np.ndarray
    layout: tuple
    step: int = 0

    @property
    def exp_avg(self) -> dict:
        return _views(self.moments[0], self.layout)

    @property
    def exp_avg_sq(self) -> dict:
        return _views(self.moments[1], self.layout)


def optimizer_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState, learning_rate: float,
                   weight_decay: float) -> None:
    """Clip ``grad`` in place to global norm GRAD_CLIP_NORM, then one in-place AdamW update of ``theta``.

    The norm adds each array's sum of squares in layout order.  Then
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + ADAM_EPS) + wd * theta)
    with first and second moments bias-corrected for ADAM_BETA1 and ADAM_BETA2.
    """
    if not grad.shape == theta.shape == (_size(state.layout),) or state.moments.shape != (2,) + theta.shape:
        raise ValidationError(f"θ {theta.shape}, gradient {grad.shape} or moments {state.moments.shape} misfit layout")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in _views(grad, state.layout).values()))
    if total > GRAD_CLIP_NORM:
        grad *= GRAD_CLIP_NORM / total
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.moments
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + weight_decay * theta
    theta -= learning_rate * update


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    l_ma: float
    l_mn: float
    l_mr: float
    l_dpl_n: float
    l_dpl_a: float
    l_dfl: float
    total: float


LOG_HEADER = "epoch,L_Ma,L_Mn,L_Mr,L_DPLn,L_DPLa,L_DFL,total"


def format_training_log(rows) -> str:
    lines = [LOG_HEADER]
    for r in rows:
        lines.append(",".join([str(r.epoch)] + [
            f"{v:.17g}" for v in (r.l_ma, r.l_mn, r.l_mr, r.l_dpl_n, r.l_dpl_a, r.l_dfl, r.total)
        ]))
    return "\n".join(lines) + "\n"


@dataclass
class Checkpoint:
    """Trained state.  θ is the only copy of the model: ``params`` and ``heads``
    are views into it built on each access, so in-place edits of their arrays
    are saved and there is no object to replace."""

    config: TrainConfig
    opt: OptimizerState
    rng_state: dict
    epoch: int
    theta: np.ndarray

    @property
    def params(self) -> MGPParams:
        return _unpack(self.theta, self.opt.layout, self.config)[0]

    @property
    def heads(self) -> ScoringHeads:
        return _unpack(self.theta, self.opt.layout, self.config)[1]


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Checkpoint
    log: tuple


def train(dataset: Dataset, split: SplitPlan, config: TrainConfig,
          resume: Checkpoint | None = None) -> TrainResult:
    """Run the optimization loop and return the final checkpoint plus log.

    ``resume`` continues a checkpoint whose config matches except for the
    epoch budget; the random stream picks up exactly where it stopped, so
    a 25+25-epoch run equals a straight 50-epoch run bit for bit.  The loop
    runs with numpy's overflow, division-by-zero and invalid-operation
    errors raised; a diverging run is a NumericError naming its epoch and
    iteration.
    """
    normal_pool, anomaly_pool, _ = (checked_ids(ids, len(dataset)) for ids in (
        split.train_normal_ids, split.train_anomaly_ids, split.test_ids))
    if not len(normal_pool):
        raise ValidationError("split has no training normals")

    layout = _layout(config.n_prototypes, math.prod(dataset.dims), dataset.dims[2])
    if resume is None:
        # The promoted pool is the largest array a fit holds; nothing keeps it past vq_init.
        init = mgp_new(vq_init(dataset.flats(normal_pool), config.n_prototypes, seed=config.seed),
                       config.epsilon)
        # The prototypes start as mgp_new states them; the heads start at zero.
        theta = np.zeros(_size(layout))
        opt = OptimizerState(np.zeros((2, len(theta))), layout)
        views = _views(theta, layout)
        views["a"][...], views["m"][...], views["s"][...] = init.a, init.m, init.s
        rng = np.random.default_rng([config.seed, 0x0D9D])
        start_epoch = 0
    else:
        _check_resume(resume, config, layout)
        theta = resume.theta.copy()
        opt = OptimizerState(resume.opt.moments.copy(), layout, resume.opt.step)
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        start_epoch = resume.epoch

    params, heads = _unpack(theta, layout, config)
    grad = np.empty_like(theta)
    g = _views(grad, layout)
    n_pseudo = int(np.floor(config.pseudo_anomaly_rate * config.batch_size))
    log_rows: list[EpochLog] = []

    epoch = it = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for epoch in range(start_epoch, config.epochs):
                sums = np.zeros(7)
                for it in range(config.iters_per_epoch):
                    grids, labels = _draw_batch(dataset, normal_pool, anomaly_pool, config.batch_size,
                                                n_pseudo, rng)
                    mgp = mgp_realize(params)
                    ha = head_loss_anomaly(heads, grids, labels)
                    hn = head_loss_normal(heads, grids, labels)
                    hr = head_loss_residual(heads, mgp, grids, labels, residual_scale=config.residual_scale)
                    l_ma, l_mn, l_mr = ha.value, hn.value, hr.value

                    flats = grids.reshape(len(grids), -1)
                    anomalous = flats[config.batch_size:]
                    dpl = loss_dpl(mgp, flats[:config.batch_size], anomalous if len(anomalous) else None)
                    g["a"][...], g["m"][...], g["s"][...] = dpl.grad_a, dpl.grad_m, dpl.grad_s
                    for h, loss in zip("anr", (ha, hn, hr)):
                        g[f"w_{h}"][...], g[f"b_{h}"][...] = loss.grad_w, loss.grad_b

                    dfl = loss_dfl(unitize(flats), config.kappa)

                    total = l_ma + l_mn + l_mr + dpl.normal + dpl.anomaly + config.lambda_ * dfl.value
                    if not np.isfinite(total):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch + 1} iteration {it + 1}: "
                            f"L_Ma={l_ma} L_Mn={l_mn} L_Mr={l_mr} "
                            f"L_DPLn={dpl.normal} L_DPLa={dpl.anomaly} L_DFL={dfl.value}")

                    optimizer_step(theta, grad, opt, config.learning_rate, config.weight_decay)

                    sums += np.array([l_ma, l_mn, l_mr, dpl.normal, dpl.anomaly, dfl.value, total])
                means = sums / config.iters_per_epoch
                log_rows.append(EpochLog(epoch + 1, *[float(v) for v in means]))
    except FloatingPointError as exc:
        raise NumericError(f"floating-point fault at epoch {epoch + 1} iteration {it + 1}: {exc}") from None

    ckpt = Checkpoint(config, opt, rng.bit_generator.state, config.epochs, theta)
    return TrainResult(checkpoint=ckpt, log=tuple(log_rows))


def _draw_batch(dataset, normal_pool, anomaly_pool, batch_size, n_pseudo, rng):
    """One step's batch: its (B, H, W, d) float64 grid stack and (B,) labels.

    Draw order: normals, observed anomalies (label 1), then per
    pseudo-anomaly (label 1) its base, its donor and ``cutmix_rectangle``.
    The rows are one gather from ``dataset.grids``, the pseudo-anomalies'
    bases with their donor rectangles then pasted in place.
    """
    normal_pool, anomaly_pool = np.asarray(normal_pool), np.asarray(anomaly_pool, dtype=np.int64)
    picked = normal_pool[rng.choice(len(normal_pool), size=batch_size, replace=len(normal_pool) < batch_size)]
    chosen = anomaly_pool
    if len(anomaly_pool) > MAX_ANOMALIES_PER_ITER:
        chosen = chosen[np.sort(rng.choice(len(anomaly_pool), size=MAX_ANOMALIES_PER_ITER, replace=False))]
    donor_pool = np.concatenate([normal_pool, anomaly_pool])
    bases, donors = np.empty(n_pseudo, dtype=np.int64), np.empty(n_pseudo, dtype=np.int64)
    pasted = np.zeros((n_pseudo,) + dataset.dims[:2] + (1,), dtype=bool)
    for j in range(n_pseudo):
        bases[j] = normal_pool[rng.integers(len(normal_pool))]
        donors[j] = donor_pool[rng.integers(len(donor_pool))]
        pasted[(j,) + cutmix_rectangle(*dataset.dims[:2], rng)] = True
    grids = dataset.grids[np.concatenate([picked, chosen, bases])].astype(np.float64)
    np.copyto(grids[len(grids) - n_pseudo:], dataset.grids[donors], where=pasted)
    labels = np.concatenate([dataset.labels[picked], np.full(len(chosen) + n_pseudo, LABEL_ANOMALY)])
    return grids, labels


def _check_resume(ckpt: Checkpoint, config: TrainConfig, layout) -> None:
    for field in dataclasses.fields(TrainConfig):
        if field.name == "epochs":
            continue
        if getattr(ckpt.config, field.name) != getattr(config, field.name):
            raise ValidationError(
                f"cannot resume: config field {field.name!r} changed "
                f"({getattr(ckpt.config, field.name)!r} -> {getattr(config, field.name)!r})")
    if config.epochs < ckpt.epoch:
        raise ValidationError(f"cannot resume: checkpoint is at epoch {ckpt.epoch}, budget is {config.epochs}")
    if ckpt.opt.layout != layout:
        raise ValidationError(f"cannot resume: checkpoint arrays {ckpt.opt.layout} do not fit this dataset's {layout}")


# ---------------------------------------------------------------------------
# Checkpoint serialization.

# Magic, version, the config text's byte length, D, d, AdamW's step, PCG64's
# state and increment, its has_uint32 and uinteger, the epoch.
_CKPT_HEADER = struct.Struct("<8sIIQQQ16s16sIIQ")


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path``; NumericError, with nothing written, if θ
    or a moment holds a value ``load_checkpoint`` would refuse."""
    rng = ckpt.rng_state
    if rng.get("bit_generator") != "PCG64":
        raise ValidationError(f"unsupported bit generator {rng.get('bit_generator')!r}")
    blocks = (ckpt.theta, *ckpt.opt.moments)
    for name, vec in zip(("theta", "exp_avg", "exp_avg_sq"), blocks):
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise NumericError(f"{path}: not saved, {name} holds non-finite value {vec[bad[0]]}")
    text = "".join(f"{f.name} = {getattr(ckpt.config, f.name)}\n"
                   for f in dataclasses.fields(TrainConfig)).encode("utf-8")
    header = _CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, len(text), ckpt.params.dim, ckpt.heads.channels,
                               ckpt.opt.step, int(rng["state"]["state"]).to_bytes(16, "little"),
                               int(rng["state"]["inc"]).to_bytes(16, "little"), int(rng["has_uint32"]),
                               int(rng["uinteger"]), ckpt.epoch)
    with atomic_open(path, "wb") as fh:
        fh.write(header + text)
        for vec in blocks:
            fh.write(np.ascontiguousarray(vec, dtype="<f8"))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _CKPT_HEADER.size:
        raise CorruptionError(f"{path}: truncated checkpoint header ({len(blob)} bytes)")
    (magic, version, text_len, dim, channels, step, state, inc, has_uint32, uinteger,
     epoch) = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if dim < 1 or channels < 1:
        raise CorruptionError(f"{path}: {dim} values per item and {channels} channels, need both positive")
    end = _CKPT_HEADER.size + text_len
    if len(blob) < end:
        raise CorruptionError(f"{path}: truncated checkpoint config")
    try:
        raw = parse_kv_text(blob[_CKPT_HEADER.size:end].decode("utf-8"), origin="config")
        if raw.keys() != {f.name for f in dataclasses.fields(TrainConfig)}:
            raise CorruptionError(f"config keys {sorted(raw)} are not the TrainConfig fields")
        config = TrainConfig(**coerce_fields(TrainConfig, raw))
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"{path}: checkpoint config is not UTF-8 (byte {exc.start})") from None
    except ValidationError as exc:
        raise CorruptionError(f"{path}: checkpoint {exc}") from None
    # Sized in Python ints before numpy sees the block: θ and both moments.
    layout = _layout(config.n_prototypes, dim, channels)
    n = _size(layout)
    expected = end + 3 * 8 * n
    if len(blob) != expected:
        fault = "truncated" if len(blob) < expected else f"{len(blob) - expected} trailing bytes"
        raise CorruptionError(f"{path}: {fault}: the parameter layout takes {expected} bytes, found {len(blob)}")
    block = np.frombuffer(blob, dtype="<f8", count=3 * n, offset=end).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(block))
    if bad.size:
        raise CorruptionError(f"{path}: {('theta', 'exp_avg', 'exp_avg_sq')[bad[0] // n]} "
                              f"holds non-finite value {block[bad[0]]}")
    rng_state = {"bit_generator": "PCG64", "state": {"state": int.from_bytes(state, "little"),
                                                     "inc": int.from_bytes(inc, "little")},
                 "has_uint32": has_uint32, "uinteger": uinteger}
    return Checkpoint(config, OptimizerState(block[n:].reshape(2, n), layout, step), rng_state, epoch, block[:n])
