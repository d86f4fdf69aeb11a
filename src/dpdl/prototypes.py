"""Mixture prototypes over flattened feature vectors.

A prototype set is a C-component Gaussian mixture with diagonal covariance.
Training works on unconstrained parameters (logit weights, means, log
variances); ``mgp_realize`` maps them onto the simplex / positive cone.
Initial means come from a small Lloyd vector quantizer seeded the
k-means++ way.

Work over the rows of a data-sized array goes one row block at a time
(``_row_blocks``: at most ``_ROW_BLOCK`` values, 1 MiB of float64, per
block), so a fit holds its float64 (N, D) input and, beyond it, one block
plus arrays of shape (N, C), (C, D) and one cluster's rows; it makes no
(N, D) temporary.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_LOG_2PI = float(np.log(2.0 * np.pi))

# k-means++ seeding: squared distances below this fraction of
# |x|^2 + |c|^2 are rounding noise of the expanded form and count as zero.
_SEED_ROUNDOFF = 1e-12

# Values per row block of the passes over data-sized arrays; not a knob.
_ROW_BLOCK = 2 ** 17


def _row_blocks(n_rows: int, row_size: int):
    """Slices covering range(n_rows) in order, each of at most ``_ROW_BLOCK``
    values' worth of rows of ``row_size`` values (one row at least)."""
    step = max(1, _ROW_BLOCK // max(row_size, 1))
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """sum(x * x, axis=1) of a float64 (N, D) array, one row block at a time;
    each row is summed alone, so the bits are those of the whole-array sum.
    ValidationError if a norm is not finite: a value of its row is not, or
    the square of one overflows."""
    out = np.empty(x.shape[0])
    with np.errstate(over="ignore"):
        for rows in _row_blocks(*x.shape):
            block = x[rows]
            out[rows] = np.sum(block * block, axis=1)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValidationError(f"features row {bad[0]} has a non-finite value or squared norm")
    return out


def logsumexp(a, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) along ``axis``, bit for bit what scipy.special.logsumexp returns.

    Same algorithm: every entry equal to the maximum is split out of the
    sum, so the result is log1p(rest / ties) + log(ties) + max.  Where that
    is not finite (all -inf, +inf or NaN entries) the direct
    log(sum(exp(a))) is returned instead, as scipy does.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    ties = a == a_max
    count = np.sum(ties, axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        out = np.where(bad, direct, out)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass
class MGPParams:
    """Unconstrained prototype parameters.

    a: (C,) mixture logits, weights are softmax(a)
    m: (C, D) component means, used as-is
    s: (C, D) log variances, variances are exp(s)
    epsilon: diffusion scale of the bridge these prototypes parameterize
    """

    a: np.ndarray
    m: np.ndarray
    s: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.float64)
        if self.a.ndim != 1 or self.m.ndim != 2 or self.s.ndim != 2:
            raise ValidationError("expected a: (C,), m: (C, D), s: (C, D)")
        c = self.a.shape[0]
        if c < 1 or self.m.shape[0] != c or self.s.shape != self.m.shape:
            raise ValidationError(
                f"inconsistent parameter shapes a={self.a.shape} m={self.m.shape} s={self.s.shape}")
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be a positive finite float, got {self.epsilon}")

    @property
    def n_components(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class MGP:
    """Realized mixture: simplex weights, means, positive diagonal variances."""

    alpha: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    epsilon: float

    @property
    def n_components(self) -> int:
        return self.alpha.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    @functools.cached_property
    def log_sigma(self) -> np.ndarray:
        """log(sigma), computed once per realized mixture."""
        return np.log(self.sigma)

    @functools.cached_property
    def inv_sigma(self) -> np.ndarray:
        """1 / sigma, computed once per realized mixture."""
        return 1.0 / self.sigma

    @functools.cached_property
    def mu_over_sigma(self) -> np.ndarray:
        """mu / sigma, computed once per realized mixture."""
        return self.mu / self.sigma

    @functools.cached_property
    def sum_log_sigma(self) -> np.ndarray:
        """Per component, sum_d log sigma: the log-determinant of its covariance."""
        return np.sum(self.log_sigma, axis=1)

    @functools.cached_property
    def sum_mu_mu_over_sigma(self) -> np.ndarray:
        """Per component, sum_d mu * (mu / sigma)."""
        return np.sum(self.mu * self.mu_over_sigma, axis=1)

    def points(self, xs: np.ndarray) -> np.ndarray:
        """xs as a float64 (B, D) batch of finite points in this mixture's space."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValidationError(f"points must have shape (B, {self.dim}), got {xs.shape}")
        if not np.all(np.isfinite(xs)):
            raise ValidationError("points contain non-finite values")
        return xs

    def tilted_logits(self, xs: np.ndarray) -> np.ndarray:
        """Tilted log masses (B, C) at source points xs (B, D).

        Component c contributes log alpha_c + x.mu_c/eps + x.(sigma_c*x)/(2 eps^2),
        the log moment-generating function of N(mu_c, diag sigma_c) at x/eps.
        """
        e = self.epsilon
        return np.log(self.alpha) + (xs @ self.mu.T) / e + ((xs * xs) @ self.sigma.T) / (2.0 * e * e)

    def sq_distances(self, ys: np.ndarray) -> np.ndarray:
        """sum_d (y - mu_c)^2 / sigma_c (B, C) at points ys (B, D).

        Expanded as y^2 @ (1/sigma)^T - 2 y @ (mu/sigma)^T + sum mu*(mu/sigma),
        so nothing of shape (B, C, D) is built.  Cancellation can leave
        rounding-sized negatives where y sits on a mean.
        """
        d2 = (ys * ys) @ self.inv_sigma.T
        d2 -= 2.0 * (ys @ self.mu_over_sigma.T)
        d2 += self.sum_mu_mu_over_sigma
        return d2


def mgp_new(init, epsilon: float) -> MGPParams:
    """Fresh parameters: uniform weights, unit variances, means = codebook.

    ``init`` may be a PrototypeInit or a bare (C, D) codebook array.
    """
    codebook = init.codebook if isinstance(init, PrototypeInit) else init
    codebook = np.asarray(codebook, dtype=np.float64)
    if codebook.ndim != 2:
        raise ValidationError(f"codebook must be (C, D), got shape {codebook.shape}")
    c, d = codebook.shape
    return MGPParams(a=np.zeros(c), m=codebook.copy(), s=np.zeros((c, d)), epsilon=float(epsilon))


def mgp_realize(params: MGPParams) -> MGP:
    """Map unconstrained parameters to the constrained mixture.

    Weights are a numerically shifted softmax so they sum to one exactly up
    to rounding; variances are exponentials, hence always positive.
    """
    if not (np.all(np.isfinite(params.a)) and np.all(np.isfinite(params.m)) and np.all(np.isfinite(params.s))):
        raise ValidationError("prototype parameters contain non-finite values")
    shifted = params.a - params.a.max()
    weights = np.exp(shifted)
    alpha = weights / weights.sum()
    return MGP(alpha=alpha, mu=params.m.copy(), sigma=np.exp(params.s), epsilon=params.epsilon)


def _log_components(mgp: MGP, sq: np.ndarray) -> np.ndarray:
    """log alpha_k + log N(y; mu_k, diag sigma_k) (N, C) from the distances
    sq = sum_d (y - mu_k)^2 / sigma_k (N, C) of each point y to each component k."""
    return (
        np.log(mgp.alpha)[None, :]
        - 0.5 * (mgp.dim * _LOG_2PI + mgp.sum_log_sigma)[None, :]
        - 0.5 * sq
    )


def mgp_log_density(mgp: MGP, points: np.ndarray) -> np.ndarray:
    """Mixture log density (N,) at a batch of points (N, D).

    Built on ``MGP.sq_distances`` clipped at zero, so nothing of shape
    (N, C, D) is formed.  A weight that underflowed to 0 has log weight
    -inf, the right value, so its divide warning is silenced.
    """
    sq = np.maximum(mgp.sq_distances(mgp.points(points)), 0.0)
    with np.errstate(divide="ignore"):
        return logsumexp(_log_components(mgp, sq), axis=1)


@dataclass(frozen=True)
class PrototypeInit:
    """Result of the Lloyd quantizer: codebook plus diagnostics.

    ``errors`` holds the mean squared quantization error after each
    assignment pass; Lloyd never increases it.
    """

    codebook: np.ndarray
    assignment: np.ndarray
    quantization_error: float
    errors: tuple[float, ...]


def vq_init(features: np.ndarray, n_codewords: int, max_iters: int = 100,
            seed: int = 0) -> PrototypeInit:
    """Quantize feature vectors with k-means++ seeding and Lloyd updates.

    The seed and every Lloyd pass find distances with one kernel, from row
    norms computed once per call, one row block at a time.  Empty clusters
    are reseeded to the point farthest from its codeword.  Stops early once
    assignments stop changing.  ValidationError names the argument at fault:
    a count or seed that is not an integer in range, or a feature row with
    a non-finite value.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError(f"features must be a nonempty (N, D) array, got shape {x.shape}")
    n, _ = x.shape
    for name, value, low, high in (("n_codewords", n_codewords, 1, n), ("max_iters", max_iters, 1, math.inf),
                                   ("seed", seed, 0, math.inf)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
            raise ValidationError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    rng = np.random.default_rng(seed)
    x_sq = _row_norms(x)
    codebook = _kmeans_pp_seed(x, x_sq, n_codewords, rng)
    assignment = np.zeros(n, dtype=np.int64)
    errors: list[float] = []
    for _ in range(max_iters):
        new_assignment, dist2 = _nearest_codewords(x, x_sq, codebook)
        errors.append(float(np.mean(dist2)))
        converged = bool(np.array_equal(new_assignment, assignment)) and len(errors) > 1
        assignment = new_assignment
        if converged:
            break
        counts = np.bincount(assignment, minlength=n_codewords)
        for k in range(n_codewords):
            if counts[k] > 0:
                codebook[k] = x[assignment == k].mean(axis=0)
        for k in np.flatnonzero(counts == 0):
            far = int(np.argmax(dist2))
            codebook[k] = x[far]
            dist2[far] = -1.0
    return PrototypeInit(
        codebook=codebook,
        assignment=assignment,
        quantization_error=errors[-1],
        errors=tuple(errors),
    )


def _nearest_codewords(x: np.ndarray, x_sq: np.ndarray, codebook: np.ndarray):
    """Each row's nearest codeword index (N,) and squared distance (N,).

    x is (N, D) with row norms x_sq = sum(x * x, axis=1); the distances are
    expanded as |x|^2 - 2 x.c + |c|^2, so nothing of shape (N, D) is built.
    Cancellation can leave small negatives; they are clipped to zero before
    the argmin, so exact ties go to the lowest index.
    """
    d2 = x_sq[:, None] - 2.0 * (x @ codebook.T) + np.sum(codebook * codebook, axis=1)
    np.maximum(d2, 0.0, out=d2)
    nearest = np.argmin(d2, axis=1)
    return nearest, d2[np.arange(len(nearest)), nearest]


def _kmeans_pp_seed(x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]

    def sq_dists_to(idx: int) -> np.ndarray:
        # The chosen point itself and exact duplicates of it come out as zero.
        d2 = _nearest_codewords(x, x_sq, x[idx:idx + 1])[1]
        d2[d2 <= _SEED_ROUNDOFF * (x_sq + x_sq[idx])] = 0.0
        d2[idx] = 0.0
        return d2

    codebook = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    codebook[0] = x[first]
    closest = sq_dists_to(first)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen codewords.
            codebook[j] = x[int(rng.integers(0, n))]
            continue
        probs = closest / total
        idx = int(rng.choice(n, p=probs))
        codebook[j] = x[idx]
        closest = np.minimum(closest, sq_dists_to(idx))
    return codebook
