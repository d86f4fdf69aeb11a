"""Training losses and their analytic gradients.

Two families live here.  The prototype-learning losses push the tilted
partition of normal batches up and the prototypes' self-likelihood down
(and the reverse for anomaly batches).  The dispersion loss penalizes
clumping of unit-normalized feature vectors on the hypersphere.

The prototype losses have two parts.  P(B) is the mean tilted
log-partition over a batch B, and S is the mixture's mean log density at
its own means.  A normal batch gives L_DPLn = P_n - S and an anomaly batch
L_DPLa = S - P_a.  Each has the two-term shape of the Light Schrodinger
Bridge objective (Korotin et al., ICLR 2024): a closed-form log-partition
over source points minus the log mixture density at target points, here
the prototype means.  A training step adds the two, so S cancels exactly
whenever the batch holds anomalies, and with pseudo-anomalies in every
default batch that is every step: what is descended is P_n - P_a, normal
partitions against anomalous ones.  S acts only on batches of rows of
one kind.  ``loss_dpl`` is the one kernel of both losses: it takes a
stack of rows, the first n of them normal, on the mixture the caller has
already realized, and skips S's gradient when it cancels; S's value is
still computed for the log.  ``loss_dpl_normal`` and ``loss_dpl_anomaly``
are that kernel on rows of one kind.

P's responsibilities are the plan weights (``bridge.plan_weights``), one
``prototypes.softmax`` of ``MGP.tilted_logits``, which a training step
computes once for the residual head and both partition terms.  The
gradient of P_n - P_a is then one pair of products of the rows with their
plan weights, each row's weights scaled by +1/n on the n normal rows and
-1/n_a on the n_a anomalous ones.  Every mixture quadratic
comes from the realized mixture's expanded matrix-product forms
(``MGP.tilted_logits``, ``MGP.sq_distances``), so memory stays
O(C*D + N*D) and nothing of shape (C, C, D) or (N, C, D) is built.

All gradients are closed-form expressions with respect to the
unconstrained parameters (logits, means, log variances), so no autodiff
machinery is involved anywhere; the test suite checks every formula
against central finite differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .configio import check_int
from .errors import DegenerateInputError, ValidationError
from .prototypes import MGP, MGPParams, _log_components, mgp_realize, softmax


@dataclass(frozen=True)
class DPLLoss:
    """Scalar loss with gradients for logits a, means m, log-variances s."""

    value: float
    grad_a: np.ndarray
    grad_m: np.ndarray
    grad_s: np.ndarray


@dataclass(frozen=True)
class DPLStep:
    """A step's prototype loss: both terms' values and the gradient of their sum.

    ``normal`` is 0 for a batch without normals, ``anomaly`` for one without anomalies.
    """

    normal: float
    anomaly: float
    grad_a: np.ndarray
    grad_m: np.ndarray
    grad_s: np.ndarray


@dataclass(frozen=True)
class DFLLoss:
    """Scalar dispersion loss and its tangent gradient at the unit inputs.

    The gradient is computed when ``grad`` is first read, from the unit rows
    and the similarity weights the value was computed with; the rows must
    not change before then.
    """

    value: float
    units: np.ndarray
    weights: np.ndarray
    kappa: float

    @functools.cached_property
    def grad(self) -> np.ndarray:
        grad = (self.kappa / len(self.units)) * ((self.weights + self.weights.T) @ self.units)
        grad -= np.sum(grad * self.units, axis=1, keepdims=True) * self.units
        return grad


def _self_likelihood(mgp: MGP):
    """S and the responsibilities q[c, k] of component k at mean c, shape (C, C)."""
    # sum_d (mu_cd - mu_kd)^2 / sigma_kd, clipped at 0; zero on the diagonal.
    sq = np.maximum(mgp.sq_distances(mgp.mu), 0.0)
    np.fill_diagonal(sq, 0.0)
    q, norms = softmax(_log_components(mgp, sq), axis=1)    # (c_eval, k_comp)
    return float(np.mean(norms)), q


def _self_likelihood_grads(mgp: MGP, q: np.ndarray):
    """Raw-parameter grads (a, m, s) of S.

    The means appear both as evaluation points and as component centers,
    so the mean gradient collects two flows.  Every term weighted by
    mu_c - mu_k vanishes on the diagonal, so it is summed over c != k only;
    that keeps the usually dominant q[k, k] out of the cancellations.
    """
    mu = mgp.mu
    c = mgp.n_components
    inv_sigma = mgp.inv_sigma
    q_col = q.sum(axis=0)                                   # sum over evaluation points
    q_off = q.copy()
    np.fill_diagonal(q_off, 0.0)
    off_col = q_off.sum(axis=0)
    pulled = q_off.T @ mu                                   # (k, D): sum_c q[c, k] mu_c
    grad_a = q.mean(axis=0) - mgp.alpha
    grad_m = (
        q_off @ mgp.mu_over_sigma - mu * (q_off @ inv_sigma)
        + (pulled - off_col[:, None] * mu) * inv_sigma
    ) / c
    # sum_c q[c, k] (mu_c - mu_k)^2, expanded and clipped like the distances.
    spread = np.maximum(q_off.T @ (mu * mu) - 2.0 * mu * pulled + off_col[:, None] * (mu * mu), 0.0)
    grad_s = -0.5 * (q_col[:, None] - spread * inv_sigma) / c
    return grad_a, grad_m, grad_s


def loss_dpl_normal(params: MGPParams, batch: np.ndarray) -> DPLLoss:
    """Prototype loss P - S for a batch of normal feature vectors.

    Descending it pulls normal mass toward the prototypes while keeping the
    prototypes spread out.  It is ``loss_dpl`` of normal rows alone.
    """
    step = loss_dpl(mgp_realize(params), batch, len(batch))
    return DPLLoss(step.normal, step.grad_a, step.grad_m, step.grad_s)


def loss_dpl_anomaly(params: MGPParams, batch: np.ndarray) -> DPLLoss:
    """Prototype loss S - P for a batch of anomalous feature vectors (sign-flipped).
    It is ``loss_dpl`` of anomalous rows alone."""
    step = loss_dpl(mgp_realize(params), batch, 0)
    return DPLLoss(step.anomaly, step.grad_a, step.grad_m, step.grad_s)


def loss_dpl(mgp: MGP, xs: np.ndarray, n_normal: int, plan=None, out=None) -> DPLStep:
    """loss_dpl_normal of rows xs[:n_normal] plus loss_dpl_anomaly of the rest,
    on the realized mixture, computed once.

    Gradients are with respect to the unconstrained parameters that ``mgp``
    was realized from.  P's gradient is one pair of products of the rows
    with their plan weights, each row's weights scaled by +1/n on the n
    normal rows and -1/n_a on the n_a anomalous ones.  With rows of both
    kinds the two S terms cancel, so S is not differentiated.  ``plan``, if
    the caller holds it, is ``softmax(mgp.tilted_logits(xs), axis=1)``: the
    rows' plan weights and log-partitions.  ``out``, if given, is three
    arrays shaped like a, m and s that receive the gradient.
    """
    xs = mgp.points(xs)
    check_int("n_normal", n_normal, 0, len(xs))
    if not len(xs):
        raise ValidationError(f"batch must be nonempty, got shape {xs.shape}")
    w, norms = softmax(mgp.tilted_logits(xs), axis=1) if plan is None else plan
    if w.shape != norms.shape + (mgp.n_components,) or len(w) != len(xs):
        raise ValidationError(f"plan of shapes {w.shape} and {norms.shape} does not fit {len(xs)} rows")
    n_anomaly = len(xs) - n_normal
    s_value, q = _self_likelihood(mgp)
    normal = float(np.mean(norms[:n_normal])) - s_value if n_normal else 0.0
    anomaly = s_value - float(np.mean(norms[n_normal:])) if n_anomaly else 0.0

    rows = np.empty(len(xs))
    rows[:n_normal] = 1.0 / max(n_normal, 1)
    rows[n_normal:] = -1.0 / max(n_anomaly, 1)
    weighted = (w * rows[:, None]).T                        # (C, B)
    side = int(n_normal > 0) - int(n_anomaly > 0)           # the sign of P's alpha term, and of -S
    e = mgp.epsilon
    grad_a, grad_m, grad_s = out if out is not None else (np.empty_like(mgp.alpha), np.empty_like(mgp.mu),
                                                          np.empty_like(mgp.mu))
    np.subtract(weighted.sum(axis=1), side * mgp.alpha, out=grad_a)
    np.matmul(weighted, xs, out=grad_m)
    grad_m /= e
    np.matmul(weighted, xs * xs, out=grad_s)
    grad_s *= mgp.sigma
    grad_s /= 2.0 * e * e
    if side:
        for grad, s_grad in zip((grad_a, grad_m, grad_s), _self_likelihood_grads(mgp, q)):
            grad -= s_grad if side > 0 else -s_grad
    return DPLStep(normal, anomaly, grad_a, grad_m, grad_s)


def unitize(x: np.ndarray) -> np.ndarray:
    """Project a vector (D,), or each row of an (N, D) matrix, onto the unit sphere.

    A row's norm comes from its BLAS dot with itself, as ``np.linalg.norm``'s
    does for a vector, so each row keeps its bits.  Zero or non-finite rows raise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValidationError(f"unitize expects a vector or an (N, D) matrix, got shape {x.shape}")
    rows = np.atleast_2d(x)
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if not np.all((norms > 0.0) & np.isfinite(norms)):
        raise DegenerateInputError("cannot unitize a zero or non-finite vector")
    return (rows / norms[:, None]).reshape(x.shape)


def loss_dfl(units: np.ndarray, kappa: float) -> DFLLoss:
    """Dispersion loss over unit feature vectors.

    For each anchor the loss is the log of the mean exponentiated cosine
    similarity to the other vectors at temperature kappa, averaged over
    anchors.  Identical directions give kappa, orthogonal ones 0,
    antipodal ones -kappa.  The gradient is projected onto each anchor's
    tangent plane, which makes it directly comparable to finite
    differences taken through a renormalization.
    """
    units = np.asarray(units, dtype=np.float64)
    if units.ndim != 2 or units.shape[0] < 2:
        raise ValidationError(f"need at least two unit vectors, got shape {units.shape}")
    if not (np.isfinite(kappa) and kappa >= 0):
        raise ValidationError(f"kappa must be a nonnegative finite float, got {kappa}")
    norms = np.linalg.norm(units, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValidationError("dispersion loss requires unit-normalized rows")
    u = units.shape[0]
    gram = kappa * (units @ units.T)
    np.fill_diagonal(gram, -np.inf)
    beta, row_lse = softmax(gram, axis=1)                   # rows sum to 1, diag 0
    value = float(np.mean(row_lse)) - float(np.log(u - 1))
    return DFLLoss(value, units, beta, kappa)
