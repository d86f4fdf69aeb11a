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
partitions against anomalous ones.  S acts only on batches of normals
alone.  ``loss_dpl`` computes the step's sum once, on the mixture the
step has already realized, and skips S's gradient when it cancels; S's
value is still computed for the log.

P's responsibilities are the plan weights (``bridge.plan_weights``), one
``prototypes.softmax`` of ``MGP.tilted_logits``.  Every mixture quadratic
comes from the realized mixture's expanded matrix-product forms
(``MGP.tilted_logits``, ``MGP.sq_distances``), so memory stays
O(C*D + N*D) and nothing of shape (C, C, D) or (N, C, D) is built.

All gradients are closed-form expressions with respect to the
unconstrained parameters (logits, means, log variances), so no autodiff
machinery is involved anywhere; the test suite checks every formula
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    ``anomaly`` is 0 for a batch without anomalies.
    """

    normal: float
    anomaly: float
    grad_a: np.ndarray
    grad_m: np.ndarray
    grad_s: np.ndarray


@dataclass(frozen=True)
class DFLLoss:
    """Scalar dispersion loss and its tangent gradient at the unit inputs."""

    value: float
    grad: np.ndarray


def _check_batch(mgp: MGP, batch: np.ndarray) -> np.ndarray:
    batch = mgp.points(batch)
    if batch.shape[0] < 1:
        raise ValidationError(f"batch must be nonempty, got shape {batch.shape}")
    return batch


def _partition_term(mgp: MGP, batch: np.ndarray):
    """P over the batch and its raw-parameter grads (a, m, s)."""
    alpha, sigma = mgp.alpha, mgp.sigma
    e = mgp.epsilon
    n = batch.shape[0]
    w, norms = softmax(mgp.tilted_logits(batch), axis=1)    # (N, C) responsibilities: the plan weights
    value = float(np.mean(norms))
    grad_a = w.mean(axis=0) - alpha
    grad_m = w.T @ batch / (n * e)
    grad_s = sigma * (w.T @ (batch * batch)) / (2.0 * n * e * e)
    return value, (grad_a, grad_m, grad_s)


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


def _minus(x, y):
    return tuple(a - b for a, b in zip(x, y))


def loss_dpl_normal(params: MGPParams, batch: np.ndarray) -> DPLLoss:
    """Prototype loss P - S for a batch of normal feature vectors.

    Descending it pulls normal mass toward the prototypes while keeping the
    prototypes spread out.  It is ``loss_dpl`` without anomalies.
    """
    step = loss_dpl(mgp_realize(params), batch)
    return DPLLoss(step.normal, step.grad_a, step.grad_m, step.grad_s)


def loss_dpl_anomaly(params: MGPParams, batch: np.ndarray) -> DPLLoss:
    """Prototype loss S - P for a batch of anomalous feature vectors (sign-flipped)."""
    mgp = mgp_realize(params)
    p_value, p_grads = _partition_term(mgp, _check_batch(mgp, batch))
    s_value, q = _self_likelihood(mgp)
    return DPLLoss(s_value - p_value, *_minus(_self_likelihood_grads(mgp, q), p_grads))


def loss_dpl(mgp: MGP, normal: np.ndarray, anomaly: np.ndarray | None = None) -> DPLStep:
    """loss_dpl_normal(normal) + loss_dpl_anomaly(anomaly) on the realized mixture, computed once.

    Gradients are with respect to the unconstrained parameters that
    ``mgp`` was realized from.  With anomalies the two S terms cancel, so
    only the two partitions are differentiated; without them (``anomaly``
    None) this is loss_dpl_normal alone.
    """
    n_value, n_grads = _partition_term(mgp, _check_batch(mgp, normal))
    s_value, q = _self_likelihood(mgp)
    if anomaly is None:
        grads = _minus(n_grads, _self_likelihood_grads(mgp, q))
        return DPLStep(n_value - s_value, 0.0, *grads)
    a_value, a_grads = _partition_term(mgp, _check_batch(mgp, anomaly))
    return DPLStep(n_value - s_value, s_value - a_value, *_minus(n_grads, a_grads))


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
    grad = (kappa / u) * ((beta + beta.T) @ units)
    grad -= np.sum(grad * units, axis=1, keepdims=True) * units
    return DFLLoss(value=value, grad=grad)
