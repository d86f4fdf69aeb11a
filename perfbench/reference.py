"""Independent reference computations the benchmark checks dpdl against.

Nothing here calls into dpdl: each function recomputes a quantity from
its definition, so a check compares two separate implementations rather
than the program with itself.
"""

from __future__ import annotations

import numpy as np


def pairwise_auc(scores, labels) -> float:
    """AUC by direct counting over every (anomaly, normal) pair, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs at least one item of each label")
    wins = 0.0
    # Row blocks keep the pair matrix small on files with thousands of items.
    for start in range(0, pos.size, 256):
        block = pos[start:start + 256, None]
        wins += float(np.sum(block > neg[None, :])) + 0.5 * float(np.sum(block == neg[None, :]))
    return wins / (pos.size * neg.size)


def closed_form_endpoint(a, m, s, epsilon: float, x):
    """Conditional plan of the Gaussian-mixture bridge at source point x.

    From the raw checkpoint parameters (logits a, means m, log variances s):
    weights are proportional to alpha_c * exp(mu_c.x/eps + x.sigma_c.x/(2 eps^2))
    with alpha = softmax(a) and sigma = exp(s); component means are
    mu_c + sigma_c * x / eps.  Returns (weights, means, endpoint), where the
    endpoint is the weight-averaged mean.
    """
    a = np.asarray(a, dtype=np.float64)
    mu = np.asarray(m, dtype=np.float64)
    sigma = np.exp(np.asarray(s, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    log_alpha = a - a.max()
    log_alpha -= np.log(np.sum(np.exp(log_alpha)))
    log_w = log_alpha + np.einsum("cd,d->c", mu, x) / epsilon \
        + np.einsum("cd,d->c", sigma, x * x) / (2.0 * epsilon * epsilon)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    means = mu + sigma * (x / epsilon)
    return w, means, np.einsum("c,cd->d", w, means)


def on_simplex(w, tol: float = 1e-12) -> bool:
    """Nonnegative entries summing to one within ``tol``."""
    w = np.asarray(w, dtype=np.float64)
    return bool(w.ndim == 1 and np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= tol)


def same_bits(x, y) -> bool:
    """Equal shape, dtype and bytes (so -0.0 != 0.0 and NaN payloads count)."""
    x = np.asarray(x)
    y = np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
