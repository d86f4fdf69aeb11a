"""Closed-form entropic bridge between data points and the prototype mixture.

With a diagonal Gaussian mixture as the target marginal and a Brownian
reference of variance ``epsilon`` per unit time, the static coupling and
the time-dependent drift both stay inside the mixture family, so every
quantity here is exact up to floating point:

* ``log_partition`` integrates the exponentially tilted mixture in closed
  form (each Gaussian contributes its moment-generating function).
* ``conditional_plan`` gives the endpoint law given a source point as a
  reweighted, shifted mixture with unchanged per-component variances.
* ``drift_batch`` is (posterior mean - x)/(1-t) over the time-t posterior
  of the terminal point, with the (1-t) divided out by hand:
  sum_c w_c ((sigma_c - eps)*x + eps*mu_c)/v_c, v_c = t*sigma_c + eps*(1-t).
  It builds only (B, C) and (C, D) arrays and cancels nothing as t -> 1.

Brute-force checks live alongside: log-space trapezoid quadrature for the
partition and potential integrals (dimension 1 and 2 only) and a log-domain
Sinkhorn solver for the discrete coupling.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .configio import check_int
from .errors import DomainError, NumericError, UnsupportedError, ValidationError
from .prototypes import _LOG_2PI, MGP, logsumexp, mgp_log_density, softmax


def _as_point(mgp: MGP, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != mgp.dim:
        raise ValidationError(f"point must have shape ({mgp.dim},), got {x.shape}")
    return mgp.points(x[None, :])[0]


def log_partition(mgp: MGP, x: np.ndarray) -> float:
    """log of the tilted-mixture normalizer at source point x: the
    logsumexp of ``MGP.tilted_logits`` there.  A weight that underflowed to
    0 has log weight -inf, the right value, so its divide warning is
    silenced."""
    with np.errstate(divide="ignore"):
        return float(logsumexp(mgp.tilted_logits(_as_point(mgp, x)[None])[0]))


@dataclass(frozen=True)
class CondGMM:
    """A conditional endpoint law: Gaussian mixture with diagonal variances."""

    weights: np.ndarray    # (C,) on the simplex
    means: np.ndarray      # (C, D)
    variances: np.ndarray  # (C, D) positive
    x: np.ndarray          # (D,) the conditioning point

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log density (N,) at a batch of points (N, D); see ``mgp_log_density``.
        ε plays no part in a density."""
        return mgp_log_density(MGP(self.weights, self.means, self.variances, epsilon=1.0), points)

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


def plan_weights(mgp: MGP, xs: np.ndarray) -> np.ndarray:
    """Conditional-plan weights (B, C) at source points xs (B, D) checked by ``MGP.points``.

    Row b is the ``softmax`` of the tilted logits at xs[b].
    """
    return softmax(mgp.tilted_logits(xs), axis=1)[0]


def plan_endpoints(mgp: MGP, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Means (B, D) of the conditional plans with ``weights`` (B, C) at ``xs`` (B, D).

    By linearity sum_c w_c (mu_c + sigma_c * x / eps) is
    (w @ mu) + (w @ sigma) * x / eps, so the (B, C, D) component means are
    never formed.
    """
    return weights @ mgp.mu + (weights @ mgp.sigma) * (xs / mgp.epsilon)


def conditional_plan(mgp: MGP, x: np.ndarray) -> CondGMM:
    """Endpoint distribution of the coupling given source point x.

    The weights are the normalized tilted masses (``plan_weights``);
    component c shifts its mean to mu_c + sigma_c * x / eps and keeps
    variance sigma_c.  A weight that underflowed to 0 has log weight -inf
    and plan weight 0, the right values, so its divide warning is silenced.
    """
    x = _as_point(mgp, x)
    with np.errstate(divide="ignore"):
        weights = plan_weights(mgp, x[None, :])[0]
    return CondGMM(weights=weights,
                   means=mgp.mu + mgp.sigma * (x / mgp.epsilon)[None, :],
                   variances=mgp.sigma.copy(), x=x)


def sample_endpoint(cond: CondGMM, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw an endpoint from the conditional plan.

    Without a generator this is the deterministic posterior mean (the
    weight-averaged component mean); with one it samples a component and
    then a Gaussian draw.
    """
    if rng is None:
        return cond.mean()
    c = int(rng.choice(cond.weights.shape[0], p=cond.weights))
    return cond.means[c] + np.sqrt(cond.variances[c]) * rng.standard_normal(cond.means.shape[1])


def posterior_mode_indices(mgp: MGP, psis: np.ndarray) -> np.ndarray:
    """Per row of psis (B, D), checked by ``MGP.points``, the index of the component densest there.

    Minimizes sum_d (psi - mu)^2 / sigma + log sigma (``MGP.sq_distances``
    plus the log-determinant), so only (B, C) arrays are built.  Mixture
    weights are deliberately ignored; ties resolve to the lowest index.
    """
    energy = mgp.sq_distances(psis)
    energy += mgp.sum_log_sigma
    return np.argmin(energy, axis=1)


def posterior_mode_index(mgp: MGP, psi: np.ndarray) -> int:
    """posterior_mode_indices at a single point."""
    return int(posterior_mode_indices(mgp, _as_point(mgp, psi)[None, :])[0])


def _time_posterior(mgp: MGP, xs: np.ndarray, t: float):
    """Component weights w (B, C) of the terminal point given states xs (B, D)
    at time t in [0, 1), and v = t*sigma + tau (C, D) with tau = eps*(1-t).

    Given component c the terminal point has mean (sigma_c/v_c)*x + tau*mu_c/v_c
    and variance tau*sigma_c/v_c.  The logits log alpha - sum log v / 2
    + x.(mu/v) - t sum mu^2/v / 2 + x^2.(sigma/(tau v)) / 2 are (B, D) @ (D, C)
    products; at t = 0 they are ``MGP.tilted_logits`` up to a constant.
    A weight that underflowed to 0 has log weight -inf, the right value, so
    its divide warning is silenced.
    """
    tau = mgp.epsilon * (1.0 - t)
    v = t * mgp.sigma + tau
    mu_over_v = mgp.mu / v
    with np.errstate(divide="ignore"):
        log_alpha = np.log(mgp.alpha)
    logits = (log_alpha
              - 0.5 * np.sum(np.log(v), axis=1)
              - (0.5 * t) * np.sum(mgp.mu * mu_over_v, axis=1)
              + xs @ mu_over_v.T
              + 0.5 * ((xs * xs) @ (mgp.sigma / (tau * v)).T))
    return softmax(logits, axis=1)[0], v


def _check_time(t: float) -> float:
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0.0 <= t < np.inf:
        raise ValidationError(f"time must be a real number in [0, 1), got {t!r}")
    if t >= 1.0:
        raise DomainError(f"drift is undefined at t >= 1, got t={t}")
    return float(t)


def drift_batch(mgp: MGP, xs: np.ndarray, t: float) -> np.ndarray:
    """Optimal drift evaluated at a batch of states xs with shape (B, D).

    (posterior mean - x)/(1-t) with the (1-t) divided out:
    (w @ ((sigma - eps)/v)) * x + eps * (w @ (mu/v)); see ``_time_posterior``.
    """
    t = _check_time(t)
    xs = mgp.points(xs)
    w, v = _time_posterior(mgp, xs, t)
    return (w @ ((mgp.sigma - mgp.epsilon) / v)) * xs + mgp.epsilon * (w @ (mgp.mu / v))


def terminal_plan(mgp: MGP, x: np.ndarray, t: float) -> CondGMM:
    """Law of the terminal point given state x at time t.

    At t=0 this coincides with conditional_plan; for t > 0 the component
    variances shrink toward zero like eps*(1-t)/t per unit prior variance.
    """
    x = _as_point(mgp, x)
    t = _check_time(t)
    tau = mgp.epsilon * (1.0 - t)
    w, v = _time_posterior(mgp, x[None, :], t)
    r = mgp.sigma / v
    return CondGMM(weights=w[0], means=r * x + tau * (mgp.mu / v), variances=tau * r, x=x)


@dataclass(frozen=True)
class Trajectory:
    """Simulated paths: times (n+1,), states (n+1, B, D)."""

    times: np.ndarray
    states: np.ndarray


def simulate_sde_batch(mgp: MGP, x0: np.ndarray, n_steps: int,
                       rng: np.random.Generator) -> Trajectory:
    """Euler-Maruyama over [0, t_{n-1}] plus an exact final transition.

    The last step draws the terminal point from the conditional law of the
    endpoint given the penultimate state, so discretization bias enters
    only through the Euler stretch.  With n_steps=1 the draw is exact.
    """
    check_int("n_steps", n_steps, 1)
    x0 = mgp.points(x0)
    batch, dim = x0.shape
    dt = 1.0 / n_steps
    times = np.arange(n_steps + 1) / n_steps
    states = np.empty((n_steps + 1, batch, dim))
    states[0] = x0
    # Noise is drawn into the next state's slot: a step holds the drift and one (B, D) temporary.
    for k in range(n_steps - 1):
        x = states[k]
        step = rng.standard_normal(out=states[k + 1])
        step *= np.sqrt(mgp.epsilon * dt)
        step += x + drift_batch(mgp, x, k * dt) * dt
    x = states[n_steps - 1]
    t = (n_steps - 1) * dt
    tau = mgp.epsilon * (1.0 - t)
    w, v = _time_posterior(mgp, x, t)
    # A categorical draw per row, then a Gaussian draw from the chosen component's (B, D) rows.
    cum = np.cumsum(w, axis=1)
    u = rng.random(batch)
    idx = np.minimum((cum < u[:, None]).sum(axis=1), w.shape[1] - 1)
    r, m = mgp.sigma / v, mgp.mu / v
    terminal = rng.standard_normal(out=states[n_steps])
    terminal *= np.sqrt(tau * r[idx])
    terminal += r[idx] * x + tau * m[idx]
    return Trajectory(times=times, states=states)


# ---------------------------------------------------------------------------
# Brute-force oracles.


# Points per 2-D quadrature pass: the integrand's (points, C) arrays then
# stay in the tens of megabytes at the default grid.
_QUADRATURE_CHUNK = 2 ** 20


def _axis_ranges(centers: list[np.ndarray], spreads: list[np.ndarray],
                 dim: int, padding: float) -> list[tuple[float, float]]:
    ranges = []
    for j in range(dim):
        lo = min(float(np.min(c[..., j] - padding * s[..., j])) for c, s in zip(centers, spreads))
        hi = max(float(np.max(c[..., j] + padding * s[..., j])) for c, s in zip(centers, spreads))
        ranges.append((lo, hi))
    return ranges


def _axis_nodes(lo: float, hi: float, min_width: float, n_nodes: int) -> np.ndarray:
    # Resolve the narrowest Gaussian with ~8 nodes per standard deviation.
    needed = int(np.ceil((hi - lo) / (min_width / 8.0))) + 1
    count = max(n_nodes, needed)
    if count > 4_000_000:
        raise NumericError(f"quadrature grid would need {count} nodes; integrand too stiff")
    return np.linspace(lo, hi, count)


def _trapezoid_log_weights(grid: np.ndarray) -> np.ndarray:
    step = grid[1] - grid[0]
    w = np.full(grid.shape[0], step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.log(w)


def quadrature_oracle_log_partition(mgp: MGP, x: np.ndarray,
                                    n_nodes: int = 4096, padding: float = 12.0) -> float:
    """Trapezoid estimate of log_partition for dimension 1 or 2.

    The grid covers both the prototype means and the tilted means
    mu_c + sigma_c*x/eps, each padded by ``padding`` standard deviations;
    for small eps the tilted mass sits far from the prototypes and a grid
    around the prototypes alone would miss it entirely.
    """
    x = _as_point(mgp, x)
    if mgp.dim > 2:
        raise UnsupportedError(f"quadrature oracle supports dimension <= 2, got {mgp.dim}")
    root_sigma = np.sqrt(mgp.sigma)
    tilted = mgp.mu + mgp.sigma * (x / mgp.epsilon)[None, :]
    ranges = _axis_ranges([mgp.mu, tilted], [root_sigma, root_sigma], mgp.dim, padding)
    min_width = float(np.min(root_sigma))

    def log_integrand(points: np.ndarray) -> np.ndarray:
        return (points @ x) / mgp.epsilon + mgp_log_density(mgp, points)

    return _log_integral(log_integrand, ranges, min_width, n_nodes)


def quadrature_oracle_log_bridge_potential(mgp: MGP, x: np.ndarray, t: float,
                                           n_nodes: int = 4096, padding: float = 12.0) -> float:
    """Trapezoid estimate of log E_{y ~ N(x, eps(1-t)I)}[exp(|y|^2/(2 eps)) phi(y)].

    The drift equals eps times the spatial gradient of this quantity, which
    is what the finite-difference cross-check differentiates.
    """
    x = _as_point(mgp, x)
    t = _check_time(t)
    if mgp.dim > 2:
        raise UnsupportedError(f"quadrature oracle supports dimension <= 2, got {mgp.dim}")
    tau = mgp.epsilon * (1.0 - t)
    plan = terminal_plan(mgp, x, t)
    root_sigma, root_post = np.sqrt(mgp.sigma), np.sqrt(plan.variances)
    centers = [mgp.mu, plan.means, x[None, :]]
    spreads = [root_sigma, root_post, np.full((1, mgp.dim), np.sqrt(tau))]
    ranges = _axis_ranges(centers, spreads, mgp.dim, padding)
    min_width = min(float(np.min(root_post)), float(np.min(root_sigma)), float(np.sqrt(tau)))

    def log_integrand(points: np.ndarray) -> np.ndarray:
        diff = points - x[None, :]
        log_kernel = -0.5 * np.sum(diff * diff, axis=1) / tau - 0.5 * mgp.dim * (_LOG_2PI + np.log(tau))
        return log_kernel + 0.5 * np.sum(points * points, axis=1) / mgp.epsilon + mgp_log_density(mgp, points)

    return _log_integral(log_integrand, ranges, min_width, n_nodes)


def _log_integral(log_integrand, ranges, min_width: float, n_nodes: int) -> float:
    grids = [_axis_nodes(lo, hi, min_width, n_nodes) for lo, hi in ranges]
    log_w = [_trapezoid_log_weights(g) for g in grids]
    if len(grids) == 1:
        vals = log_integrand(grids[0][:, None]) + log_w[0]
        return float(logsumexp(vals))
    chunk_totals = []
    chunk = max(1, _QUADRATURE_CHUNK // grids[1].shape[0])
    for start in range(0, grids[0].shape[0], chunk):
        rows = grids[0][start:start + chunk]
        yy, xx = np.meshgrid(grids[1], rows)
        pts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
        vals = log_integrand(pts).reshape(rows.shape[0], grids[1].shape[0])
        vals = vals + log_w[0][start:start + chunk][:, None] + log_w[1][None, :]
        chunk_totals.append(logsumexp(vals))
    return float(logsumexp(np.array(chunk_totals)))


@dataclass(frozen=True)
class SinkhornResult:
    """Discrete coupling from the iterative scaling solver.

    ``marginal_residual`` is the max-norm violation of the two marginal
    constraints at exit; iteration stops at ``tol`` or after ``n_iters``
    rounds, whichever comes first, and never raises on slow convergence.
    """

    plan: np.ndarray
    marginal_residual: float
    iterations: int


def sinkhorn_eot_oracle(source: np.ndarray, target: np.ndarray, epsilon: float,
                        n_iters: int = 5000, tol: float = 1e-12) -> SinkhornResult:
    """Log-domain Sinkhorn for the entropic coupling of two uniform clouds.

    Cost is half squared Euclidean distance, matching the Brownian
    reference up to constants, so for large samples the row conditionals
    of the returned plan approximate the model's conditional plan.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or target.ndim != 2 or source.shape[1] != target.shape[1]:
        raise ValidationError(f"point clouds must share dimension, got {source.shape} and {target.shape}")
    if source.shape[0] < 1 or target.shape[0] < 1:
        raise ValidationError("point clouds must be nonempty")
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    n, m = source.shape[0], target.shape[0]
    cost = 0.5 * (
        np.sum(source * source, axis=1)[:, None]
        - 2.0 * source @ target.T
        + np.sum(target * target, axis=1)[None, :]
    )
    log_kernel = -cost / epsilon
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    u = np.zeros(n)
    v = np.zeros(m)

    def coupling():
        plan = np.exp(u[:, None] + log_kernel + v[None, :])
        return plan, max(float(np.abs(plan.sum(axis=1) - np.exp(log_a)).max()),
                         float(np.abs(plan.sum(axis=0) - np.exp(log_b)).max()))

    done = 0
    for it in range(1, n_iters + 1):
        u = log_a - logsumexp(log_kernel + v[None, :], axis=1)
        v = log_b - logsumexp(log_kernel + u[:, None], axis=0)
        done = it
        if (it % 10 == 0 or it == n_iters) and coupling()[1] < tol:
            break
    plan, residual = coupling()
    return SinkhornResult(plan=plan, marginal_residual=residual, iterations=done)
