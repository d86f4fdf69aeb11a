"""Self-contained oracle suite for the bridge closed forms.

Every closed-form quantity gets an independent brute-force counterpart:
log-space trapezoid quadrature for the partition and potential integrals,
finite differences for the drift, Monte Carlo for terminal moments, and a
log-domain Sinkhorn solve for the discrete coupling.  ``dpdl verify
bridge`` runs the whole battery and reports one PASS/FAIL line per check.

The checks are deterministic: instance parameters come from generators
with fixed seeds, and each check's sizes are constants in its body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import (CondGMM, conditional_plan, drift_batch, log_partition,
                     quadrature_oracle_log_bridge_potential,
                     quadrature_oracle_log_partition, sample_endpoint,
                     simulate_sde_batch, sinkhorn_eot_oracle, terminal_plan)
from .errors import DomainError
from .prototypes import MGP, mgp_log_density


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log(sum(exp(a))) along ``axis``, kept apart from the
    package's own ``logsumexp`` so the oracles share none of its code."""
    a_max = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(np.log(np.sum(np.exp(a - a_max), axis=axis, keepdims=True)) + a_max, axis=axis)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_mgp(rng: np.random.Generator, n_components: int, dim: int, epsilon: float) -> MGP:
    logits = rng.normal(0.0, 1.0, n_components)
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    mu = rng.normal(0.0, 1.5, (n_components, dim))
    sigma = np.exp(rng.uniform(-1.0, 0.5, (n_components, dim)))
    return MGP(alpha=weights, mu=mu, sigma=sigma, epsilon=epsilon)


def check_log_partition() -> CheckResult:
    """Closed-form tilted normalizer against quadrature over mixtures and scales."""
    n_instances = 50
    rng = np.random.default_rng(101)
    component_grid = (1, 2, 4)
    epsilon_grid = (0.001, 0.01, 1.0)
    worst = 0.0
    for i in range(n_instances):
        mgp = _random_mgp(rng, component_grid[i % 3], 1, epsilon_grid[(i // 3) % 3])
        x = rng.uniform(-2.0, 2.0, 1)
        closed = log_partition(mgp, x)
        brute = quadrature_oracle_log_partition(mgp, x)
        rel = abs(closed - brute) / max(abs(brute), 1e-9)
        worst = max(worst, rel)
    passed = worst < 1e-6
    return CheckResult("log_partition vs quadrature",
                       passed, f"max rel err {worst:.3e} over {n_instances} instances (tol 1e-6)")


def check_conditional_identity() -> CheckResult:
    """Conditional-plan density equals the grid-normalized tilted density."""
    n_instances = 20
    rng = np.random.default_rng(202)
    epsilon_grid = (0.5, 1.0, 2.0)
    worst = 0.0
    for i in range(n_instances):
        mgp = _random_mgp(rng, 1 + i % 3, 1, epsilon_grid[i % 3])
        x = rng.uniform(-2.0, 2.0, 1)
        cond = conditional_plan(mgp, x)
        lo = float(np.min(cond.means - 12.0 * np.sqrt(cond.variances)))
        hi = float(np.max(cond.means + 12.0 * np.sqrt(cond.variances)))
        grid = np.linspace(lo, hi, 8192)
        step = grid[1] - grid[0]
        trap = np.full(grid.shape[0], step)
        trap[0] *= 0.5
        trap[-1] *= 0.5
        tilted = grid * x[0] / mgp.epsilon + mgp_log_density(mgp, grid[:, None])
        shift = tilted.max()
        normalizer = float(np.sum(np.exp(tilted - shift) * trap))
        brute = np.exp(tilted - shift) / normalizer
        model = np.exp(cond.log_density(grid[:, None]))
        worst = max(worst, float(np.max(np.abs(model - brute))))
    passed = worst < 1e-8
    return CheckResult("conditional plan density identity",
                       passed, f"max abs err {worst:.3e} over {n_instances} instances (tol 1e-8)")


def check_drift() -> CheckResult:
    """Drift against eps times finite differences of the potential quadrature."""
    n_instances = 10
    rng = np.random.default_rng(303)
    epsilon_grid = (0.01, 0.1, 1.0)
    times = (0.0, 0.25, 0.5, 0.9)
    worst = 0.0
    for i in range(n_instances):
        mgp = _random_mgp(rng, 1 + i % 3, 1, epsilon_grid[i % 3])
        for t in times:
            x = None
            g = 0.0
            for _ in range(100):
                x = rng.uniform(-2.5, 2.5, 1)
                g = float(drift_batch(mgp, x[None], t)[0, 0])
                if abs(g) >= 0.05:
                    break
            h = 1e-5 * max(1.0, abs(float(x[0])))
            up = quadrature_oracle_log_bridge_potential(mgp, x + h, t)
            down = quadrature_oracle_log_bridge_potential(mgp, x - h, t)
            brute = mgp.epsilon * (up - down) / (2.0 * h)
            rel = abs(g - brute) / max(abs(brute), 1e-6)
            worst = max(worst, rel)
    passed = worst < 1e-5
    return CheckResult("drift vs finite-differenced quadrature",
                       passed, f"max rel err {worst:.3e} over {n_instances}x{len(times)} points (tol 1e-5)")


def _terminal_reference(mgp: MGP, x0: np.ndarray):
    cond = conditional_plan(mgp, x0)
    mean = float(cond.weights @ cond.means[:, 0])
    second = float(cond.weights @ (cond.variances[:, 0] + cond.means[:, 0] ** 2))
    var = second - mean ** 2
    # Central fourth moment of the mixture, for the variance standard error.
    delta = cond.means[:, 0] - mean
    m4 = float(cond.weights @ (delta ** 4 + 6.0 * delta ** 2 * cond.variances[:, 0]
                               + 3.0 * cond.variances[:, 0] ** 2))
    return mean, var, m4


def check_sde_terminal_moments() -> CheckResult:
    """Simulated terminal mean/variance against conditional-plan moments."""
    n_paths = 10_000
    mgp = MGP(alpha=np.array([0.35, 0.65]),
              mu=np.array([[-1.4], [1.9]]),
              sigma=np.array([[0.45], [0.85]]),
              epsilon=0.5)
    x0 = np.array([0.3])
    mean, var, m4 = _terminal_reference(mgp, x0)
    rng = np.random.default_rng(404)
    traj = simulate_sde_batch(mgp, np.tile(x0, (n_paths, 1)), 256, rng)
    terminal = traj.states[-1, :, 0]
    se_mean = np.sqrt(var / n_paths)
    se_var = np.sqrt(max(m4 - var ** 2, 0.0) / n_paths)
    dev_mean = abs(float(terminal.mean()) - mean)
    dev_var = abs(float(terminal.var()) - var)
    passed = dev_mean <= 3.0 * se_mean and dev_var <= 3.0 * se_var
    return CheckResult(
        "sde terminal moments",
        passed,
        f"mean dev {dev_mean:.4f} (3se {3 * se_mean:.4f}), var dev {dev_var:.4f} (3se {3 * se_var:.4f})")


def check_sinkhorn_consistency() -> CheckResult:
    """Sinkhorn row conditionals against the model plan on a sampled cloud.

    Targets are drawn from the mixture of the per-source conditional plans,
    so the importance-corrected conditionals q_ij, which are proportional
    to pi(y_j | x_i) / mean_i pi(y_j | x_i), factor exactly like the
    entropic coupling and are its large-sample limit.
    """
    n_targets = 2000
    rng = np.random.default_rng(505)
    epsilon = 0.5
    mgp = MGP(alpha=np.array([0.4, 0.6]),
              mu=np.array([[-1.0], [1.2]]),
              sigma=np.array([[0.5], [0.7]]),
              epsilon=epsilon)
    sources = np.linspace(-1.0, 1.0, 5)[:, None]
    conds = [conditional_plan(mgp, s) for s in sources]
    picks = rng.integers(0, sources.shape[0], n_targets)
    targets = np.stack([sample_endpoint(conds[int(i)], rng) for i in picks])
    log_cond = np.stack([c.log_density(targets) for c in conds])      # (n, m)
    log_marginal = _logsumexp(log_cond, axis=0) - np.log(sources.shape[0])
    log_q = log_cond - log_marginal[None, :]
    log_q -= _logsumexp(log_q, axis=1)[:, None]
    result = sinkhorn_eot_oracle(sources, targets, epsilon, n_iters=4000, tol=1e-11)
    rows = result.plan / result.plan.sum(axis=1, keepdims=True)
    tv = 0.5 * np.abs(rows - np.exp(log_q)).sum(axis=1)
    worst = float(tv.max())
    passed = worst < 0.05
    return CheckResult(
        "sinkhorn plan consistency",
        passed,
        f"max row TV {worst:.4f} over {sources.shape[0]} sources, {n_targets} targets "
        f"(tol 0.05, residual {result.marginal_residual:.2e})")


def check_time_degeneracy() -> CheckResult:
    """Near t=1 the drift scales like 1/(1-t) and t>=1 is rejected."""
    mgp = MGP(alpha=np.array([1.0]), mu=np.array([[2.0]]),
              sigma=np.array([[1e-8]]), epsilon=1.0)
    x = np.array([0.0])
    worst = 0.0
    for t in (0.9, 0.99, 0.999):
        g = float(drift_batch(mgp, x[None], t)[0, 0])
        worst = max(worst, abs(g * (1.0 - t) - 2.0) / 2.0)
    try:
        drift_batch(mgp, x[None], 1.0)
        rejected = False
    except DomainError:
        rejected = True
    passed = worst < 1e-3 and rejected
    return CheckResult("time degeneracy",
                       passed, f"max |(1-t) g - (mu - x)| / |mu - x| = {worst:.2e}; t=1 rejected: {rejected}")


def check_small_epsilon_terminal() -> CheckResult:
    """Vanishing diffusion with one tight component pins the endpoint to its mean."""
    mgp = MGP(alpha=np.array([1.0]), mu=np.array([[-0.4]]),
              sigma=np.array([[1e-12]]), epsilon=1e-4)
    rng = np.random.default_rng(606)
    traj = simulate_sde_batch(mgp, np.full((64, 1), 0.7), 32, rng)
    dev = float(np.max(np.abs(traj.states[-1, :, 0] + 0.4)))
    passed = dev < 1e-3
    return CheckResult("small-epsilon terminal pinning",
                       passed, f"max |terminal - mu| = {dev:.2e} over 64 paths (tol 1e-3)")


def check_plan_time_zero() -> CheckResult:
    """The remaining-time plan at t=0 is the conditional plan itself."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(5):
        mgp = _random_mgp(rng, 3, 2, 0.7)
        x = rng.normal(0.0, 1.0, 2)
        a: CondGMM = conditional_plan(mgp, x)
        b: CondGMM = terminal_plan(mgp, x, 0.0)
        worst = max(worst,
                    float(np.max(np.abs(a.weights - b.weights))),
                    float(np.max(np.abs(a.means - b.means))),
                    float(np.max(np.abs(a.variances - b.variances))))
    passed = worst < 1e-9
    return CheckResult("terminal plan at t=0", passed, f"max abs gap {worst:.3e} (tol 1e-9)")


BRIDGE_CHECKS = (
    check_log_partition,
    check_conditional_identity,
    check_drift,
    check_sde_terminal_moments,
    check_sinkhorn_consistency,
    check_time_degeneracy,
    check_small_epsilon_terminal,
    check_plan_time_zero,
)


def run_bridge_suite(stream=None) -> bool:
    """Run every bridge check, print one line each, return overall success."""
    ok = True
    for fn in BRIDGE_CHECKS:
        result = fn()
        ok = ok and result.passed
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}", file=stream)
    return ok
