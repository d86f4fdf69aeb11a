import tracemalloc

import numpy as np
import pytest

from dpdl.prototypes import MGP, MGPParams


def assert_close(got, want, rtol=1e-12):
    """Equal up to rtol times the largest magnitude involved."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), float(np.max(np.abs(got))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def random_params(rng, n_components, dim, epsilon=1.0):
    """Random unconstrained prototype parameters for gradient checks."""
    return MGPParams(
        a=rng.normal(0.0, 0.7, n_components),
        m=rng.normal(0.0, 1.2, (n_components, dim)),
        s=rng.uniform(-1.0, 0.6, (n_components, dim)),
        epsilon=epsilon,
    )


def random_mgp(rng, n_components, dim, epsilon=1.0):
    logits = rng.normal(0.0, 1.0, n_components)
    w = np.exp(logits - logits.max())
    return MGP(
        alpha=w / w.sum(),
        mu=rng.normal(0.0, 1.5, (n_components, dim)),
        sigma=np.exp(rng.uniform(-1.0, 0.5, (n_components, dim))),
        epsilon=epsilon,
    )


def central_diff(f, x, h):
    """Scalar central finite difference of f at x."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_check_array(value_fn, grad, arr, h=1e-6, rtol=1e-5, atol=1e-8):
    """Compare an analytic gradient array against central differences.

    ``value_fn`` re-evaluates the scalar loss after ``arr`` is mutated in
    place; the caller passes the same array object that the loss reads.
    Returns the worst absolute deviation scaled by the gradient magnitude.
    """
    worst = 0.0
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        up = value_fn()
        arr[idx] = keep - h
        down = value_fn()
        arr[idx] = keep
        fd = (up - down) / (2.0 * h)
        err = abs(grad[idx] - fd)
        tol = atol + rtol * max(abs(fd), abs(grad[idx]))
        worst = max(worst, err - tol)
        assert err <= tol, f"index {idx}: analytic {grad[idx]:.10g} vs fd {fd:.10g}"
        it.iternext()
    return worst


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# One line per acceptance criterion, echoed after the run so the verdicts
# survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
