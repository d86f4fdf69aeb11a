"""Self-test of the benchmark's reference helpers on tiny hand-made inputs.

Every benchmark run calls ``run()`` before it measures anything; it takes
well under a second.  Standalone: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import math

import numpy as np

from reference import closed_form_endpoint, on_simplex, pairwise_auc, same_bits


def _close(x, y, tol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) <= tol))


def run() -> None:
    """Raise RuntimeError naming every helper check that fails."""
    checks = []
    # Anomalies {0.35, 0.8} against normals {0.1, 0.4}: 3 of the 4 pairs ordered.
    checks.append(("auc hand count", pairwise_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75))
    checks.append(("auc tie counts half", pairwise_auc([1.0, 1.0], [0, 1]) == 0.5))
    checks.append(("auc perfect", pairwise_auc([0.0, 0.1, 2.0, 3.0], [0, 0, 1, 1]) == 1.0))
    checks.append(("auc reversed", pairwise_auc([2.0, 3.0, 0.0, 0.1], [0, 0, 1, 1]) == 0.0))
    # 300 anomalies cross the 256-row block boundary; every pair ties.
    checks.append(("auc blocks", pairwise_auc(np.zeros(400), [1] * 300 + [0] * 100) == 0.5))

    # Two unit-variance components at 0 and 1 in one dimension, eps = 1, x = 1:
    # log weights are log(1/2) + mu_c + 1/2, so w = (1, e) / (1 + e); the
    # shifted means are mu_c + 1.
    e = math.e
    w, means, end = closed_form_endpoint([0.0, 0.0], [[0.0], [1.0]], [[0.0], [0.0]], 1.0, [1.0])
    checks.append(("plan weights", _close(w, [1 / (1 + e), e / (1 + e)])))
    checks.append(("plan means", _close(means, [[1.0], [2.0]])))
    checks.append(("plan endpoint", _close(end, [(1 + 2 * e) / (1 + e)])))
    # Softmax logits are shift invariant; variance exp(s) scales the tilt.
    w2, _, _ = closed_form_endpoint([100.0, 100.0], [[0.0], [1.0]], [[0.0], [0.0]], 1.0, [1.0])
    checks.append(("plan logit shift", _close(w, w2)))
    w3, means3, _ = closed_form_endpoint([0.0], [[2.0, -1.0]], [[math.log(4.0), 0.0]], 0.5, [1.0, 3.0])
    checks.append(("plan one component", _close(w3, [1.0]) and _close(means3, [[2.0 + 8.0, -1.0 + 6.0]])))

    checks.append(("simplex yes", on_simplex([0.25, 0.75])))
    checks.append(("simplex negative", not on_simplex([1.5, -0.5])))
    checks.append(("simplex sum", not on_simplex([0.5, 0.4])))
    checks.append(("bits signed zero", not same_bits(np.array([0.0]), np.array([-0.0]))))
    checks.append(("bits dtype", not same_bits(np.zeros(2, np.float32), np.zeros(2, np.float64))))

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise RuntimeError(f"reference helper self-test failed: {', '.join(failed)}")


if __name__ == "__main__":
    run()
    print("reference helper self-test passed")
