import numpy as np
import pytest

from conftest import assert_close, fd_check_array, random_params, traced_peak
from dpdl.errors import DegenerateInputError, ValidationError
from dpdl.losses import loss_dfl, loss_dpl, loss_dpl_anomaly, loss_dpl_normal, unitize
from dpdl.prototypes import MGPParams, mgp_realize, softmax
from dpdl.scoring import _residuals, residual_grid


class TestDPLSpotValues:
    def test_standard_normal_at_origin(self):
        # One standard-normal prototype, eps = 1, batch = {0}: the partition
        # term vanishes and the self-likelihood term is -log N(0; 0, 1),
        # so the loss is half of log(2 pi).
        params = MGPParams(a=np.zeros(1), m=np.zeros((1, 1)), s=np.zeros((1, 1)), epsilon=1.0)
        batch = np.zeros((1, 1))
        out = loss_dpl_normal(params, batch)
        assert abs(out.value - 0.5 * np.log(2 * np.pi)) < 1e-12
        assert abs(out.value - 0.9189385332046727) < 1e-12

    def test_anomaly_is_exact_negation(self, rng):
        params = random_params(rng, 3, 2, epsilon=0.7)
        batch = rng.normal(size=(5, 2))
        n = loss_dpl_normal(params, batch)
        a = loss_dpl_anomaly(params, batch)
        assert n.value + a.value == 0.0
        assert np.array_equal(n.grad_a, -a.grad_a)
        assert np.array_equal(n.grad_m, -a.grad_m)
        assert np.array_equal(n.grad_s, -a.grad_s)

    def test_weight_gradient_sums_to_zero(self, rng):
        # Both terms differentiate through a softmax, so the logit gradient
        # lives on the simplex tangent.
        params = random_params(rng, 4, 3, epsilon=0.9)
        batch = rng.normal(size=(6, 3))
        out = loss_dpl_normal(params, batch)
        assert abs(out.grad_a.sum()) < 1e-12

    def test_batch_validation(self, rng):
        params = random_params(rng, 2, 3)
        with pytest.raises(ValidationError):
            loss_dpl_normal(params, np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            loss_dpl_normal(params, np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            loss_dpl_normal(params, np.full((1, 3), np.inf))


class TestDPLGradients:
    @pytest.mark.parametrize("loss_fn", [loss_dpl_normal, loss_dpl_anomaly])
    def test_against_finite_differences(self, loss_fn):
        rng = np.random.default_rng(77)
        for trial in range(8):
            c = 1 + trial % 3
            d = 1 + trial % 2
            eps = (0.4, 1.0, 2.0)[trial % 3]
            params = random_params(rng, c, d, epsilon=eps)
            batch = rng.normal(0.0, 1.0, (1 + trial % 4, d))
            out = loss_fn(params, batch)
            fd_check_array(lambda: loss_fn(params, batch).value, out.grad_a,
                           params.a, h=1e-6, rtol=1e-5, atol=1e-9)
            fd_check_array(lambda: loss_fn(params, batch).value, out.grad_m,
                           params.m, h=1e-6, rtol=1e-5, atol=1e-9)
            fd_check_array(lambda: loss_fn(params, batch).value, out.grad_s,
                           params.s, h=1e-6, rtol=1e-5, atol=1e-9)

    def test_small_epsilon_gradients_still_match(self):
        # The partition term scales like 1/eps^2; make sure nothing breaks
        # at a realistic small bridge scale.
        rng = np.random.default_rng(3)
        params = random_params(rng, 2, 1, epsilon=0.05)
        batch = rng.normal(0.0, 0.05, (3, 1))
        out = loss_dpl_normal(params, batch)
        fd_check_array(lambda: loss_dpl_normal(params, batch).value, out.grad_s,
                       params.s, h=1e-7, rtol=1e-4, atol=1e-8)


class TestFusedDPL:
    # The stacked rows' tilted logits come from one product over all of
    # them, where each public loss takes one over its own rows, and BLAS may
    # round a product differently with its row count; the gradients also sum
    # the two sides in one product.  So they agree to rounding: up to 2.7e-16
    # of each array's largest magnitude was seen, and 1e-12 is the bound.  The
    # logit gradient's terms are weights of at most 1, so its rounding is
    # relative to 1: with one component both sides' exact zeros stack to
    # 1 - 3 * (1/3) = 1.1e-16.
    @pytest.mark.parametrize("trial", range(6))
    def test_equals_sum_of_public_losses(self, trial):
        rng = np.random.default_rng(100 + trial)
        c, d = (1, 3, 8, 32, 5, 16)[trial], (1, 4, 17, 64, 200, 9)[trial]
        params = random_params(rng, c, d, epsilon=(0.3, 1.0, 2.0)[trial % 3])
        normal = rng.normal(size=(4, d))
        anomaly = rng.normal(0.5, 1.0, (3, d))
        step = loss_dpl(mgp_realize(params), np.concatenate([normal, anomaly]), 4)
        n = loss_dpl_normal(params, normal)
        a = loss_dpl_anomaly(params, anomaly)
        assert_close(step.normal, n.value)
        assert_close(step.anomaly, a.value)
        for name in ("grad_a", "grad_m", "grad_s"):
            got, want = getattr(step, name), getattr(n, name) + getattr(a, name)
            scale = max(np.max(np.abs(got)), np.max(np.abs(want)), 1.0 if name == "grad_a" else 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_without_anomalies_is_the_normal_loss(self, rng):
        params = random_params(rng, 6, 11, epsilon=0.8)
        normal = rng.normal(size=(5, 11))
        step = loss_dpl(mgp_realize(params), normal, 5)
        n = loss_dpl_normal(params, normal)
        assert step.normal == n.value
        assert step.anomaly == 0.0
        for name in ("grad_a", "grad_m", "grad_s"):
            assert_close(getattr(step, name), getattr(n, name))

    def test_validates_both_batches(self, rng):
        mgp = mgp_realize(random_params(rng, 2, 3))
        with pytest.raises(ValidationError):
            loss_dpl(mgp, np.zeros((0, 3)), 0)
        with pytest.raises(ValidationError):
            loss_dpl(mgp, np.zeros((2, 4)), 1)
        for n_normal in (-1, 3, 1.0):
            with pytest.raises(ValidationError, match="n_normal"):
                loss_dpl(mgp, np.zeros((2, 3)), n_normal)
        plan = softmax(mgp.tilted_logits(np.zeros((3, 3))), axis=1)
        with pytest.raises(ValidationError, match="plan"):
            loss_dpl(mgp, np.zeros((2, 3)), 1, plan)

    @pytest.mark.parametrize("n_normal", [0, 2, 4])
    def test_a_weight_that_underflowed_to_zero(self, rng, n_normal):
        # The log weight of alpha = 0 is -inf, the right value; under a
        # training step's error state it was "divide by zero encountered in log".
        params = MGPParams(a=np.array([0.0, -800.0, 0.3]), m=rng.normal(size=(3, 5)),
                           s=0.1 * rng.normal(size=(3, 5)), epsilon=0.5)
        mgp = mgp_realize(params)
        assert mgp.alpha[1] == 0.0
        with np.errstate(all="raise"):
            step = loss_dpl(mgp, rng.normal(size=(4, 5)), n_normal)
        assert np.isfinite([step.normal, step.anomaly]).all()
        assert all(np.isfinite(g).all() for g in (step.grad_a, step.grad_m, step.grad_s))

    def test_memory_is_linear_in_prototypes_times_dimension(self):
        # The (C, C, D) form of the self-likelihood needs C*C*D*8 bytes, 67 MB
        # here, for each temporary.
        c, d, n = 32, 8192, 16
        rng = np.random.default_rng(5)
        params = random_params(rng, c, d, epsilon=1e-3)
        normal = rng.normal(size=(n, d))
        stacked = np.concatenate([normal, rng.normal(size=(4, d))])
        for xs in (normal, stacked):
            _, peak = traced_peak(lambda: loss_dpl(mgp_realize(params), xs, n))
            assert peak < 16 * c * d * 8


class TestSharedPlan:
    # A training step computes the batch's plan weights once and hands them
    # to the residual head and to the partition terms.
    @pytest.mark.parametrize("n_normal", [0, 3, 5])
    def test_loss_dpl_from_the_plan_and_into_out(self, rng, n_normal):
        mgp = mgp_realize(random_params(rng, 4, 12, epsilon=0.05))
        xs = rng.normal(size=(5, 12))
        own = loss_dpl(mgp, xs, n_normal)
        out = (np.full(4, np.nan), np.full((4, 12), np.nan), np.full((4, 12), np.nan))
        shared = loss_dpl(mgp, xs, n_normal, softmax(mgp.tilted_logits(xs), axis=1), out=out)
        assert (shared.normal, shared.anomaly) == (own.normal, own.anomaly)
        for name, target in zip(("grad_a", "grad_m", "grad_s"), out):
            assert getattr(shared, name) is target
            assert target.tobytes() == getattr(own, name).tobytes()

    @pytest.mark.parametrize("scale", ["std", "var"])
    def test_residuals_from_the_plan_equal_residual_grid(self, rng, scale):
        mgp = mgp_realize(random_params(rng, 6, 2 * 2 * 5, epsilon=1e-3))
        grids = rng.normal(size=(7, 2, 2, 5))
        weights = softmax(mgp.tilted_logits(grids.reshape(7, -1)), axis=1)[0]
        got = _residuals(mgp, grids, scale, weights)
        assert got.tobytes() == residual_grid(mgp, grids, scale).tobytes()
        with pytest.raises(ValidationError, match="plan weights"):
            _residuals(mgp, grids[:3], scale, weights)


class TestUnitize:
    def test_unit_norm(self, rng):
        v = unitize(rng.normal(size=7))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_rejects_zero_and_matrix(self):
        with pytest.raises(DegenerateInputError):
            unitize(np.zeros(3))
        with pytest.raises(ValidationError):
            unitize(np.zeros((2, 2)))

    # The per-row loop a training step ran before it unitized the whole batch.
    @pytest.mark.parametrize("n,d", [(1, 7), (5, 33), (21, 128), (21, 4096), (3, 8192)])
    def test_rows_keep_the_per_row_bits(self, rng, n, d):
        x = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))
        reference = np.stack([row / np.linalg.norm(row) for row in x])
        got = unitize(x)
        assert got.shape == (n, d)
        assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))
        for row, unit in zip(x, got):
            assert np.array_equal(unitize(row).view(np.uint64), unit.view(np.uint64))

    def test_rejects_a_zero_or_non_finite_row(self, rng):
        for bad in (0.0, np.nan, np.inf):
            x = rng.normal(size=(4, 6))
            x[2] = bad
            with pytest.raises(DegenerateInputError):
                unitize(x)
        with pytest.raises(ValidationError):
            unitize(np.ones((2, 2, 2)))


class TestDFL:
    def test_identical_orthogonal_antipodal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        kappa = 10.0
        assert loss_dfl(np.stack([e1, e1]), kappa).value == pytest.approx(kappa, abs=1e-12)
        assert loss_dfl(np.stack([e1, e2]), kappa).value == pytest.approx(0.0, abs=1e-12)
        assert loss_dfl(np.stack([e1, -e1]), kappa).value == pytest.approx(-kappa, abs=1e-12)

    def test_three_orthogonal_vectors(self):
        units = np.eye(3)
        # each anchor sees two orthogonal partners: log mean exp(0) = 0
        assert loss_dfl(units, 5.0).value == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self, rng):
        units = np.stack([unitize(v) for v in rng.normal(size=(6, 4))])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = loss_dfl(units, 3.0).value
        b = loss_dfl(units @ q.T, 3.0).value
        assert abs(a - b) < 1e-9

    def test_gradient_matches_fd_through_renormalization(self, rng):
        units = np.stack([unitize(v) for v in rng.normal(size=(5, 3))])
        kappa = 4.0
        out = loss_dfl(units, kappa)
        h = 1e-6
        for i in range(5):
            for j in range(3):
                up = units.copy()
                up[i, j] += h
                up[i] /= np.linalg.norm(up[i])
                down = units.copy()
                down[i, j] -= h
                down[i] /= np.linalg.norm(down[i])
                fd = (loss_dfl(up, kappa).value - loss_dfl(down, kappa).value) / (2 * h)
                assert abs(out.grad[i, j] - fd) < 1e-5 * max(1.0, abs(fd))

    # The gradient as loss_dfl computed it before it was deferred to the
    # first read of ``grad``.
    @pytest.mark.parametrize("u,d", [(2, 3), (7, 5), (25, 128)])
    def test_deferred_gradient_equals_the_eager_formula(self, rng, u, d):
        units = unitize(rng.normal(size=(u, d)))
        kappa = 10.0
        out = loss_dfl(units, kappa)
        gram = kappa * (units @ units.T)
        np.fill_diagonal(gram, -np.inf)
        beta = np.exp(gram - gram.max(axis=1, keepdims=True))
        beta /= beta.sum(axis=1, keepdims=True)
        want = (kappa / u) * ((beta + beta.T) @ units)
        want -= np.sum(want * units, axis=1, keepdims=True) * units
        assert np.array_equal(out.grad.view(np.uint64), want.view(np.uint64))
        assert out.grad is out.grad

    def test_gradient_is_tangent(self, rng):
        units = np.stack([unitize(v) for v in rng.normal(size=(4, 5))])
        out = loss_dfl(units, 2.0)
        radial = np.sum(out.grad * units, axis=1)
        assert np.max(np.abs(radial)) < 1e-12

    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            loss_dfl(np.ones((1, 3)), 1.0)
        with pytest.raises(ValidationError):
            loss_dfl(np.ones((3, 3)), 1.0)  # rows not unit
        units = np.stack([unitize(v) for v in rng.normal(size=(3, 3))])
        with pytest.raises(ValidationError):
            loss_dfl(units, -1.0)
