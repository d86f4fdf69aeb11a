import decimal

import numpy as np
import pytest

from conftest import assert_close, random_mgp, traced_peak
from dpdl.bridge import (CondGMM, conditional_plan, drift_batch,
                         log_partition, posterior_mode_index,
                         quadrature_oracle_log_bridge_potential,
                         quadrature_oracle_log_partition, sample_endpoint,
                         simulate_sde_batch, sinkhorn_eot_oracle,
                         terminal_plan)
from dpdl.errors import (DomainError, NumericError, UnsupportedError,
                         ValidationError)
from dpdl.prototypes import MGP, MGPParams, mgp_log_density, mgp_realize, softmax


def decimal_drift(mgp, x, t, digits=50):
    """drift_batch at one state x (D,), in ``digits``-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        dec = decimal.Decimal
        t = dec(t)
        tau = dec(mgp.epsilon) * (1 - t)
        xd = [dec(v) for v in x]
        log_w, means = [], []
        for c in range(mgp.n_components):
            lw = dec(mgp.alpha[c]).ln()
            mean = []
            for j in range(mgp.dim):
                sig, mu = dec(mgp.sigma[c, j]), dec(mgp.mu[c, j])
                prec = t / tau + 1 / sig
                lin = xd[j] / tau + mu / sig
                lw += (lin * lin / prec - mu * mu / sig - sig.ln() - prec.ln()) / 2
                mean.append(lin / prec)
            log_w.append(lw)
            means.append(mean)
        top = max(log_w)
        w = [(lw - top).exp() for lw in log_w]
        total = sum(w)
        return np.array([float((sum(wc * m[j] for wc, m in zip(w, means)) / total - xd[j]) / (1 - t))
                         for j in range(mgp.dim)])


def single_component(mu=0.8, sigma=0.6, epsilon=0.5):
    return MGP(alpha=np.array([1.0]), mu=np.array([[mu]]),
               sigma=np.array([[sigma]]), epsilon=epsilon)


class TestLogPartition:
    def test_zero_point_gives_zero(self, rng):
        # At x = 0 every tilt vanishes and the weights sum to one.
        for c in (1, 2, 5):
            mgp = random_mgp(rng, c, 3)
            assert abs(log_partition(mgp, np.zeros(3))) < 1e-12

    def test_single_component_closed_form(self):
        mgp = single_component(mu=0.8, sigma=0.6, epsilon=0.5)
        x = np.array([1.3])
        want = 0.8 * 1.3 / 0.5 + 0.6 * 1.3 ** 2 / (2 * 0.5 ** 2)
        assert abs(log_partition(mgp, x) - want) < 1e-12

    def test_matches_quadrature_1d(self, rng):
        for eps in (0.01, 0.3, 1.0):
            mgp = random_mgp(rng, 3, 1, epsilon=eps)
            x = rng.uniform(-1.5, 1.5, 1)
            closed = log_partition(mgp, x)
            brute = quadrature_oracle_log_partition(mgp, x)
            assert abs(closed - brute) <= 1e-8 * max(1.0, abs(brute))

    def test_matches_quadrature_2d(self, rng):
        mgp = random_mgp(rng, 2, 2, epsilon=1.0)
        x = rng.uniform(-1.0, 1.0, 2)
        closed = log_partition(mgp, x)
        brute = quadrature_oracle_log_partition(mgp, x, n_nodes=1500)
        assert abs(closed - brute) <= 1e-7 * max(1.0, abs(brute))

    def test_input_validation(self, rng):
        mgp = random_mgp(rng, 2, 2)
        with pytest.raises(ValidationError):
            log_partition(mgp, np.zeros(3))
        with pytest.raises(ValidationError):
            log_partition(mgp, np.array([np.nan, 0.0]))


class TestConditionalPlan:
    def test_component_structure(self, rng):
        mgp = random_mgp(rng, 4, 3, epsilon=0.7)
        x = rng.normal(size=3)
        cond = conditional_plan(mgp, x)
        assert abs(cond.weights.sum() - 1.0) < 1e-12
        assert np.all(cond.weights > 0)
        assert np.allclose(cond.means, mgp.mu + mgp.sigma * x / 0.7, atol=1e-14)
        assert np.array_equal(cond.variances, mgp.sigma)
        lw = mgp.tilted_logits(x[None])[0]
        want = np.exp(lw - lw.max())
        assert np.allclose(cond.weights, want / want.sum(), atol=1e-13)

    def test_density_identity_on_grid(self, rng):
        # exp(x y / eps) phi(y), renormalized on a wide grid, must equal the
        # conditional plan's own density.
        from dpdl.prototypes import mgp_log_density
        mgp = random_mgp(rng, 3, 1, epsilon=0.8)
        x = rng.uniform(-1.5, 1.5, 1)
        cond = conditional_plan(mgp, x)
        lo = float((cond.means - 12 * np.sqrt(cond.variances)).min())
        hi = float((cond.means + 12 * np.sqrt(cond.variances)).max())
        grid = np.linspace(lo, hi, 8192)
        tilted = grid * x[0] / mgp.epsilon + mgp_log_density(mgp, grid[:, None])
        dens = np.exp(tilted - tilted.max())
        dens /= np.trapezoid(dens, grid)
        model = np.exp(cond.log_density(grid[:, None]))
        assert np.max(np.abs(model - dens)) < 1e-9

    def test_deterministic_endpoint_is_posterior_mean(self, rng):
        mgp = random_mgp(rng, 3, 2)
        cond = conditional_plan(mgp, rng.normal(size=2))
        assert np.array_equal(sample_endpoint(cond), cond.weights @ cond.means)
        assert np.array_equal(sample_endpoint(cond), cond.mean())

    def test_sampled_endpoints_have_right_mean(self, rng):
        mgp = random_mgp(rng, 2, 1, epsilon=0.6)
        cond = conditional_plan(mgp, np.array([0.4]))
        draws = np.array([sample_endpoint(cond, rng)[0] for _ in range(20000)])
        want = float(cond.mean()[0])
        var = float(cond.weights @ (cond.variances[:, 0] + cond.means[:, 0] ** 2) - want ** 2)
        assert abs(draws.mean() - want) < 5 * np.sqrt(var / 20000)

    def test_log_density_with_underflowed_weights(self, rng):
        # At eps = 1e-3 the tilts differ by thousands, so 31 of the 32 plan
        # weights are exactly 0; their log is -inf and drops out of the sum.
        c, d = 32, 128
        mgp = MGP(alpha=np.full(c, 1.0 / c), mu=rng.normal(size=(c, d)),
                  sigma=np.ones((c, d)), epsilon=1e-3)
        x = rng.normal(size=d)
        for cond in (conditional_plan(mgp, x), terminal_plan(mgp, x, 0.0)):
            live = np.flatnonzero(cond.weights)
            assert live.shape == (1,)
            k = int(live[0])
            pts = cond.means[k] + rng.normal(size=(4, d))
            got = cond.log_density(pts)
            assert np.all(np.isfinite(got))
            diff = pts - cond.means[k]
            direct = np.log(cond.weights[k]) - 0.5 * np.sum(
                diff * diff / cond.variances[k] + np.log(2 * np.pi * cond.variances[k]), axis=1)
            # The means lie about |x|/eps = 1e4 from the origin, so the
            # expanded distances lose about six digits to cancellation.
            assert_close(got, direct, rtol=1e-9)


class TestPlanWeightsAndMeans:
    def test_is_the_conditional_plan(self, rng):
        from dpdl.bridge import plan_weights
        mgp = random_mgp(rng, 4, 6, epsilon=0.3)
        x = rng.normal(size=6)
        cond = conditional_plan(mgp, x)
        assert np.array_equal(cond.weights, plan_weights(mgp, x[None, :])[0])
        assert np.array_equal(cond.means, mgp.mu + mgp.sigma * (x / mgp.epsilon))
        assert np.array_equal(cond.variances, mgp.sigma)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.3, 2.0])
    def test_rows_sum_to_one(self, rng, epsilon):
        # Components 2 and 3 repeat 0 and 1, so every row has tied maxima.
        # At eps = 1e-3 the tied plan logits are 4e7-7e7, and exp(lw - logsumexp(lw))
        # summed to 1 - 1.9e-9 there; the time-0.3 posterior's summed to 1 - 2.9e-11.
        from dpdl.bridge import plan_weights
        half = random_mgp(rng, 2, 128, epsilon=epsilon)
        mgp = MGP(alpha=np.full(4, 0.25), mu=np.concatenate([half.mu, half.mu]),
                  sigma=np.concatenate([half.sigma, half.sigma]), epsilon=epsilon)
        xs = rng.normal(size=(50, 128))
        for weights in (plan_weights(mgp, xs), np.array([terminal_plan(mgp, x, 0.3).weights for x in xs])):
            assert np.all(weights >= 0)
            assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12

    def test_are_the_partition_responsibilities(self, rng, monkeypatch):
        import dpdl.losses
        from dpdl.bridge import plan_weights
        mgp = random_mgp(rng, 5, 6, epsilon=0.3)
        batch = rng.normal(size=(9, 6))
        seen = []

        def recording_softmax(a, axis):
            out = softmax(a, axis)
            seen.append(out[0])
            return out

        monkeypatch.setattr(dpdl.losses, "softmax", recording_softmax)
        dpdl.losses.loss_dpl(mgp, batch, len(batch))
        # The second softmax is the self-likelihood's.
        assert len(seen) == 2 and seen[0].tobytes() == plan_weights(mgp, batch).tobytes()


class TestPosteriorMode:
    def test_ignores_mixture_weights(self):
        mgp = MGP(alpha=np.array([0.99, 0.01]),
                  mu=np.array([[-2.0], [2.0]]),
                  sigma=np.array([[1.0], [1.0]]), epsilon=1.0)
        assert posterior_mode_index(mgp, np.array([1.9])) == 1
        assert posterior_mode_index(mgp, np.array([-1.9])) == 0

    def test_tie_breaks_to_lowest_index(self):
        mgp = MGP(alpha=np.array([0.5, 0.5]),
                  mu=np.array([[-1.0], [1.0]]),
                  sigma=np.array([[1.0], [1.0]]), epsilon=1.0)
        assert posterior_mode_index(mgp, np.array([0.0])) == 0


class TestDrift:
    def test_single_component_closed_form(self):
        mgp = single_component(mu=1.1, sigma=0.4, epsilon=0.3)
        x, t = 0.25, 0.6
        tau = 0.3 * (1 - t)
        prec = t / tau + 1 / 0.4
        lin = x / tau + 1.1 / 0.4
        want = (lin / prec - x) / (1 - t)
        got = drift_batch(mgp, np.array([[x]]), t)[0, 0]
        assert abs(got - want) < 1e-12

    def test_symmetric_mixture_zero_at_origin(self):
        mgp = MGP(alpha=np.array([0.5, 0.5]),
                  mu=np.array([[-1.5], [1.5]]),
                  sigma=np.array([[0.5], [0.5]]), epsilon=0.8)
        for t in (0.0, 0.3, 0.7):
            assert abs(drift_batch(mgp, np.zeros((1, 1)), t)[0, 0]) < 1e-12

    def test_batch_agrees_with_single(self, rng):
        mgp = random_mgp(rng, 3, 2, epsilon=0.5)
        xs = rng.normal(size=(6, 2))
        batch = drift_batch(mgp, xs, 0.4)
        for i in range(6):
            assert np.allclose(batch[i], drift_batch(mgp, xs[i:i + 1], 0.4)[0], atol=0)

    def test_matches_finite_difference_of_potential(self, rng):
        mgp = random_mgp(rng, 2, 1, epsilon=0.5)
        for t in (0.0, 0.5):
            x = rng.uniform(-1.0, 1.0, 1)
            h = 1e-5
            up = quadrature_oracle_log_bridge_potential(mgp, x + h, t)
            down = quadrature_oracle_log_bridge_potential(mgp, x - h, t)
            fd = mgp.epsilon * (up - down) / (2 * h)
            got = float(drift_batch(mgp, x[None], t)[0, 0])
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_matches_decimal_reference(self):
        # The drift as (posterior mean - x)/(1-t) from the component
        # precisions t/tau + 1/sigma, in 50-digit arithmetic: the cancellation
        # in (posterior mean - x) costs nothing at that precision.
        for c, d, eps in ((4, 3, 1e-3), (8, 16, 0.01)):
            rng = np.random.default_rng(c)
            mgp = random_mgp(rng, c, d, epsilon=eps)
            xs = rng.normal(size=(3, d))
            for t in (0.0, 0.5, 0.9, 0.99, 0.999):
                want = np.stack([decimal_drift(mgp, x, t) for x in xs])
                assert_close(drift_batch(mgp, xs, t), want, rtol=1e-8)

    def test_state_validation(self, rng):
        mgp = random_mgp(rng, 2, 1)
        with pytest.raises(ValidationError):
            drift_batch(mgp, np.zeros((2, 3)), 0.5)
        with pytest.raises(ValidationError):
            drift_batch(mgp, np.array([[0.0], [np.inf]]), 0.5)

    def test_time_validation(self, rng):
        mgp = random_mgp(rng, 2, 1)
        with pytest.raises(ValidationError):
            drift_batch(mgp, np.zeros((1, 1)), -0.1)
        with pytest.raises(DomainError):
            drift_batch(mgp, np.zeros((1, 1)), 1.0)
        with pytest.raises(DomainError):
            drift_batch(mgp, np.zeros((1, 1)), 1.5)
        for not_real in (None, "0.5"):
            with pytest.raises(ValidationError):
                drift_batch(mgp, np.zeros((1, 1)), not_real)


class TestTerminalPlan:
    def test_time_zero_equals_conditional(self, rng):
        mgp = random_mgp(rng, 3, 2, epsilon=0.7)
        x = rng.normal(size=2)
        a = conditional_plan(mgp, x)
        b = terminal_plan(mgp, x, 0.0)
        assert np.allclose(a.weights, b.weights, atol=1e-12)
        assert np.allclose(a.means, b.means, atol=1e-10)
        assert np.allclose(a.variances, b.variances, atol=1e-12)

    def test_variances_shrink_near_one(self, rng):
        mgp = random_mgp(rng, 2, 1, epsilon=0.5)
        x = np.array([0.3])
        v_half = terminal_plan(mgp, x, 0.5).variances
        v_late = terminal_plan(mgp, x, 0.99).variances
        assert np.all(v_late < v_half)
        assert np.all(v_late < 0.01)


class TestSimulate:
    def test_shapes_and_times(self, rng):
        mgp = random_mgp(rng, 2, 3, epsilon=0.4)
        traj = simulate_sde_batch(mgp, np.zeros((1, 3)), 8, rng)
        assert traj.states.shape == (9, 1, 3)
        assert np.allclose(traj.times, np.arange(9) / 8)
        assert np.array_equal(traj.states[0], np.zeros((1, 3)))
        batch = simulate_sde_batch(mgp, np.zeros((5, 3)), 8, rng)
        assert batch.states.shape == (9, 5, 3)

    def test_deterministic_given_generator(self, rng):
        mgp = random_mgp(rng, 2, 1, epsilon=0.4)
        a = simulate_sde_batch(mgp, np.array([[0.1]]), 16, np.random.default_rng(9))
        b = simulate_sde_batch(mgp, np.array([[0.1]]), 16, np.random.default_rng(9))
        assert np.array_equal(a.states, b.states)

    def test_single_step_draw_is_exact(self, rng):
        # n_steps=1 samples straight from the conditional plan.
        mgp = random_mgp(rng, 2, 1, epsilon=0.5)
        x0 = np.array([0.2])
        cond = conditional_plan(mgp, x0)
        want = float(cond.mean()[0])
        second = float(cond.weights @ (cond.variances[:, 0] + cond.means[:, 0] ** 2))
        var = second - want ** 2
        traj = simulate_sde_batch(mgp, np.tile(x0, (20000, 1)), 1, rng)
        got = traj.states[-1, :, 0]
        assert abs(got.mean() - want) < 5 * np.sqrt(var / 20000)
        assert abs(got.var() - var) < 0.1 * var

    def test_tight_prototype_pins_terminal(self, rng):
        mgp = MGP(alpha=np.array([1.0]), mu=np.array([[-0.4]]),
                  sigma=np.array([[1e-12]]), epsilon=1e-4)
        traj = simulate_sde_batch(mgp, np.full((32, 1), 0.7), 16, rng)
        assert np.max(np.abs(traj.states[-1, :, 0] + 0.4)) < 1e-3

    def test_validation(self, rng):
        mgp = random_mgp(rng, 2, 1)
        with pytest.raises(ValidationError):
            simulate_sde_batch(mgp, np.zeros((1, 1)), 0, rng)
        with pytest.raises(ValidationError):
            simulate_sde_batch(mgp, np.zeros((2, 3)), 4, rng)
        with pytest.raises(ValidationError):
            simulate_sde_batch(mgp, np.array([[0.0], [np.nan]]), 4, rng)
        for not_int in (2.5, "3", -1, 1.5, True, "a"):
            with pytest.raises(ValidationError, match="^n_steps must be an integer"):
                simulate_sde_batch(mgp, np.zeros((1, 1)), not_int, rng)

    def test_drift_and_simulator_build_nothing_of_shape_b_c_d(self):
        # One (B, C, D) float64 array is 67 MB here.  The simulator's bound
        # counts its working memory above the (3, B, D) trajectory it
        # returns, which alone is 86% of the bound.
        b, c, d = 256, 32, 1024
        rng = np.random.default_rng(6)
        mgp = random_mgp(rng, c, d, epsilon=0.01)
        xs = rng.normal(size=(b, d))
        bound = 3 * 8 * (b * d + c * d + b * c)
        _, peak = traced_peak(drift_batch, mgp, xs, 0.5)
        assert peak < bound
        traj, peak = traced_peak(simulate_sde_batch, mgp, xs, 2, rng)
        assert peak - traj.states.nbytes < bound


class TestUnderflowedWeight:
    """A mixture whose second weight underflowed to exactly 0: the time-t
    posterior gives it log weight -inf without a divide warning, and every
    quantity equals that of the one live component."""

    x = np.array([[0.3, -1.2, 0.7]])

    @pytest.fixture
    def mgp(self):
        mgp = mgp_realize(MGPParams(a=np.array([0.0, -800.0]),
                                    m=np.array([[0.5, -0.2, 1.0], [-1.0, 2.0, 0.1]]),
                                    s=np.log([[0.6, 0.3, 1.4], [0.8, 0.5, 0.2]]), epsilon=0.7))
        assert mgp.alpha.tolist() == [1.0, 0.0]
        return mgp

    def live(self, mgp, t):
        """Mean and variance of the terminal point given x at time t, for
        component 0 alone: with tau = eps*(1-t) and v = t*sigma + tau, the
        mean is (sigma*x + tau*mu)/v and the variance tau*sigma/v."""
        tau = mgp.epsilon * (1.0 - t)
        v = t * mgp.sigma[0] + tau
        return (mgp.sigma[0] * self.x[0] + tau * mgp.mu[0]) / v, tau * mgp.sigma[0] / v

    def test_drift_batch(self, mgp):
        mean, _ = self.live(mgp, 0.4)
        assert_close(drift_batch(mgp, self.x, 0.4)[0], (mean - self.x[0]) / (1.0 - 0.4))

    def test_terminal_plan(self, mgp):
        mean, var = self.live(mgp, 0.4)
        cond = terminal_plan(mgp, self.x[0], 0.4)
        assert cond.weights.tolist() == [1.0, 0.0]
        assert_close(cond.means[0], mean)
        assert_close(cond.variances[0], var)

    def test_simulate_sde_batch(self, mgp):
        # One step is the exact draw from time 0: a uniform per row for the
        # component, which must be 0, then mean + sqrt(var) * z.
        mean, var = self.live(mgp, 0.0)
        traj = simulate_sde_batch(mgp, np.tile(self.x, (5, 1)), 1, np.random.default_rng(4))
        gen = np.random.default_rng(4)
        gen.random(5)
        assert_close(traj.states[-1], mean + np.sqrt(var) * gen.standard_normal((5, 3)))

    # These three said "divide by zero encountered in log" on the way.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conditional_plan(self, mgp):
        cond = conditional_plan(mgp, self.x[0])
        assert cond.weights.tolist() == [1.0, 0.0]
        assert_close(cond.means, mgp.mu + mgp.sigma * self.x[0] / mgp.epsilon)
        assert np.array_equal(cond.variances, mgp.sigma)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_partition(self, mgp):
        # log E exp(x.y/eps) under N(mu_0, diag sigma_0).
        x, e = self.x[0], mgp.epsilon
        assert_close(log_partition(mgp, x), x @ mgp.mu[0] / e + x @ (mgp.sigma[0] * x) / (2.0 * e * e))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mgp_log_density(self, mgp):
        ys = np.array([[0.3, -1.2, 0.7], [0.5, -0.2, 1.0], [-1.0, 2.0, 0.1]])
        want = -0.5 * (3 * np.log(2.0 * np.pi) + np.sum(np.log(mgp.sigma[0]))
                       + np.sum((ys - mgp.mu[0]) ** 2 / mgp.sigma[0], axis=1))
        assert_close(mgp_log_density(mgp, ys), want)


class TestQuadratureOracle:
    def test_unsupported_dimension(self, rng):
        mgp = random_mgp(rng, 2, 3)
        with pytest.raises(UnsupportedError):
            quadrature_oracle_log_partition(mgp, np.zeros(3))
        with pytest.raises(UnsupportedError):
            quadrature_oracle_log_bridge_potential(mgp, np.zeros(3), 0.5)

    def test_too_stiff_integrand(self):
        mgp = MGP(alpha=np.array([0.5, 0.5]),
                  mu=np.array([[-50.0], [50.0]]),
                  sigma=np.array([[1e-14], [1e-14]]), epsilon=1.0)
        with pytest.raises(NumericError):
            quadrature_oracle_log_partition(mgp, np.array([0.1]))


class TestSinkhorn:
    def test_single_pair_trivial_plan(self):
        result = sinkhorn_eot_oracle(np.zeros((1, 1)), np.ones((1, 1)), 0.5)
        assert np.allclose(result.plan, [[1.0]], atol=1e-12)
        assert result.marginal_residual < 1e-12

    def test_symmetric_two_by_two(self):
        src = np.array([[-1.0], [1.0]])
        tgt = np.array([[-1.0], [1.0]])
        result = sinkhorn_eot_oracle(src, tgt, 1.0)
        # symmetry forces a symmetric doubly stochastic plan / 2
        assert np.allclose(result.plan, result.plan.T, atol=1e-10)
        assert np.allclose(result.plan.sum(axis=0), 0.5, atol=1e-10)
        assert result.plan[0, 0] > result.plan[0, 1]

    def test_marginals_match_uniform(self, rng):
        src = rng.normal(size=(7, 2))
        tgt = rng.normal(size=(11, 2))
        result = sinkhorn_eot_oracle(src, tgt, 0.7)
        assert np.allclose(result.plan.sum(axis=1), 1 / 7, atol=1e-9)
        assert np.allclose(result.plan.sum(axis=0), 1 / 11, atol=1e-9)
        assert result.iterations >= 1

    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            sinkhorn_eot_oracle(np.zeros((2, 1)), np.zeros((2, 2)), 0.5)
        with pytest.raises(ValidationError):
            sinkhorn_eot_oracle(np.zeros((0, 1)), np.zeros((2, 1)), 0.5)
        with pytest.raises(ValidationError):
            sinkhorn_eot_oracle(np.zeros((2, 1)), np.zeros((2, 1)), 0.0)
