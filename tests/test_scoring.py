import csv

import numpy as np
import pytest

from conftest import random_mgp, traced_peak
from dpdl.errors import NumericError, ValidationError
from dpdl.features import Dataset, FeatureMap
from dpdl.prototypes import MGP
from dpdl.scoring import (LinearHead, ScoringHeads, _group_rows, anomaly_score, anomaly_scores,
                          bce_with_logits, head_loss_anomaly, head_loss_normal,
                          head_loss_residual, pass_rows, pixel_scores, residual_grid,
                          topk_mean, write_scores_csv)


def random_heads(rng, channels, topk_fraction=0.25):
    def head():
        return LinearHead(rng.normal(size=channels), rng.normal(size=1))
    return ScoringHeads(anomaly=head(), normal=head(), residual=head(),
                        topk_fraction=topk_fraction)


class TestPixelScores:
    def test_matches_naive_loop(self, rng):
        head = LinearHead(rng.normal(size=5), rng.normal(size=1))
        grid = rng.normal(size=(3, 4, 5))
        got = pixel_scores(head, grid)
        for i in range(3):
            for j in range(4):
                want = float(grid[i, j] @ head.w + head.b[0])
                assert abs(got[i, j] - want) < 1e-12

    def test_accepts_feature_map(self, rng):
        head = LinearHead(np.ones(2), np.zeros(1))
        fm = FeatureMap(rng.normal(size=(2, 2, 2)).astype(np.float32), 0, 0, "x")
        assert np.allclose(pixel_scores(head, fm), fm.grid.sum(axis=2), atol=1e-6)

    def test_channel_mismatch(self, rng):
        head = LinearHead(np.ones(3), np.zeros(1))
        with pytest.raises(ValidationError):
            pixel_scores(head, rng.normal(size=(2, 2, 2)))


class TestTopkMean:
    def test_exact_against_sort(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            vals = np.round(rng.normal(size=n), 2)  # force duplicates
            frac = float(rng.uniform(0.01, 1.0))
            k = max(1, int(np.floor(frac * n)))
            want = float(np.sort(vals)[::-1][:k].mean())
            assert topk_mean(vals, frac) == want

    def test_k_rule(self):
        vals = np.arange(16.0)
        assert topk_mean(vals, 0.10) == 15.0          # floor(1.6) = 1
        assert topk_mean(vals, 0.125) == 14.5         # k = 2
        assert topk_mean(vals, 1.0) == vals.mean()
        assert topk_mean(np.array([3.0]), 0.5) == 3.0  # k never drops below 1

    def test_accepts_grid_shape(self, rng):
        grid = rng.normal(size=(4, 4))
        assert topk_mean(grid, 1.0) == pytest.approx(grid.mean(), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            topk_mean(np.zeros(0), 0.5)
        with pytest.raises(ValidationError):
            topk_mean(np.zeros(3), 0.0)
        with pytest.raises(ValidationError):
            topk_mean(np.zeros(3), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_refused(self, bad):
        # A NaN sorts last, so [1, nan, 2] at 0.5 pooled 2.0.
        with pytest.raises(ValidationError, match="non-finite"):
            topk_mean(np.array([1.0, bad, 2.0]), 0.5)


class TestBCE:
    def test_logit_zero_is_log_two(self):
        for y in (0, 1):
            loss, dz = bce_with_logits(0.0, y)
            assert loss == pytest.approx(np.log(2.0), abs=1e-15)
            assert dz == pytest.approx(0.5 - y, abs=1e-15)

    def test_label_flip_symmetry(self, rng):
        for z in rng.normal(0, 3, 50):
            l1, _ = bce_with_logits(float(z), 1)
            l0, _ = bce_with_logits(float(-z), 0)
            assert l1 == pytest.approx(l0, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, dz = bce_with_logits(800.0, 1)
        assert loss == 0.0 and abs(dz) < 1e-12
        loss, dz = bce_with_logits(-800.0, 1)
        assert np.isfinite(loss) and loss == pytest.approx(800.0, rel=1e-12)

    def test_derivative_numerically(self):
        h = 1e-6
        for z in (-2.0, -0.3, 0.0, 1.7):
            for y in (0, 1):
                _, dz = bce_with_logits(z, y)
                fd = (bce_with_logits(z + h, y)[0] - bce_with_logits(z - h, y)[0]) / (2 * h)
                assert abs(dz - fd) < 1e-8

    def test_label_validation(self):
        with pytest.raises(ValidationError):
            bce_with_logits(0.0, 2)


class TestHeadLosses:
    def test_anomaly_head_fd(self, rng):
        heads = random_heads(rng, 4)
        grid = rng.normal(size=(3, 3, 4))
        for label in (0, 1):
            out = head_loss_anomaly(heads, grid, label)
            h = 1e-6
            for j in range(4):
                keep = heads.anomaly.w[j]
                heads.anomaly.w[j] = keep + h
                up = head_loss_anomaly(heads, grid, label).value
                heads.anomaly.w[j] = keep - h
                down = head_loss_anomaly(heads, grid, label).value
                heads.anomaly.w[j] = keep
                assert abs(out.grad_w[j] - (up - down) / (2 * h)) < 1e-7
            keep = heads.anomaly.b[0]
            heads.anomaly.b[0] = keep + h
            up = head_loss_anomaly(heads, grid, label).value
            heads.anomaly.b[0] = keep - h
            down = head_loss_anomaly(heads, grid, label).value
            heads.anomaly.b[0] = keep
            assert abs(out.grad_b[0] - (up - down) / (2 * h)) < 1e-7

    def test_normal_head_by_hand(self, rng):
        heads = random_heads(rng, 3)
        grid = rng.normal(size=(2, 2, 3))
        mean_cell = grid.reshape(-1, 3).mean(axis=0)
        z = float(mean_cell @ heads.normal.w + heads.normal.b[0])
        want, dz = bce_with_logits(z, 1)
        out = head_loss_normal(heads, grid, 1)
        assert out.value == pytest.approx(want, abs=1e-14)
        assert np.allclose(out.grad_w, dz * mean_cell, atol=1e-14)
        assert out.grad_b[0] == pytest.approx(dz, abs=1e-14)

    def test_gradient_flows_only_through_top_cells(self, rng):
        # One clear winning cell: the weight gradient is dz times exactly
        # that cell's feature vector.
        heads = ScoringHeads.zeros(2, topk_fraction=0.10)
        heads.anomaly.w[:] = [1.0, 0.0]
        grid = np.zeros((2, 2, 2))
        grid[1, 0] = [5.0, 2.0]
        grid[0, 0] = [1.0, 9.0]
        out = head_loss_anomaly(heads, grid, 1)
        _, dz = bce_with_logits(5.0, 1)
        assert np.allclose(out.grad_w, dz * np.array([5.0, 2.0]), atol=1e-12)

    def test_tie_breaks_to_lowest_flat_index(self):
        heads = ScoringHeads.zeros(1, topk_fraction=0.10)
        grid = np.zeros((2, 2, 1))
        grid[0, 0, 0] = 3.0
        grid[1, 1, 0] = 3.0  # same score, higher flat index
        out = head_loss_anomaly(heads, grid, 0)
        # all scores tie at b=0; top-1 must be flat index 0
        _, dz = bce_with_logits(0.0, 0)
        assert np.allclose(out.grad_w, dz * np.array([3.0]), atol=1e-12)


class TestBatchedHeadLosses:
    def tied_batch(self, rng):
        # Values on a 0.5 lattice with a small head weight give exact score
        # ties inside items; items 0 and 3 are identical.
        grids = np.round(2.0 * rng.normal(size=(6, 3, 3, 4))) / 2.0
        grids[3] = grids[0]
        grids[5] = 0.0
        labels = np.array([0, 1, 1, 0, 1, 0])
        return grids, labels

    def test_equal_mean_of_per_item_calls(self, rng):
        mgp = random_mgp(rng, 3, 36, epsilon=0.7)
        grids, labels = self.tied_batch(rng)
        heads = random_heads(rng, 4, topk_fraction=0.25)
        heads.anomaly.w[:] = [1.0, 0.0, 0.5, 0.0]
        cases = [
            lambda g, y: head_loss_anomaly(heads, g, y),
            lambda g, y: head_loss_normal(heads, g, y),
            lambda g, y: head_loss_residual(heads, mgp, g, y, "std"),
        ]
        for loss in cases:
            batch = loss(grids, labels)
            parts = [loss(g, int(y)) for g, y in zip(grids, labels)]
            want_value = np.mean([p.value for p in parts])
            want_w = np.mean([p.grad_w for p in parts], axis=0)
            want_b = np.mean([p.grad_b for p in parts], axis=0)
            assert batch.value == pytest.approx(want_value, rel=1e-12)
            assert np.allclose(batch.grad_w, want_w, rtol=1e-12, atol=1e-12 * np.max(np.abs(want_w)))
            assert batch.grad_b[0] == pytest.approx(want_b[0], rel=1e-12)

    def test_ties_pick_lowest_flat_index_per_item(self):
        heads = ScoringHeads.zeros(1, topk_fraction=0.25)
        grids = np.zeros((2, 2, 2, 1))
        grids[0, 0, 0, 0] = 3.0
        grids[1, 1, 1, 0] = 3.0
        out = head_loss_anomaly(heads, grids, np.array([0, 0]))
        # every score ties at b = 0, so each item pools its flat index 0
        _, dz = bce_with_logits(0.0, 0)
        assert np.allclose(out.grad_w, dz * np.array([1.5]), atol=1e-12)

    def test_label_count_must_match(self, rng):
        heads = ScoringHeads.zeros(2)
        grids = rng.normal(size=(3, 2, 2, 2))
        with pytest.raises(ValidationError, match="one label per grid"):
            head_loss_anomaly(heads, grids, np.array([0, 1]))
        with pytest.raises(ValidationError):
            head_loss_normal(heads, grids, np.array([0, 1, 2]))


class TestResidual:
    @pytest.mark.parametrize("scale", ["std", "var"])
    def test_equals_conditional_plan_endpoint_bit_for_bit(self, rng, scale):
        # The endpoint is evaluated as (w @ mu) + (w @ sigma) * (x / eps), the
        # plan's mean by linearity.  At epsilon = 5 the plans are not one-hot,
        # so this order is what is pinned.
        from dpdl.bridge import conditional_plan, posterior_mode_index
        for epsilon in [0.05] * 10 + [5.0] * 10:
            mgp = random_mgp(rng, 5, 48, epsilon=epsilon)
            grid = rng.normal(size=(4, 4, 3)).astype(np.float32)
            x = grid.astype(np.float64).reshape(-1)
            w = conditional_plan(mgp, x).weights
            psi = w @ mgp.mu + (w @ mgp.sigma) * (x / epsilon)
            c = posterior_mode_index(mgp, psi)
            denom = np.sqrt(mgp.sigma[c]) if scale == "std" else mgp.sigma[c]
            want = ((psi - mgp.mu[c]) / denom).reshape(grid.shape)
            assert residual_grid(mgp, grid, scale).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", ["std", "var"])
    def test_batched_rows_match_per_item(self, rng, scale):
        # A row of a (B, D) @ (D, C) product rounds differently from the same
        # (1, D) @ (D, C) product, and the tilted logits reach |x|^2 sigma / eps^2,
        # so batched plan weights differ from per-item ones in the last bits
        # of the logits' size: 1e-12 of the grid's scale covers that.
        for epsilon in (0.05, 0.5, 5.0):
            for _ in range(5):
                mgp = random_mgp(rng, 6, 48, epsilon=epsilon)
                grids = rng.normal(size=(7, 4, 4, 3))
                batch = residual_grid(mgp, grids, scale)
                per_item = np.stack([residual_grid(mgp, g, scale) for g in grids])
                assert batch.shape == grids.shape
                scale_ = float(np.max(np.abs(per_item)))
                assert np.max(np.abs(batch - per_item)) <= 1e-12 * scale_

    def test_batch_builds_nothing_of_shape_b_c_d(self, rng):
        b, c, h, w, d = 16, 32, 8, 8, 128
        mgp = random_mgp(rng, c, h * w * d, epsilon=1e-3)
        grids = rng.normal(size=(b, h, w, d))
        heads = ScoringHeads.zeros(d)
        # The per-mixture (C, D) caches are built once per realized mixture.
        mgp.inv_sigma, mgp.mu_over_sigma, mgp.sum_mu_mu_over_sigma, mgp.sum_log_sigma
        _, peak = traced_peak(head_loss_residual, heads, mgp, grids, np.arange(b) % 2)
        # A handful of (B, D) arrays; one (B, C, D) float64 array is 32 of them.
        assert peak < 8 * b * h * w * d * 8

    def test_expanded_mode_index_equals_direct_argmax(self, rng):
        from dpdl.bridge import (plan_endpoints, plan_weights, posterior_mode_index,
                                 posterior_mode_indices)

        def direct(mgp, psi):
            terms = (psi[None, :] - mgp.mu) ** 2 / mgp.sigma + np.log(mgp.sigma)
            return int(np.argmax(-0.5 * np.sum(terms, axis=1)))

        for _ in range(30):
            mgp = random_mgp(rng, 8, 64)
            psis = rng.normal(0.0, 2.0, size=(10, 64))
            got = posterior_mode_indices(mgp, psis)
            assert got.tolist() == [direct(mgp, p) for p in psis]
            assert [posterior_mode_index(mgp, p) for p in psis] == got.tolist()
        # A dense line through two prototype means crosses a decision
        # boundary, where the answer hinges on every term of the energy.
        for _ in range(10):
            mgp = random_mgp(rng, 3, 2)
            t = np.linspace(-1.0, 2.0, 2001)[:, None]
            psis = mgp.mu[0] + t * (mgp.mu[1] - mgp.mu[0])
            got = posterior_mode_indices(mgp, psis)
            assert len(set(got.tolist())) > 1
            assert got.tolist() == [direct(mgp, p) for p in psis]
        # One-hot plans at epsilon = 1e-3: the endpoint lies ~|x| sigma / eps
        # from every prototype, so the energies are ~1e7 and nearly cancel.
        for _ in range(10):
            mgp = random_mgp(rng, 8, 64, epsilon=1e-3)
            xs = rng.normal(size=(10, 64))
            weights = plan_weights(mgp, xs)
            assert np.all(weights.max(axis=1) == 1.0)
            psis = plan_endpoints(mgp, weights, xs)
            assert posterior_mode_indices(mgp, psis).tolist() == [direct(mgp, p) for p in psis]

    @pytest.mark.parametrize("dim", [128, 2048, 4096])
    def test_stacked_passes_equal_per_pass_calls(self, rng, dim):
        # Scoring relies on numpy computing a (P, size, D) @ (D, C) product as
        # one BLAS call per pass at the pass's shape, so every kernel on the
        # stack has the bits of its per-pass 2-D calls.
        from dpdl.bridge import plan_endpoints, plan_weights, posterior_mode_indices
        mgp = random_mgp(rng, 32, dim, epsilon=0.5)
        size = pass_rows(dim, 32)
        xs = rng.normal(size=(_group_rows(size, dim) // size, size, dim))
        weights = plan_weights(mgp, xs)
        psis = plan_endpoints(mgp, weights, xs)
        stacked = [mgp.tilted_logits(xs), psis, mgp.sq_distances(psis), posterior_mode_indices(mgp, psis)]
        for p, x in enumerate(xs):
            per_pass = [mgp.tilted_logits(x), plan_endpoints(mgp, weights[p], x),
                        mgp.sq_distances(psis[p]), posterior_mode_indices(mgp, psis[p])]
            for got, want in zip(stacked, per_pass):
                assert got[p].tobytes() == want.tobytes()

    def test_rejects_non_finite_raw_grid(self, rng):
        mgp = random_mgp(rng, 2, 4)
        with pytest.raises(ValidationError):
            residual_grid(mgp, np.full((2, 2, 1), np.nan))

    def test_zero_at_origin_single_component(self):
        # With x = 0 the endpoint equals the prototype mean exactly.
        mgp = MGP(alpha=np.array([1.0]), mu=np.full((1, 4), 0.3),
                  sigma=np.full((1, 4), 0.5), epsilon=0.1)
        grid = np.zeros((2, 2, 1))
        out = residual_grid(mgp, grid)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_std_and_var_modes_are_linked(self, rng):
        mgp = random_mgp(rng, 3, 8, epsilon=0.9)
        grid = rng.normal(size=(2, 2, 2))
        r_std = residual_grid(mgp, grid, "std")
        r_var = residual_grid(mgp, grid, "var")
        from dpdl.bridge import conditional_plan, posterior_mode_index
        cond = conditional_plan(mgp, grid.reshape(-1))
        c = posterior_mode_index(mgp, cond.weights @ cond.means)
        ratio = np.sqrt(mgp.sigma[c]).reshape(grid.shape)
        assert np.allclose(r_var * ratio, r_std, atol=1e-12)

    def test_doubling_sigma_halves_var_mode_at_fixed_gap(self):
        # Hold the endpoint gap fixed and double the reference variance:
        # the variance-scaled residual halves, the std-scaled one shrinks
        # by sqrt(2).
        gap = np.full(4, 0.8)
        for scale, factor in (("var", 0.5), ("std", 1 / np.sqrt(2))):
            r1 = gap / (1.0 if scale == "var" else 1.0)
            r2 = gap / (2.0 if scale == "var" else np.sqrt(2.0))
            assert np.allclose(r2, factor * r1, atol=1e-12)

    def test_mode_validation(self, rng):
        mgp = random_mgp(rng, 2, 4)
        with pytest.raises(ValidationError):
            residual_grid(mgp, np.zeros((2, 2, 1)), "median")


class TestCompositeScore:
    def test_zero_heads_score_zero(self, rng):
        mgp = random_mgp(rng, 2, 8)
        heads = ScoringHeads.zeros(2)
        grid = rng.normal(size=(2, 2, 2))
        assert anomaly_score(mgp, heads, grid) == 0.0

    def test_matches_manual_composition(self, rng):
        mgp = random_mgp(rng, 2, 8, epsilon=0.8)
        heads = random_heads(rng, 2, topk_fraction=0.5)
        grid = rng.normal(size=(2, 2, 2))
        s_a = topk_mean(pixel_scores(heads.anomaly, grid), 0.5)
        s_r = topk_mean(pixel_scores(heads.residual, residual_grid(mgp, grid)), 0.5)
        mean_cell = grid.reshape(-1, 2).mean(axis=0)
        s_n = float(mean_cell @ heads.normal.w + heads.normal.b[0])
        assert anomaly_score(mgp, heads, grid) == pytest.approx(s_a + s_r - s_n, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.5])
    @pytest.mark.parametrize("dims", [(2, 2, 2, 6), (8, 8, 32, 6), (8, 8, 128, 32),
                                      (8, 4, 16, 32), (8, 8, 16, 32), (8, 8, 32, 32)])
    def test_score_ignores_the_rest_of_its_chunk(self, rng, epsilon, dims):
        # The chunk's other rows are random, zero, or scaled by 1e3; at
        # D = 2048 an unpadded (M, D) product can round row 0 differently for
        # different M.  At 32 prototypes, D = 512, 1024 and 2048 take 32-, 16-
        # and 8-row passes, and D = 8192's D x C = 2**18 puts even a pass of
        # the 4-row floor past the 2**19 multiply-adds that pass_rows keeps
        # on the calling thread.
        h, w, d, c = dims
        mgp = random_mgp(rng, c, h * w * d, epsilon=epsilon)
        heads = random_heads(rng, d)
        size = pass_rows(h * w * d, c)
        grids = rng.normal(size=(size + 5, h, w, d))
        alone = [anomaly_score(mgp, heads, g) for g in grids]
        for others in (grids, np.zeros_like(grids), 1e3 * grids):
            for pos in (0, size - 1, size, size + 4):
                stack = others.copy()
                stack[pos] = grids[pos]
                assert anomaly_scores(mgp, heads, stack)[pos] == alone[pos]
        assert anomaly_scores(mgp, heads, grids).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("dims", [(4, 4, 8), (8, 8, 32), (8, 8, 64)], ids=["D128", "D2048", "D4096"])
    def test_groups_score_as_items_alone(self, rng, dims):
        # Three groups of whole passes, the last short and zero-padded; each
        # item scored alone is one padded pass.
        h, w, d = dims
        mgp = random_mgp(rng, 32, h * w * d, epsilon=0.5)
        heads = random_heads(rng, d)
        group = _group_rows(pass_rows(h * w * d, 32), h * w * d)
        assert group == {128: 1024, 2048: 64, 4096: 32}[h * w * d]
        grids = rng.normal(size=(2 * group + 5, h, w, d))
        alone = [anomaly_score(mgp, heads, g) for g in grids]
        assert anomaly_scores(mgp, heads, grids).tobytes() == np.array(alone).tobytes()
        bad = 2 * group + 3
        grids[bad] *= 1e200
        with pytest.raises(NumericError, match=f"item at row {bad} is not finite"):
            anomaly_scores(mgp, heads, grids)

    def test_pass_rows(self):
        assert [pass_rows(dim, 32) for dim in (128, 512, 1024, 2048, 4096, 8192)] == [32, 32, 16, 8, 4, 4]
        assert pass_rows(8, 6) == 32
        # Below D = 512, x @ mu.T went to two threads at 2**19 multiply-adds.
        assert [pass_rows(128, 128), pass_rows(256, 64)] == [16, 16]
        for dim in (1, 8, 100, 128, 300, 512, 600, 2048, 4096):
            for c in (1, 2, 6, 32, 33, 100):
                rows = pass_rows(dim, c)
                assert 4 <= rows <= 32
                assert rows == 4 or rows * dim * c <= (2 ** 19 if dim >= 512 else 2 ** 18)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_its_row(self, rng, bad):
        # A NaN at row 4 was "points contain non-finite values", naming no
        # item, and an inf was a NumericError blaming the score.
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        grids = rng.normal(size=(6, 2, 2, 2))
        grids[4, 1, 0, 1] = bad
        with pytest.raises(ValidationError, match="item at row 4 contains non-finite values"):
            anomaly_scores(mgp, heads, grids)
        with pytest.raises(ValidationError, match="item at row 4 contains non-finite values"):
            anomaly_scores(mgp, heads, list(grids), ids=[0])

    def test_scores_accept_grids_and_feature_maps(self, rng):
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        fms = [FeatureMap(rng.normal(size=(2, 2, 2)).astype(np.float32), 0, 0, f"f{i}")
               for i in range(3)]
        got = anomaly_scores(mgp, heads, fms)
        assert got.tobytes() == anomaly_scores(mgp, heads, [fm.grid for fm in fms]).tobytes()
        assert anomaly_scores(mgp, heads, []).shape == (0,)
        with pytest.raises(ValidationError):
            anomaly_scores(mgp, heads, [fms[0].grid, np.zeros((1, 2, 2))])

    @pytest.mark.parametrize("bad", [3, -1])
    def test_ids_that_name_no_row_are_rejected(self, rng, bad):
        # ids=[3] on three rows ended in a bare IndexError and ids=[-1]
        # scored the last row.
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        grids = rng.normal(size=(3, 2, 2, 2))
        with pytest.raises(ValidationError, match=f"{bad} is not an item id"):
            anomaly_scores(mgp, heads, grids, ids=[bad])

    @pytest.mark.parametrize("ids", [[True, False, True], ["1"], [None]], ids=["mask", "text", "none"])
    def test_ids_that_are_not_integers_are_rejected(self, rng, ids):
        # The mask [True, False, True] scored rows 1, 0 and 1.
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        grids = rng.normal(size=(3, 2, 2, 2))
        with pytest.raises(ValidationError, match="item ids must be integers"):
            anomaly_scores(mgp, heads, grids, ids=np.array(ids))

    def test_non_finite_score_raises(self, rng):
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        heads.anomaly.w[:] = 1e308
        grids = np.full((3, 2, 2, 2), 2.0)
        grids[0] = 0.0
        with pytest.raises(NumericError, match="at row 1"):
            anomaly_scores(mgp, heads, grids)

    def test_residual_loss_uses_residual_grid(self, rng):
        mgp = random_mgp(rng, 2, 8, epsilon=0.8)
        heads = random_heads(rng, 2)
        grid = rng.normal(size=(2, 2, 2))
        from dpdl.scoring import _pooled_bce
        want = _pooled_bce(heads.residual, residual_grid(mgp, grid)[None], np.array([1]),
                           heads.topk_fraction)
        got = head_loss_residual(heads, mgp, grid, 1)
        assert got.value == want.value
        assert np.array_equal(got.grad_w, want.grad_w)


# Every public scoring entry, called on a batch; heads take d = 2, the
# mixture D = 8.
SCORING_ENTRIES = {
    "pixel_scores": lambda mgp, heads, x: pixel_scores(heads.anomaly, x),
    "head_loss_anomaly": lambda mgp, heads, x: head_loss_anomaly(heads, x, np.arange(len(x)) % 2),
    "head_loss_normal": lambda mgp, heads, x: head_loss_normal(heads, x, np.arange(len(x)) % 2),
    "head_loss_residual": lambda mgp, heads, x: head_loss_residual(heads, mgp, x, np.arange(len(x)) % 2),
    "residual_grid": lambda mgp, heads, x: residual_grid(mgp, x),
    "anomaly_scores": lambda mgp, heads, x: anomaly_scores(mgp, heads, x),
    "anomaly_score": lambda mgp, heads, x: anomaly_score(mgp, heads, x[2]),
}


class TestInputGate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(SCORING_ENTRIES))
    def test_non_finite_row_is_named(self, rng, entry, bad):
        # The head losses pooled past a NaN or returned nan, an inf warned
        # "invalid value encountered in subtract", and pixel_scores passed both on.
        grids = rng.normal(size=(3, 2, 2, 2))
        grids[2, 1, 0, 1] = bad
        row = 0 if entry == "anomaly_score" else 2
        with pytest.raises(ValidationError, match=f"item at row {row} contains non-finite values"):
            SCORING_ENTRIES[entry](random_mgp(rng, 2, 8), random_heads(rng, 2), grids)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 1, 2)], ids=["channels", "dim"])
    @pytest.mark.parametrize("entry", sorted(SCORING_ENTRIES))
    def test_items_that_do_not_fit_the_model(self, rng, entry, shape):
        # Cells of d = 3 were numpy's "matmul: Input operand 1 has a mismatch
        # in its core dimension 0" in the head losses and pixel_scores.
        # Items of 4 values fit the heads' d = 2 but not the mixture's D = 8,
        # so pixel_scores and the two heads that read no mixture take them.
        mgp, heads = random_mgp(rng, 2, 8), random_heads(rng, 2)
        grids = rng.normal(size=(3,) + shape)
        if shape == (2, 1, 2) and entry in ("pixel_scores", "head_loss_anomaly", "head_loss_normal"):
            SCORING_ENTRIES[entry](mgp, heads, grids)
            return
        with pytest.raises(ValidationError, match=r"items of shape .* do not fit the model"):
            SCORING_ENTRIES[entry](mgp, heads, grids)

    def test_one_item_keeps_its_shape_and_rows_keep_theirs(self, rng):
        mgp = random_mgp(rng, 2, 8)
        heads = random_heads(rng, 2)
        grids = rng.normal(size=(3, 2, 2, 2))
        fm = FeatureMap(grids[1].astype(np.float32), 0, 0, "x")
        assert pixel_scores(heads.anomaly, grids).shape == (3, 2, 2)
        assert pixel_scores(heads.anomaly, fm).shape == (2, 2)
        assert residual_grid(mgp, list(grids)).shape == (3, 2, 2, 2)
        assert residual_grid(mgp, fm).tobytes() == residual_grid(mgp, fm.grid.astype(np.float64)).tobytes()
        with pytest.raises(ValidationError, match="takes one item"):
            anomaly_score(mgp, heads, grids)
        with pytest.raises(ValidationError, match="at least one item"):
            head_loss_normal(heads, [], [])
        with pytest.raises(ValidationError, match=r"\(N, H, W, d\) stack"):
            residual_grid(mgp, grids.reshape(3, 8))

    def test_scoring_a_dataset_checks_no_points(self, rng, monkeypatch):
        # plan_weights and posterior_mode_indices each ran MGP.points over
        # every pass; the rows were checked once by then.
        calls = []
        real_points = MGP.points
        monkeypatch.setattr(MGP, "points", lambda self, xs: calls.append(1) or real_points(self, xs))
        ds = Dataset(tuple(FeatureMap(rng.normal(size=(2, 2, 2)), 0, 0, f"f{i}") for i in range(40)))
        scores = anomaly_scores(random_mgp(rng, 2, 8), random_heads(rng, 2), ds)
        assert scores.shape == (40,) and calls == []


class TestHeadsContainer:
    def test_zeros_constructor(self):
        heads = ScoringHeads.zeros(6, topk_fraction=0.2)
        assert heads.channels == 6
        assert np.array_equal(heads.normal.w, np.zeros(6))
        assert heads.topk_fraction == 0.2

    def test_dimension_agreement_enforced(self):
        with pytest.raises(ValidationError):
            ScoringHeads(anomaly=LinearHead(np.zeros(2), np.zeros(1)),
                         normal=LinearHead(np.zeros(3), np.zeros(1)),
                         residual=LinearHead(np.zeros(2), np.zeros(1)))

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            ScoringHeads.zeros(2, topk_fraction=0.0)

    def test_head_shapes_enforced(self):
        for w, b in ((np.zeros((2, 2)), np.zeros(1)), (np.zeros(0), np.zeros(1)),
                     (np.zeros(2), np.zeros(0)), (np.zeros(2), np.zeros(2))):
            with pytest.raises(ValidationError):
                LinearHead(w, b)
        assert LinearHead(np.zeros(2), 0.5).b.shape == (1,)


class TestScoresCsv:
    def test_round_trips_seventeen_digits(self, tmp_path, rng):
        rows = [(f"item-{i}", i % 2, float(rng.normal())) for i in range(10)]
        path = tmp_path / "scores.csv"
        write_scores_csv(path, rows)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["source_id", "label", "score"]
            for (sid, label, score), got in zip(rows, reader):
                assert got[0] == sid
                assert int(got[1]) == label
                assert float(got[2]) == score
