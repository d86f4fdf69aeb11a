import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

from conftest import assert_close, random_params, traced_peak
from dpdl.errors import ValidationError
from dpdl.prototypes import (_ROW_BLOCK, MGP, MGPParams, _kmeans_pp_seed, _nearest_codewords,
                             _row_blocks, _row_norms, logsumexp, mgp_log_density, mgp_new,
                             mgp_realize, vq_init)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestLogsumexp:
    def test_random_inputs_match_scipy_bit_for_bit(self, rng):
        for _ in range(300):
            a = rng.normal(0.0, float(rng.choice([1e-3, 1.0, 30.0])), int(rng.integers(1, 40)))
            assert same_bits(logsumexp(a), scipy_logsumexp(a))

    def test_tied_maxima(self, rng):
        for _ in range(200):
            a = np.round(rng.normal(size=int(rng.integers(2, 12))), 0)
            a[rng.integers(0, a.size)] = a.max()
            assert same_bits(logsumexp(a), scipy_logsumexp(a))
        assert same_bits(logsumexp(np.zeros(5)), scipy_logsumexp(np.zeros(5)))

    def test_large_magnitudes(self, rng):
        for _ in range(100):
            a = rng.normal(0.0, 1.0, 32) * 1e8 + 3e8
            assert same_bits(logsumexp(a), scipy_logsumexp(a))

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_axis_one(self, rng, keepdims):
        a = rng.normal(0.0, 5.0, (7, 32))
        a[2, 3] = a[2].max()
        a[4, :] = 1.5
        assert same_bits(logsumexp(a, axis=1, keepdims=keepdims),
                         scipy_logsumexp(a, axis=1, keepdims=keepdims))
        assert same_bits(logsumexp(a, axis=0), scipy_logsumexp(a, axis=0))

    def test_infinite_entries(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            for a in ([-np.inf, -np.inf], [-np.inf, 0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0]):
                assert same_bits(logsumexp(np.array(a)), scipy_logsumexp(np.array(a)))


class TestRealized:
    def test_log_sigma_is_cached_log(self, rng):
        mgp = mgp_realize(random_params(rng, 3, 4))
        assert same_bits(mgp.log_sigma, np.log(mgp.sigma))
        assert mgp.log_sigma is mgp.log_sigma
        assert same_bits(mgp.sum_log_sigma, np.sum(np.log(mgp.sigma), axis=1))

    # The matrix-product forms sum over D in another order than the (B, C, D)
    # broadcast forms, so they agree to rounding: a few ulp per term over
    # D = 64 terms is under 1e-13 of the largest entry, while a wrong
    # coefficient or sign moves entries by a sizeable fraction of it.
    @pytest.mark.parametrize("epsilon", [1e-3, 0.3, 2.0])
    def test_tilted_logits_match_broadcast_form(self, rng, epsilon):
        for _ in range(10):
            mgp = mgp_realize(random_params(rng, 7, 64, epsilon=epsilon))
            xs = rng.normal(size=(5, 64))[:, None, :]
            direct = np.log(mgp.alpha) + np.sum(
                xs * mgp.mu / epsilon + xs * mgp.sigma * xs / (2.0 * epsilon ** 2), axis=2)
            assert_close(mgp.tilted_logits(xs[:, 0]), direct, 1e-12)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.3, 2.0])
    def test_sq_distances_match_broadcast_form(self, rng, epsilon):
        for _ in range(10):
            mgp = mgp_realize(random_params(rng, 7, 64, epsilon=epsilon))
            xs = rng.normal(size=(5, 64))
            # Points near the data and the shifted means mu_c + sigma_c x/eps
            # that one-hot conditional plans put their endpoints at.
            for ys in (xs, mgp.mu[[0, 3, 6]] + mgp.sigma[[0, 3, 6]] * xs[:3] / epsilon):
                direct = np.sum((ys[:, None, :] - mgp.mu) ** 2 / mgp.sigma, axis=2)
                assert_close(mgp.sq_distances(ys), direct, 1e-12)


class TestParams:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            MGPParams(a=np.zeros((2, 2)), m=np.zeros((2, 3)), s=np.zeros((2, 3)), epsilon=1.0)
        with pytest.raises(ValidationError):
            MGPParams(a=np.zeros(2), m=np.zeros((3, 3)), s=np.zeros((2, 3)), epsilon=1.0)
        with pytest.raises(ValidationError):
            MGPParams(a=np.zeros(2), m=np.zeros((2, 3)), s=np.zeros((2, 3)), epsilon=0.0)

    def test_new_from_codebook(self):
        book = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = mgp_new(book, 0.5)
        assert params.n_components == 2 and params.dim == 2
        assert np.array_equal(params.m, book)
        assert params.m is not book
        mgp = mgp_realize(params)
        assert np.allclose(mgp.alpha, [0.5, 0.5])
        assert np.array_equal(mgp.sigma, np.ones((2, 2)))
        assert mgp.epsilon == 0.5

    def test_realize_constraints(self, rng):
        params = random_params(rng, 5, 3)
        mgp = mgp_realize(params)
        assert mgp.alpha.min() > 0
        assert abs(mgp.alpha.sum() - 1.0) < 1e-12
        assert np.all(mgp.sigma > 0)
        assert np.allclose(mgp.sigma, np.exp(params.s))

    def test_realize_rejects_nonfinite(self):
        params = mgp_new(np.zeros((1, 1)), 1.0)
        params.m[0, 0] = np.inf
        with pytest.raises(ValidationError):
            mgp_realize(params)


class TestLogDensity:
    def test_single_gaussian_matches_scipy(self, rng):
        mu = np.array([[0.3, -1.1]])
        sigma = np.array([[0.7, 2.0]])
        mgp = MGP(alpha=np.array([1.0]), mu=mu, sigma=sigma, epsilon=1.0)
        pts = rng.normal(size=(20, 2))
        want = (norm.logpdf(pts[:, 0], 0.3, np.sqrt(0.7))
                + norm.logpdf(pts[:, 1], -1.1, np.sqrt(2.0)))
        got = mgp_log_density(mgp, pts)
        assert np.allclose(got, want, atol=1e-12)

    def test_mixture_is_logsumexp_of_components(self, rng):
        from conftest import random_mgp
        mgp = random_mgp(rng, 3, 2)
        pt = rng.normal(size=2)
        parts = [np.log(mgp.alpha[c])
                 + norm.logpdf(pt[0], mgp.mu[c, 0], np.sqrt(mgp.sigma[c, 0]))
                 + norm.logpdf(pt[1], mgp.mu[c, 1], np.sqrt(mgp.sigma[c, 1]))
                 for c in range(3)]
        want = np.logaddexp.reduce(parts)
        assert abs(mgp_log_density(mgp, pt[None])[0] - want) < 1e-12

    def test_density_normalizes_in_1d(self, rng):
        from conftest import random_mgp
        mgp = random_mgp(rng, 4, 1)
        lo = float((mgp.mu - 10 * np.sqrt(mgp.sigma)).min())
        hi = float((mgp.mu + 10 * np.sqrt(mgp.sigma)).max())
        grid = np.linspace(lo, hi, 200_001)
        vals = np.exp(mgp_log_density(mgp, grid[:, None]))
        assert abs(np.trapezoid(vals, grid) - 1.0) < 1e-8

    def test_point_dimension_mismatch(self):
        mgp = MGP(alpha=np.array([1.0]), mu=np.zeros((1, 2)),
                  sigma=np.ones((1, 2)), epsilon=1.0)
        with pytest.raises(ValidationError):
            mgp_log_density(mgp, np.zeros((1, 3)))

    def test_batch_and_single_agree(self, rng):
        from conftest import random_mgp
        mgp = random_mgp(rng, 2, 3)
        pts = rng.normal(size=(5, 3))
        batch = mgp_log_density(mgp, pts)
        singles = [mgp_log_density(mgp, p[None])[0] for p in pts]
        assert np.allclose(batch, singles, atol=0)

    def test_shared_kernel_against_direct_formula(self, rng):
        lw = np.log(np.array([0.25, 0.75]))
        means = rng.normal(size=(2, 2))
        variances = np.exp(rng.normal(size=(2, 2)))
        pt = rng.normal(size=2)
        comps = [lw[c] - 0.5 * np.sum((pt - means[c]) ** 2 / variances[c])
                 - 0.5 * np.sum(np.log(2 * np.pi * variances[c])) for c in range(2)]
        mgp = MGP(alpha=np.array([0.25, 0.75]), mu=means, sigma=variances, epsilon=1.0)
        assert abs(mgp_log_density(mgp, pt[None])[0] - np.logaddexp(*comps)) < 1e-12

    def test_wide_batch_builds_no_component_tensor(self):
        # One (N, C, D) float64 array would take 134 MB here; the expanded
        # distances need a few (N, D), (C, D) and (N, C) arrays.
        from conftest import random_mgp
        from dpdl.bridge import conditional_plan
        n, c, d = 512, 32, 1024
        rng = np.random.default_rng(8)
        mgp = random_mgp(rng, c, d, epsilon=2.0)
        pts = mgp.mu[rng.integers(0, c, n)] + rng.normal(size=(n, d))
        cond = conditional_plan(mgp, rng.normal(size=d))
        cases = ((lambda: mgp_log_density(mgp, pts), mgp.mu, mgp.sigma, mgp.alpha),
                 (lambda: cond.log_density(pts), cond.means, cond.variances, cond.weights))
        for density, means, variances, weights in cases:
            got, peak = traced_peak(density)
            assert peak < 3 * 8 * (n * d + c * d + n * c)
            diff = pts[:4, None, :] - means[None]
            direct = scipy_logsumexp(np.log(weights) - 0.5 * np.sum(
                diff * diff / variances + np.log(2 * np.pi * variances), axis=2), axis=1)
            assert_close(got[:4], direct, rtol=1e-12)


def direct_kmeans_pp_seed(x, k, rng):
    """Seeding with distances summed over (N, D) differences, as a reference."""
    n = x.shape[0]
    codebook = np.empty((k, x.shape[1]))
    codebook[0] = x[int(rng.integers(0, n))]
    closest = np.sum((x - codebook[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            codebook[j] = x[int(rng.integers(0, n))]
            continue
        idx = int(rng.choice(n, p=closest / total))
        codebook[j] = x[idx]
        closest = np.minimum(closest, np.sum((x - codebook[j]) ** 2, axis=1))
    return codebook


class TestKmeansSeed:
    @pytest.mark.parametrize("shape", [(50, 3), (200, 64), (90, 1024)])
    def test_matches_direct_distances(self, shape):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=shape) * 2.0 + 1.0
            got = _kmeans_pp_seed(x, np.sum(x * x, axis=1), 8, np.random.default_rng(seed))
            want = direct_kmeans_pp_seed(x, 8, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_all_points_coincide(self, rng):
        point = rng.normal(size=257) * 3.0 + 7.3
        x = np.tile(point, (6, 1))
        codebook = _kmeans_pp_seed(x, np.sum(x * x, axis=1), 4, np.random.default_rng(0))
        assert np.array_equal(codebook, np.tile(point, (4, 1)))

    def test_copies_of_a_codeword_are_at_distance_zero(self, rng):
        # Three distinct points, each repeated, and more codewords than
        # points.  At this size the expanded distance between copies rounds
        # to nonzero values; they must count as zero, so that seeding picks
        # the three points and then takes the all-coincide branch exactly
        # where the direct distances do.
        points = rng.normal(size=(3, 257)) * 3.0 + 7.3
        x = np.repeat(points, 5, axis=0)
        for seed in range(10):
            got = _kmeans_pp_seed(x, np.sum(x * x, axis=1), 6, np.random.default_rng(seed))
            want = direct_kmeans_pp_seed(x, 6, np.random.default_rng(seed))
            assert len({row.tobytes() for row in got[:3]}) == 3
            assert np.array_equal(got, want)


def direct_sq_dists(x, codebook):
    """(N, C) squared distances summed over (N, C, D) differences."""
    return ((x[:, None, :] - codebook[None, :, :]) ** 2).sum(-1)


def nearest(x, codebook):
    return _nearest_codewords(x, np.sum(x * x, axis=1), codebook)


class TestNearestCodewords:
    @pytest.mark.parametrize("shape", [(40, 3, 5), (120, 256, 16)])
    def test_matches_direct_distances(self, rng, shape):
        n, d, k = shape
        x = rng.normal(size=(n, d)) * 2.0 + 1.0
        codebook = rng.normal(size=(k, d)) * 2.0 + 1.0
        idx, d2 = nearest(x, codebook)
        want = direct_sq_dists(x, codebook)
        assert np.array_equal(idx, want.argmin(1))
        assert np.allclose(d2, want.min(1), rtol=1e-12, atol=0)

    def test_clipped_at_zero(self, rng):
        # Copies of far-off codewords: the expanded form rounds to small
        # values of either sign there.
        codebook = rng.normal(size=(3, 257)) * 3.0 + 7.3
        x = np.repeat(codebook, 4, axis=0)
        raw = np.sum(x * x, axis=1)[:, None] - 2.0 * (x @ codebook.T) + np.sum(codebook * codebook, axis=1)
        assert raw.min() < 0
        idx, d2 = nearest(x, codebook)
        assert np.all(d2 >= 0)
        assert np.array_equal(d2, np.maximum(raw, 0.0).min(1))
        assert np.array_equal(idx, np.repeat(np.arange(3), 4))

    def test_duplicate_codewords_go_to_the_lowest_index(self, rng):
        a, b = rng.normal(size=(2, 64)) * 3.0 + 7.3
        codebook = np.array([b, a, b, a])
        x = np.array([a, b, a + 1e-3, b - 1e-3])
        idx, _ = nearest(x, codebook)
        assert idx.tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("data", ["blobs", "copies"])
    def test_vq_init_is_a_direct_distance_lloyd(self, data):
        # Lloyd with (N, C, D) differences, seeded as vq_init seeds.  The
        # copies are five small-integer points, exact in either form, so
        # three of the eight codewords start as duplicates and their
        # clusters come out empty.
        rng = np.random.default_rng(11)
        if data == "blobs":
            centers = rng.normal(size=(6, 128)) * 3.0
            x = centers[rng.integers(0, 6, size=300)] + rng.normal(size=(300, 128))
        else:
            x = np.tile(rng.integers(-3, 4, size=(5, 128)).astype(np.float64), (60, 1))
        k, seed = 8, 4
        codebook = direct_kmeans_pp_seed(x, k, np.random.default_rng(seed))
        assignment = np.zeros(len(x), dtype=np.int64)
        reseeded = 0
        for it in range(100):
            dist2 = direct_sq_dists(x, codebook)
            new = dist2.argmin(1)
            if it > 0 and np.array_equal(new, assignment):
                break
            assignment = new
            residual = dist2.min(1)
            for j in range(k):
                if np.any(assignment == j):
                    codebook[j] = x[assignment == j].mean(axis=0)
            for j in np.flatnonzero(np.bincount(assignment, minlength=k) == 0):
                far = int(np.argmax(residual))
                codebook[j] = x[far]
                residual[far] = -1.0
                reseeded += 1
        init = vq_init(x, k, seed=seed)
        assert it > 1 if data == "blobs" else reseeded == 3
        assert np.array_equal(init.assignment, assignment)
        assert np.array_equal(init.codebook, codebook)

class TestVQ:
    def test_trivial_codebook_equals_points(self, rng):
        x = rng.normal(size=(6, 3))
        init = vq_init(x, 6, seed=1)
        assert init.quantization_error < 1e-24
        got = sorted(map(tuple, np.round(init.codebook, 9)))
        want = sorted(map(tuple, np.round(x, 9)))
        assert got == want

    def test_error_monotone_nonincreasing(self, rng):
        x = np.concatenate([rng.normal(0, 1, (40, 4)),
                            rng.normal(5, 1, (40, 4)),
                            rng.normal(-5, 1, (40, 4))])
        init = vq_init(x, 8, seed=2)
        errs = np.array(init.errors)
        assert len(errs) >= 2
        assert np.all(np.diff(errs) <= 1e-12)
        assert init.quantization_error == errs[-1]

    def test_two_blob_recovery(self, rng):
        x = np.concatenate([rng.normal(-4, 0.3, (30, 2)), rng.normal(4, 0.3, (30, 2))])
        init = vq_init(x, 2, seed=0)
        centers = init.codebook[np.argsort(init.codebook[:, 0])]
        assert np.allclose(centers[0], [-4, -4], atol=0.5)
        assert np.allclose(centers[1], [4, 4], atol=0.5)
        assert (init.assignment[:30] == init.assignment[0]).all()
        assert (init.assignment[30:] == init.assignment[30]).all()
        assert init.assignment[0] != init.assignment[30]

    def test_deterministic(self, rng):
        x = rng.normal(size=(25, 3))
        a = vq_init(x, 5, seed=7)
        b = vq_init(x, 5, seed=7)
        assert np.array_equal(a.codebook, b.codebook)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.errors == b.errors

    def test_duplicate_points_are_handled(self):
        # More codewords than distinct points forces empty-cluster reseeding.
        x = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[2.0, 0.0]])
        init = vq_init(x, 4, seed=3)
        assert np.all(np.isfinite(init.codebook))
        assert np.all(np.diff(np.array(init.errors)) <= 1e-12)

    def test_validation(self, rng):
        x = rng.normal(size=(4, 2))
        with pytest.raises(ValidationError):
            vq_init(x, 5)
        with pytest.raises(ValidationError):
            vq_init(x, 0)
        with pytest.raises(ValidationError):
            vq_init(np.zeros((0, 2)), 1)
        with pytest.raises(ValidationError):
            vq_init(x, 2, max_iters=0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"n_codewords": 2.5}, "n_codewords"),
        ({"n_codewords": True}, "n_codewords"), ({"max_iters": 2.5}, "max_iters")])
    def test_arguments_that_are_not_integers_in_range_are_named(self, rng, kwargs, name):
        # Each escaped as a numpy or Python ValueError or TypeError.
        with pytest.raises(ValidationError, match=name):
            vq_init(rng.normal(size=(4, 2)), **{"n_codewords": 2, **kwargs})

    def test_numpy_integer_arguments_are_accepted(self, rng):
        x = rng.normal(size=(9, 2))
        want = vq_init(x, 3, max_iters=5, seed=4)
        got = vq_init(x, np.int64(3), max_iters=np.int32(5), seed=np.uint8(4))
        assert same_bits(got.codebook, want.codebook)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_feature_is_refused(self, rng, value):
        # A NaN escaped as "Probabilities contain NaN" from the seeding draw;
        # 1e200 is finite but its square overflows the row norm.
        x = rng.normal(size=(6, 3))
        x[4, 1] = value
        with pytest.raises(ValidationError, match="features row 4"):
            vq_init(x, 2)

    def test_working_memory_is_a_row_block_and_cluster_sized(self):
        # 16 tight blobs of 128 points in D = 1024: the input is 16.8 MB, and
        # a whole (N, D) square of it would alone exceed this bound.
        # Beyond its input a fit holds one row block of the norm pass, the
        # rows of one cluster while a Lloyd update averages them, and
        # arrays of shape (N,), (N, C) and (C, D).
        n, d, c = 2048, 1024, 16
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 100.0, (c, d))[np.arange(n) % c] + rng.normal(0.0, 0.1, (n, d))
        init, peak = traced_peak(vq_init, x, c, seed=0)
        assert np.bincount(init.assignment).tolist() == [n // c] * c
        bound = 8 * (_ROW_BLOCK + (n // c) * d + 4 * (n * c + c * d + n))
        assert peak <= bound < x.nbytes


ROWS_PER_BLOCK = _ROW_BLOCK // 1024


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 5 * ROWS_PER_BLOCK])
    def test_blocks_cover_the_rows_in_order(self, n):
        blocks = list(_row_blocks(n, 1024))
        assert [r for b in blocks for r in range(n)[b]] == list(range(n))
        assert all(b.stop - b.start <= ROWS_PER_BLOCK for b in blocks)

    def test_a_row_wider_than_a_block_is_a_block_of_its_own(self):
        assert list(_row_blocks(3, 2 * _ROW_BLOCK)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert list(_row_blocks(2, 0)) == [slice(0, 2)]

    @pytest.mark.parametrize("n", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1])
    def test_row_norms_have_the_bits_of_the_whole_array_sum(self, n):
        x = np.random.default_rng(n).normal(0.0, 3.0, (n, 1024))
        assert same_bits(_row_norms(x), np.sum(x * x, axis=1))
