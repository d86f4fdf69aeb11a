import copy
import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import traced_peak
from dpdl.configio import coerce_fields, parse_kv_text
from dpdl.errors import CorruptionError, FormatError, NumericError, ValidationError
from dpdl import training
from dpdl.features import (Dataset, FeatureMap, SplitPlan, SynthConfig, cutmix_pseudo_anomaly,
                           make_splits, synth_generate)
from dpdl.prototypes import _ROW_BLOCK, vq_init
from dpdl.scoring import HeadLoss
from dpdl.training import (Checkpoint, OptimizerState, TrainConfig, _draw_batch, load_checkpoint,
                           optimizer_step, parse_train_config, save_checkpoint, train)

H, W, D = 2, 2, 3


def tiny_dataset(n_normal=12, n_anomaly=4, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_normal):
        grid = rng.normal(0.0, 0.1, size=(H, W, D)).astype(np.float32)
        items.append(FeatureMap(grid, 0, 0, f"n{i:03d}"))
    for i in range(n_anomaly):
        grid = rng.normal(0.0, 0.1, size=(H, W, D)).astype(np.float32)
        grid[0, 0] += 2.0
        items.append(FeatureMap(grid, 1, 1, f"a{i:03d}"))
    return Dataset(tuple(items), name="tiny")


def tiny_split(dataset, n_train_anomalies=2):
    normals = [i for i, it in enumerate(dataset.items) if it.label == 0]
    anomalies = [i for i, it in enumerate(dataset.items) if it.label == 1]
    return SplitPlan(
        train_normal_ids=tuple(normals[:-2]),
        train_anomaly_ids=tuple(anomalies[:n_train_anomalies]),
        test_ids=tuple(normals[-2:] + anomalies[n_train_anomalies:]),
        protocol="general", m=n_train_anomalies, seed=0)


def tiny_config(**kw):
    base = dict(epochs=2, iters_per_epoch=3, batch_size=4, learning_rate=0.01,
                weight_decay=1e-4, lambda_=0.01, kappa=2.0, epsilon=0.5,
                n_prototypes=4, topk_fraction=0.25, pseudo_anomaly_rate=0.25,
                seed=3)
    base.update(kw)
    return TrainConfig(**base)


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if a.config != b.config or a.epoch != b.epoch or a.rng_state != b.rng_state:
        return False
    if a.opt.step != b.opt.step:
        return False
    pairs = [(a.params.a, b.params.a), (a.params.m, b.params.m), (a.params.s, b.params.s)]
    for ha, hb in ((a.heads.anomaly, b.heads.anomaly), (a.heads.normal, b.heads.normal),
                   (a.heads.residual, b.heads.residual)):
        pairs += [(ha.w, hb.w), (ha.b, hb.b)]
    for k in a.opt.exp_avg:
        pairs += [(a.opt.exp_avg[k], b.opt.exp_avg[k]),
                  (a.opt.exp_avg_sq[k], b.opt.exp_avg_sq[k])]
    return all(np.array_equal(x, y) for x, y in pairs)


def message(info, path) -> str:
    """The error's message without ``path``: pytest names each tmp directory
    after its test, so a word of the test's name is always in the path."""
    return str(info.value).replace(str(path), "<path>")


def config_span(blob: bytes) -> slice:
    """Where a saved checkpoint's config text lies: after the header, for the length it states."""
    start = training._CKPT_HEADER.size
    return slice(start, start + training._CKPT_HEADER.unpack_from(blob)[2])


def one_array(n):
    """A layout of one n-vector named "x"."""
    return (("x", (n,)),)


def fresh_state(n):
    return OptimizerState(np.zeros((2, n)), one_array(n))


class TestOptimizerStep:
    def test_single_step_hand_value(self):
        theta = np.array([1.0])
        state = fresh_state(1)
        optimizer_step(theta, np.array([1.0]), state, 0.1, 0.0)
        # bias correction makes the first step lr * g/|g| up to eps_hat
        want = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert theta[0] == pytest.approx(want, abs=1e-16)
        assert state.step == 1

    def test_weight_decay_is_decoupled(self):
        # Zero gradient: the only motion is multiplicative decay.
        theta = np.array([2.0])
        state = fresh_state(1)
        for _ in range(5):
            optimizer_step(theta, np.zeros(1), state, 0.1, 0.5)
        assert theta[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5) ** 5, rel=1e-14)

    def test_three_steps_match_manual_recurrence(self, rng):
        lr, wd, b1, b2, eh = 0.05, 0.01, 0.9, 0.999, 1e-8
        theta = rng.normal(size=4)
        ref = theta.copy()
        grads = [rng.normal(size=4) for _ in range(3)]
        state = fresh_state(4)
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            optimizer_step(theta, g.copy(), state, lr, wd)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref = ref - lr * (mh / (np.sqrt(vh) + eh) + wd * ref)
        assert np.allclose(theta, ref, atol=1e-15)
        assert np.array_equal(state.exp_avg["x"], state.moments[0])

    # The whole-vector AdamW, one numpy pass per operation, as optimizer_step
    # ran it before it went block by block.  θ spans two full blocks and a
    # part; clipped, the gradient's norm is about 256.
    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_blocks_equal_the_one_pass_formula(self, rng, scale):
        n = 2 * training._STEP_BLOCK + 7
        lr, wd, b1, b2, eh = 0.05, 0.01, 0.9, 0.999, 1e-8
        theta = rng.normal(size=n)
        ref, m, v = theta.copy(), np.zeros(n), np.zeros(n)
        state = fresh_state(n)
        for t in range(1, 5):
            g = rng.normal(size=n) * scale
            grad = g.copy()
            optimizer_step(theta, grad, state, lr, wd)
            total = np.sqrt(g @ g)
            assert (total > training.GRAD_CLIP_NORM) == (scale == 1.0)
            if total > training.GRAD_CLIP_NORM:
                g *= training.GRAD_CLIP_NORM / total
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            ref -= lr * ((m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eh) + wd * ref)
            for got, want in ((grad, g), (theta, ref), (state.moments[0], m), (state.moments[1], v)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_shape_mismatches(self):
        theta = np.zeros(2)
        state = fresh_state(2)
        with pytest.raises(ValidationError):
            optimizer_step(theta, np.zeros(3), state, 0.1, 0.0)
        with pytest.raises(ValidationError):
            optimizer_step(np.zeros(3), np.zeros(3), state, 0.1, 0.0)


class TestGradClip:
    # optimizer_step clips the gradient in place before it updates.
    def test_rescales_to_max_norm(self):
        grad = np.full(4 + 9, 10.0)  # norm sqrt(1300)
        state = OptimizerState(np.zeros((2, 13)), (("a", (4,)), ("b", (9,))))
        optimizer_step(np.zeros(13), grad, state, 0.1, 0.0)
        assert np.sqrt(np.sum(grad * grad)) == pytest.approx(10.0, rel=1e-12)
        # direction preserved
        assert np.allclose(grad / grad[0], np.ones(13), atol=1e-15)

    def test_leaves_small_gradients_alone(self):
        g = np.array([1.0, 2.0, 3.0])
        grad = g.copy()
        optimizer_step(np.zeros(3), grad, fresh_state(3), 0.1, 0.0)
        assert np.array_equal(grad, g)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 50 and cfg.lambda_ == 0.01

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("iters_per_epoch", 0), ("batch_size", 0),
        ("n_prototypes", 0), ("learning_rate", 0.0), ("weight_decay", -1.0),
        ("lambda_", -0.1), ("kappa", -1.0), ("epsilon", 0.0),
        ("topk_fraction", 0.0), ("topk_fraction", 1.5),
        ("pseudo_anomaly_rate", -0.1), ("pseudo_anomaly_rate", 1.1),
        ("residual_scale", "mad"), ("protocol", "open"), ("m", -1), ("seed", -1),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValidationError):
            dataclasses.replace(TrainConfig(), **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)
                                       if f.type == "float"])
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(TrainConfig(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", "x"), ("learning_rate", True), ("epochs", 1.5), ("batch_size", 4.0),
        ("epochs", True), ("seed", np.bool_(False)), ("residual_scale", 1),
    ])
    def test_rejects_value_of_another_type(self, field, value):
        # A config built in Python skips a file's coercion: "x" was a bare
        # TypeError, epochs=1.5 and batch_size=4.0 failed inside train, and
        # epochs=True trained one epoch.
        with pytest.raises(ValidationError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_numpy_integers_and_ints_for_floats_are_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.uint8(4), kappa=2, learning_rate=np.float64(0.5))
        assert cfg.epochs == 3 and cfg.batch_size == 4 and cfg.kappa == 2.0


class TestConfigParsing:
    def test_kv_text_basics(self):
        raw = parse_kv_text("a = 1\n# comment\n\n b=2 # trailing\n")
        assert raw == {"a": "1", "b": "2"}

    def test_kv_text_errors(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")
        with pytest.raises(ValidationError, match="key = value"):
            parse_kv_text("just words\n")
        with pytest.raises(ValidationError, match="empty key"):
            parse_kv_text("= 3\n")

    def test_coerce_reports_accepted_keys(self):
        with pytest.raises(ValidationError, match="accepted keys"):
            coerce_fields(TrainConfig, {"learning_rat": "0.1"})
        with pytest.raises(ValidationError, match="integer"):
            coerce_fields(TrainConfig, {"epochs": "2.5"})

    def test_lambda_alias_and_overrides(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("lambda = 0.5\nepochs = 7\nkappa = 3\n")
        cfg = parse_train_config(path)
        assert cfg.lambda_ == 0.5 and cfg.epochs == 7 and cfg.kappa == 3.0
        cfg = parse_train_config(path, epochs=9, seed=11)
        assert cfg.epochs == 9 and cfg.seed == 11 and cfg.lambda_ == 0.5

    def test_no_path_gives_the_defaults_with_overrides(self):
        assert parse_train_config(None) == TrainConfig()
        assert parse_train_config(None, epochs=9, seed=11) == TrainConfig(epochs=9, seed=11)

    def test_lambda_underscore_spelling_also_accepted(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("lambda_ = 0.5\n")
        assert parse_train_config(path).lambda_ == 0.5

    def test_two_keys_for_one_field_are_rejected(self, tmp_path):
        # The later line used to win without a word.
        path = tmp_path / "t.cfg"
        path.write_text("lambda = 0.5\nlambda_ = 0.1\n")
        with pytest.raises(ValidationError, match="'lambda' and 'lambda_' both set lambda_"):
            parse_train_config(path)

    def test_bundled_benchmark_config_parses(self):
        from importlib import resources
        with resources.as_file(resources.files("dpdl") / "configs" / "train_benchmark.cfg") as p:
            cfg = parse_train_config(p)
        assert cfg == TrainConfig()


class TestDrawBatch:
    # Item k's grid is the constant k + 1 (normals) or -(k + 1) (anomalies),
    # so a row of the drawn stack names the item it came from.
    def make_items(self, n_normal, n_anomaly):
        items = [FeatureMap(np.full((H, W, D), i + 1.0, dtype=np.float32), 0, 0, f"n{i}")
                 for i in range(n_normal)]
        items += [FeatureMap(np.full((H, W, D), -(i + 1.0), dtype=np.float32), 1, 1, f"a{i}")
                  for i in range(n_anomaly)]
        return items

    @staticmethod
    def names(grids):
        return [f"n{int(v) - 1}" if v > 0 else f"a{int(-v) - 1}" for v in grids[:, 0, 0, 0]]

    def test_composition_counts_and_order(self):
        items = self.make_items(8, 3)
        rng = np.random.default_rng(0)
        grids, labels = _draw_batch(Dataset(items), list(range(8)), [8, 9, 10], 4, 2, rng)
        assert grids.shape == (4 + 3 + 2, H, W, D) and grids.dtype == np.float64
        assert labels.tolist() == [0, 0, 0, 0] + [1] * 5
        # few anomalies: every one of them appears, in pool order
        assert self.names(grids[4:7]) == ["a0", "a1", "a2"]
        # normals drawn without replacement when the pool is big enough
        normals = self.names(grids[:4])
        assert len(set(normals)) == 4 and all(name[0] == "n" for name in normals)

    def test_many_anomalies_subsampled_sorted(self):
        items = self.make_items(8, 15)
        rng = np.random.default_rng(1)
        grids, labels = _draw_batch(Dataset(items), list(range(8)), list(range(8, 23)), 4, 0, rng)
        picked = self.names(grids[4:])
        assert len(picked) == 10
        assert len(set(picked)) == 10 and all(name[0] == "a" for name in picked)
        assert picked == sorted(picked, key=lambda s: int(s[1:]))

    def test_small_normal_pool_draws_with_replacement(self):
        items = self.make_items(2, 0)
        rng = np.random.default_rng(2)
        grids, labels = _draw_batch(Dataset(items), [0, 1], [], 5, 0, rng)
        assert grids.shape[0] == 5 and labels.tolist() == [0] * 5
        assert set(self.names(grids)) <= {"n0", "n1"}

    def test_pseudo_items_are_labeled_anomalous(self):
        items = self.make_items(8, 2)
        rng = np.random.default_rng(3)
        grids, labels = _draw_batch(Dataset(items), list(range(8)), [8, 9], 4, 3, rng)
        assert grids.shape[0] == 4 + 2 + 3
        assert labels[4 + 2:].tolist() == [1, 1, 1]

    def test_pseudo_rows_replay_cutmix_bit_for_bit(self):
        # Random non-square grids, so a misplaced rectangle shows in the rows, and
        # 15 anomalies, so the anomaly subsample draws before the pseudo rows.
        rng = np.random.default_rng(4)
        ds = Dataset([FeatureMap(rng.normal(size=(5, 4, 3)).astype(np.float32), int(i >= 8), 0, f"x{i}")
                      for i in range(23)])
        normal_pool, anomaly_pool = list(range(8)), list(range(8, 23))
        state = rng.bit_generator.state
        grids, labels = _draw_batch(ds, normal_pool, anomaly_pool, 4, 6, rng)
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        replay.choice(8, size=4, replace=False)
        replay.choice(15, size=10, replace=False)
        for row in range(4 + 10, 4 + 10 + 6):
            base = ds.items[normal_pool[replay.integers(8)]]
            donor = ds.items[(normal_pool + anomaly_pool)[replay.integers(23)]]
            want = cutmix_pseudo_anomaly(base, donor, replay)
            assert grids[row].tobytes() == want.grid.astype(np.float64).tobytes()
            assert labels[row] == want.label
        assert replay.bit_generator.state == rng.bit_generator.state


class TestTrainMemory:
    def test_pool_is_promoted_in_blocks_and_dropped_before_the_first_step(self, monkeypatch):
        # 8x8x64 grids and 900 training normals: the float64 pool is 29.5 MB.
        # Promoted and squared whole, the pool and its square would be held
        # at once, past this bound.  Promoted and squared one row block at a
        # time, a run holds beyond the pool one row block, one cluster's
        # rows while a Lloyd update averages them, and slack for the model
        # (θ, its gradient, AdamW's two moments, the realized mixture) and
        # the batch, counted as 12 θ.  The pool must be gone by the first
        # batch draw.
        ds = synth_generate(SynthConfig(height=8, width=8, channels=64, n_per_normal_cluster=600,
                                        n_context_channels=8), seed=0)
        split = make_splits(ds, "general", 4, seed=0)
        config = tiny_config(epochs=1, iters_per_epoch=2, batch_size=8, n_prototypes=8)
        held_at_first_step = []
        real_draw_batch = training._draw_batch

        def draw_batch(*args):
            held_at_first_step.append(tracemalloc.get_traced_memory()[0])
            return real_draw_batch(*args)

        monkeypatch.setattr(training, "_draw_batch", draw_batch)
        result, peak = traced_peak(train, ds, split, config)
        pool = ds.flats(np.array(split.train_normal_ids))
        cluster = np.bincount(vq_init(pool, 8, seed=config.seed).assignment).max()
        theta = result.checkpoint.theta.nbytes
        bound = pool.nbytes + 8 * (_ROW_BLOCK + cluster * pool.shape[1]) + 12 * theta
        assert peak < bound < 2 * pool.nbytes
        assert held_at_first_step[0] < pool.nbytes / 2


class TestTrainLoop:
    def test_log_rows_are_additive(self):
        ds = tiny_dataset()
        res = train(ds, tiny_split(ds), tiny_config())
        assert len(res.log) == 2
        for i, row in enumerate(res.log):
            assert row.epoch == i + 1
            parts = row.l_ma + row.l_mn + row.l_mr + row.l_dpl_n + row.l_dpl_a \
                + tiny_config().lambda_ * row.l_dfl
            assert row.total == pytest.approx(parts, abs=1e-12)

    def test_rerun_is_bit_identical(self):
        ds = tiny_dataset()
        split = tiny_split(ds)
        r1 = train(ds, split, tiny_config())
        r2 = train(ds, split, tiny_config())
        assert checkpoints_equal(r1.checkpoint, r2.checkpoint)
        assert r1.log == r2.log

    def test_initial_prototypes_come_from_mgp_new(self, monkeypatch):
        # train writes mgp_new's a, m and s into θ, so a change to the
        # initial rule there reaches training.
        real_new, real_realize = training.mgp_new, training.mgp_realize
        sigmas = []

        def doubled_variances(init, epsilon):
            params = real_new(init, epsilon)
            params.s[...] = np.log(2.0)
            return params

        def watch(params):
            mgp = real_realize(params)
            sigmas.append(mgp.sigma.copy())
            return mgp

        monkeypatch.setattr(training, "mgp_new", doubled_variances)
        monkeypatch.setattr(training, "mgp_realize", watch)
        ds = tiny_dataset()
        train(ds, tiny_split(ds), tiny_config(epochs=1))
        assert np.allclose(sigmas[0], 2.0, rtol=1e-15, atol=0.0)

    def test_seed_changes_the_run(self):
        ds = tiny_dataset()
        split = tiny_split(ds)
        r1 = train(ds, split, tiny_config(seed=3))
        r2 = train(ds, split, tiny_config(seed=4))
        assert not np.array_equal(r1.checkpoint.params.m, r2.checkpoint.params.m)

    def test_no_anomalies_and_no_pseudos_zero_that_column(self):
        ds = tiny_dataset(n_anomaly=0)
        split = tiny_split(ds, n_train_anomalies=0)
        res = train(ds, split, tiny_config(pseudo_anomaly_rate=0.0))
        assert all(row.l_dpl_a == 0.0 for row in res.log)

    def test_prototype_fit_improves(self):
        # Dispersion off and normals only: the prototype fit has plenty of
        # room to drop from the unit-variance init on 0.1-scale data.
        ds = tiny_dataset(n_anomaly=0)
        split = tiny_split(ds, n_train_anomalies=0)
        cfg = tiny_config(epochs=8, iters_per_epoch=5, batch_size=8, learning_rate=0.05,
                          lambda_=0.0, pseudo_anomaly_rate=0.0, weight_decay=0.0,
                          epsilon=1.0, n_prototypes=2)
        res = train(ds, split, cfg)
        assert res.log[-1].l_dpl_n < res.log[0].l_dpl_n - 0.01

    def test_realizes_the_mixture_once_per_step(self, monkeypatch):
        from dpdl import losses, prototypes
        calls = []
        realize = prototypes.mgp_realize

        def counted(params):
            calls.append(1)
            return realize(params)
        for module in (prototypes, losses, training):
            monkeypatch.setattr(module, "mgp_realize", counted)
        ds = tiny_dataset()
        res = train(ds, tiny_split(ds), tiny_config(epochs=2))
        assert res.checkpoint.opt.step == 6
        assert len(calls) == 6

    def test_unitizes_the_batch_once_per_step(self, monkeypatch):
        calls = []
        batch_unitize = training.unitize

        def counted(x):
            calls.append(x.shape)
            return batch_unitize(x)
        monkeypatch.setattr(training, "unitize", counted)
        ds = tiny_dataset()
        res = train(ds, tiny_split(ds), tiny_config(epochs=2))
        assert res.checkpoint.opt.step == 6
        # 4 normals, 2 observed anomalies and 1 pseudo-anomaly of H * W * D values
        assert calls == [(4 + 2 + 1, H * W * D)] * 6

    def test_split_validation(self):
        ds = tiny_dataset()
        bad = SplitPlan(train_normal_ids=(0, 99), train_anomaly_ids=(), test_ids=(1,),
                        protocol="general", m=0, seed=0)
        with pytest.raises(ValidationError):
            train(ds, bad, tiny_config())
        empty = SplitPlan(train_normal_ids=(), train_anomaly_ids=(), test_ids=(1,),
                          protocol="general", m=0, seed=0)
        with pytest.raises(ValidationError):
            train(ds, empty, tiny_config())
        # Items 0-11 are normals and 12-15 anomalies.
        swapped = SplitPlan(train_normal_ids=(12, 13, 14), train_anomaly_ids=(0, 1), test_ids=(15,),
                            protocol="general", m=2, seed=0)
        with pytest.raises(ValidationError, match="item 12 a training normal, but its label is 1"):
            train(ds, swapped, tiny_config(n_prototypes=2))
        mislabelled = SplitPlan(train_normal_ids=tuple(range(2, 12)), train_anomaly_ids=(12, 0),
                                test_ids=(1,), protocol="general", m=2, seed=0)
        with pytest.raises(ValidationError, match="item 0 a training anomaly, but its label is 0"):
            train(ds, mislabelled, tiny_config())
        small = SplitPlan(train_normal_ids=(0, 1, 2), train_anomaly_ids=(12,), test_ids=(3,),
                          protocol="general", m=1, seed=0)
        with pytest.raises(ValidationError, match="n_prototypes 4 exceeds the 3 training normals"):
            train(ds, small, tiny_config())

    def test_one_row_step_is_refused_before_the_fit(self, monkeypatch):
        # One normal, no training anomaly and floor(0.25 * 1) = 0
        # pseudo-anomalies: the dispersion loss of such a step has no pair.
        def no_fit(*args, **kwargs):
            raise AssertionError("vq_init ran")
        monkeypatch.setattr(training, "vq_init", no_fit)
        ds = tiny_dataset()
        split = tiny_split(ds, n_train_anomalies=0)
        with pytest.raises(ValidationError, match="batch_size 1 "):
            train(ds, split, tiny_config(batch_size=1))
        # A pseudo-anomaly or an observed anomaly makes the pair.
        monkeypatch.undo()
        for cfg, n_anomalies in ((tiny_config(batch_size=1, pseudo_anomaly_rate=1.0), 0),
                                 (tiny_config(batch_size=1), 1)):
            res = train(ds, tiny_split(ds, n_train_anomalies=n_anomalies), cfg)
            assert res.checkpoint.opt.step == cfg.epochs * cfg.iters_per_epoch


def per_item_mean(loss_fn):
    """Reference for a batched head loss: one call per item, then the batch mean.

    This is the loop a training step ran before it made one call per batch.
    Each item's call computes its own plan weights, not the step's.
    """
    def looped(heads, *args, weights=None, **kwargs):
        *lead, grids, labels = args
        parts = [loss_fn(heads, *lead, grid, int(y), **kwargs) for grid, y in zip(grids, labels)]
        n = len(parts)
        return HeadLoss(value=sum(p.value for p in parts) / n,
                        grad_w=sum(p.grad_w for p in parts) / n,
                        grad_b=sum(p.grad_b for p in parts) / n)
    return looped


class TestBatchedStep:
    # The batched step averages over the batch with numpy's pairwise sum
    # and evaluates each head over the whole stack, where the per-item loop
    # summed item by item: the same arithmetic in another order, so results
    # agree to rounding.  AdamW divides by sqrt of the second moment, which
    # keeps a relative rounding difference in a gradient at about the same
    # relative size in the step, and two epochs are a few dozen steps.
    # Differences of up to 4.4e-16 of each array's largest entry were seen;
    # 1e-12 leaves room for other BLAS builds and is far below any real
    # change to a step.
    @pytest.mark.parametrize("case", ["tiny", "synth"])
    def test_two_epochs_match_per_item_reference(self, monkeypatch, case):
        if case == "tiny":
            ds = tiny_dataset()
            split = tiny_split(ds)
            cfg = tiny_config()
        else:
            ds = synth_generate(SynthConfig(n_per_normal_cluster=20, n_per_anomaly_class=4,
                                            anomaly_shift=0.5), seed=2)
            normals = [i for i, fm in enumerate(ds.items) if fm.label == 0]
            anomalies = [i for i, fm in enumerate(ds.items) if fm.label == 1]
            split = SplitPlan(tuple(normals[:30]), tuple(anomalies[:2]), tuple(normals[30:]),
                              protocol="general", m=2, seed=0)
            cfg = TrainConfig(epochs=2, iters_per_epoch=10, n_prototypes=8, seed=1)
        batched = train(ds, split, cfg).checkpoint
        for name in ("head_loss_anomaly", "head_loss_normal", "head_loss_residual"):
            monkeypatch.setattr(training, name, per_item_mean(getattr(training, name)))
        reference = train(ds, split, cfg).checkpoint
        assert batched.opt.step == reference.opt.step == 2 * cfg.iters_per_epoch
        pairs = [(batched.params.a, reference.params.a), (batched.params.m, reference.params.m),
                 (batched.params.s, reference.params.s)]
        for name in ("anomaly", "normal", "residual"):
            mine, ref = getattr(batched.heads, name), getattr(reference.heads, name)
            pairs += [(mine.w, ref.w), (mine.b, ref.b)]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestResume:
    def test_split_run_equals_straight_run(self):
        ds = tiny_dataset()
        split = tiny_split(ds)
        cfg4 = tiny_config(epochs=4)
        cfg2 = dataclasses.replace(cfg4, epochs=2)
        straight = train(ds, split, cfg4)
        first = train(ds, split, cfg2)
        second = train(ds, split, cfg4, resume=first.checkpoint)
        assert checkpoints_equal(straight.checkpoint, second.checkpoint)
        assert straight.log[:2] == first.log
        assert straight.log[2:] == second.log

    def test_resume_rejects_config_drift(self):
        ds = tiny_dataset()
        split = tiny_split(ds)
        first = train(ds, split, tiny_config())
        with pytest.raises(ValidationError, match="learning_rate"):
            train(ds, split, tiny_config(epochs=4, learning_rate=0.02),
                  resume=first.checkpoint)
        with pytest.raises(ValidationError, match="epoch"):
            train(ds, split, tiny_config(epochs=1), resume=first.checkpoint)

    def test_resume_does_not_mutate_the_checkpoint(self):
        ds = tiny_dataset()
        split = tiny_split(ds)
        first = train(ds, split, tiny_config()).checkpoint
        frozen = copy.deepcopy(first)
        train(ds, split, tiny_config(epochs=4), resume=first)
        # Every named array, both moments and the step count.
        assert checkpoints_equal(first, frozen)

    def test_resume_rejects_other_dataset_dims(self):
        ds = tiny_dataset()
        first = train(ds, tiny_split(ds), tiny_config()).checkpoint
        other = Dataset([FeatureMap(np.zeros((H, W, D + 1), dtype=np.float32), 0, 0, f"n{i}")
                         for i in range(4)])
        split = SplitPlan((0, 1, 2), (), (3,), protocol="general", m=0, seed=0)
        with pytest.raises(ValidationError, match="do not fit"):
            train(other, split, tiny_config(epochs=4), resume=first)


class TestCheckpointIO:
    def trained(self):
        ds = tiny_dataset()
        return train(ds, tiny_split(ds), tiny_config()).checkpoint

    def test_round_trip(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert checkpoints_equal(ckpt, back)

    def test_round_trip_preserves_rng_stream(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        r1 = np.random.default_rng()
        r1.bit_generator.state = ckpt.rng_state
        r2 = np.random.default_rng()
        r2.bit_generator.state = back.rng_state
        assert np.array_equal(r1.random(32), r2.random(32))

    def test_save_is_deterministic(self, tmp_path):
        ckpt = self.trained()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTACKPT"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert "magic" in message(info, path)

    def test_unsupported_version(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert "version" in message(info, path)

    def test_truncated_payload(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CorruptionError) as info:
            load_checkpoint(path)
        assert "truncated" in message(info, path)
        path.write_bytes(blob[:6])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_epsilon_and_topk_fraction_come_from_the_config(self, tmp_path):
        # Version 1 stored both a second time beside the arrays, and nothing
        # checked that the copies agreed: these loaded, and a resumed run
        # trained at epsilon 0.9.
        ckpt = self.trained()
        ckpt.params.epsilon, ckpt.heads.topk_fraction = 0.9, 0.5
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.params.epsilon == back.config.epsilon == 0.5
        assert back.heads.topk_fraction == back.config.topk_fraction == 0.25

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_block_of_the_wrong_length_is_corrupt(self, tmp_path, block):
        # θ, exp_avg and exp_avg_sq end the file as one block of 3n float64
        # values: one value fewer in the part of vector ``block``, or one
        # more after it, must not load.
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        n = len(ckpt.theta)
        start = len(blob) - (3 - block) * 8 * n
        vec = (ckpt.theta, *ckpt.opt.moments)[block]
        assert np.array_equal(np.frombuffer(blob, "<f8", n, start), vec)
        short = blob[:start + 8 * (n // 2)] + blob[start + 8 * (n // 2 + 1):]
        long = blob[:start + 8 * n] + blob[start + 8 * (n - 1):]
        for wrong in (short, long):
            path.write_bytes(wrong)
            with pytest.raises(CorruptionError) as info:
                load_checkpoint(path)
            assert "layout" in message(info, path)

    @pytest.mark.parametrize("block", ["theta", "exp_avg", "exp_avg_sq"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_are_corrupt(self, tmp_path, block, value):
        # Before, a NaN in w_a loaded and scoring exited 3, a NaN in m exited
        # 1 from the bridge, and a NaN in exp_avg_sq loaded and scored.
        ckpt = self.trained()
        n = len(ckpt.theta)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        # save_checkpoint refuses non-finite values, so the value is written
        # into the middle of the block's bytes.
        blob = bytearray(path.read_bytes())
        at = config_span(blob).stop + 8 * (("theta", "exp_avg", "exp_avg_sq").index(block) * n + n // 2)
        blob[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError) as info:
            load_checkpoint(path)
        assert f"{block} holds non-finite" in message(info, path)

    @pytest.mark.parametrize("block", ["theta", "exp_avg_sq"])
    def test_save_refuses_non_finite_values(self, tmp_path, block):
        # Before, such a checkpoint was written and load_checkpoint refused it.
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        if block == "theta":
            ckpt.heads.anomaly.w[1] = np.nan
        else:
            ckpt.opt.moments[1][3] = np.inf
        with pytest.raises(NumericError) as info:
            save_checkpoint(path, ckpt)
        assert f"{block} holds non-finite" in message(info, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("edit", ["missing", "extra", "renamed"])
    def test_config_must_name_each_field_once(self, tmp_path, edit):
        # A missing line would otherwise load at its default.
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        span = config_span(blob)
        text = blob[span].decode()
        assert "kappa = 2.0\n" in text and "lambda_ = 0.01\n" in text
        text = {"missing": text.replace("kappa = 2.0\n", ""), "extra": text + "gamma = 1\n",
                "renamed": text.replace("lambda_ =", "lambda =")}[edit].encode()
        header = bytearray(blob[:span.start])
        struct.pack_into("<I", header, 12, len(text))
        path.write_bytes(bytes(header) + text + blob[span.stop:])
        with pytest.raises(CorruptionError) as info:
            load_checkpoint(path)
        assert "config keys" in message(info, path)

    def test_config_text_is_a_config_file(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        config = tmp_path / "train.cfg"
        config.write_bytes(blob[config_span(blob)])
        assert parse_train_config(config) == ckpt.config

    def test_heads_and_params_cannot_be_replaced(self):
        # They used to be fields beside θ: a replaced head was scored but
        # save_checkpoint wrote θ, so the saved file held the old weights.
        ckpt = self.trained()
        for field in ("heads", "params"):
            with pytest.raises(TypeError, match=field):
                dataclasses.replace(ckpt, **{field: getattr(ckpt, field)})
        with pytest.raises(AttributeError):
            ckpt.heads = ckpt.heads

    def test_in_place_edits_are_saved(self, tmp_path):
        ckpt = self.trained()
        ckpt.heads.anomaly.w[:] = 7.0
        ckpt.opt.exp_avg["m"][0, 0] = 3.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert np.all(back.heads.anomaly.w == 7.0) and back.opt.exp_avg["m"][0, 0] == 3.0
        assert checkpoints_equal(ckpt, back)

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt = self.trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CorruptionError) as info:
            load_checkpoint(path)
        assert "trailing" in message(info, path)
