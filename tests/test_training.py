import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep import metrics, model, training
from edgesleep.epochs import standardize
from edgesleep.model import ArchConfig, ModelParams, init_params, forward
from edgesleep.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAM_LEARNING_RATE,
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    backprop,
    batch_gradients,
    cross_entropy,
    evaluate_epochs,
    fit,
    make_folds,
    split_train_val,
    train_fold,
)

from helpers import join_epochs, make_synth_epochs


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy(np.full(5, 0.2), 3) == pytest.approx(np.log(5))

    def test_certain_correct(self):
        assert cross_entropy(np.array([1.0, 0, 0, 0, 0]), 0) == 0.0

    def test_quarter_probability(self):
        probs = np.array([0.5, 0.25, 0.25, 0.0, 0.0])
        assert cross_entropy(probs, 1) == pytest.approx(np.log(4))

    def test_floor_prevents_infinity(self):
        loss = cross_entropy(np.array([1.0, 0.0, 0, 0, 0]), 1)
        assert loss == pytest.approx(-np.log(1e-12))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_match_the_per_row_formula_bitwise(self, dtype):
        # the reference is the one-row formula as the losses were computed
        # with np.log: math.log can round differently from NumPy's SIMD log
        rng = np.random.default_rng(33)
        probs = rng.dirichlet(np.ones(5), size=405).astype(dtype)
        labels = rng.integers(0, 5, size=405).astype(np.uint8)
        probs[7, labels[7]] = 0  # the 1e-12 floor applies
        want = [float(-np.log(max(float(p[y]), 1e-12))) for p, y in zip(probs, labels)]
        losses = cross_entropy(probs, labels)
        assert losses.dtype == np.float64 and losses.shape == (405,)
        assert losses.tolist() == want
        assert losses[7] == -np.log(1e-12)
        assert sum(losses.tolist()) == sum(want)


def tiny_params(value_map):
    return ModelParams({k: np.array(v, dtype=np.float64) for k, v in value_map.items()})


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = tiny_params({"w": [1.0, -2.0, 3.0]})
        grads = {"w": np.array([0.5, -4.0, 100.0])}
        state = AdamState.zeros_like(params)
        updated, state = adam_step(params, grads, state)
        np.testing.assert_allclose(
            updated["w"] - params["w"], -1e-3 * np.sign(grads["w"]), rtol=1e-4
        )
        assert state.t == 1

    def test_zero_gradient_is_identity(self):
        params = tiny_params({"w": [1.0, 2.0]})
        state = AdamState.zeros_like(params)
        updated, _ = adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(updated["w"], params["w"])

    def test_trajectory_determinism(self):
        rng = np.random.default_rng(0)
        grad_seq = [rng.normal(size=3) for _ in range(10)]

        def run():
            params = tiny_params({"w": [0.3, -0.7, 1.1]})
            state = AdamState.zeros_like(params)
            for g in grad_seq:
                params, state = adam_step(params, {"w": g}, state)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_moments_follow_definitions(self):
        params = tiny_params({"w": [0.0]})
        g = np.array([2.0])
        _, state = adam_step(params, {"w": g}, AdamState.zeros_like(params))
        np.testing.assert_allclose(state.m["w"], (1 - ADAM_BETA1) * g)
        np.testing.assert_allclose(state.v["w"], (1 - ADAM_BETA2) * g * g)

    def test_three_steps_equal_the_formula_bitwise(self):
        rng = np.random.default_rng(7)
        shapes = {"w": (4, 3), "b": (3,)}
        params = ModelParams({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()})
        grad_seq = [
            {n: rng.normal(scale=10.0 ** i, size=s).astype(np.float32) for n, s in shapes.items()}
            for i in range(3)
        ]
        want = dict(params.tensors)
        m = {n: np.zeros_like(a) for n, a in want.items()}
        v = {n: np.zeros_like(a) for n, a in want.items()}
        for t, grads in enumerate(grad_seq, start=1):
            for n, g in grads.items():
                m[n] = ADAM_BETA1 * m[n] + (1 - ADAM_BETA1) * g
                v[n] = ADAM_BETA2 * v[n] + (1 - ADAM_BETA2) * g * g
                m_hat = m[n] / (1 - ADAM_BETA1**t)
                v_hat = v[n] / (1 - ADAM_BETA2**t)
                want[n] = want[n] - ADAM_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        state = AdamState.zeros_like(params)
        for grads in grad_seq:
            params, state = adam_step(params, grads, state)
        assert state.t == 3
        for n in shapes:
            for got, ref in ((params[n], want[n]), (state.m[n], m[n]), (state.v[n], v[n])):
                assert got.dtype == ref.dtype == np.float32
                np.testing.assert_array_equal(got.view(np.uint8), ref.view(np.uint8))

    def test_step_leaves_the_given_params_as_they_were(self):
        params = tiny_params({"w": [1.0, -2.0]})
        before = params["w"].copy()
        updated, _ = adam_step(params, {"w": np.array([0.5, 0.5])}, AdamState.zeros_like(params))
        np.testing.assert_array_equal(params["w"], before)
        assert not np.array_equal(updated["w"], before)

    @pytest.mark.parametrize("g", [1e20, np.inf, np.nan])
    def test_non_finite_second_moment_names_the_tensor(self, g):
        """1e20 squares to a finite float32 whose bias correction overflows;
        the step raises instead of warning and freezing the weight."""
        params = ModelParams({
            "a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)
        })
        grads = {"a": np.ones(2, dtype=np.float32), "b": np.array([0.5, g], dtype=np.float32)}
        with pytest.raises(TrainingError, match="^Adam's second moment of b is not finite$"):
            adam_step(params, grads, AdamState.zeros_like(params))

    def test_max_epochs_must_not_be_negative(self):
        assert TrainConfig(max_epochs=0).max_epochs == 0
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=-1)


class TestBackprop:
    def setup_method(self):
        self.config = ArchConfig(width_multiplier=0.25)
        self.params = init_params(self.config, 13)
        rng = np.random.default_rng(14)
        self.x = standardize(rng.normal(size=3000))

    def test_missing_cache_rejected(self):
        with pytest.raises(TrainingError, match="cache"):
            backprop(self.params, self.config, None, 0)

    def test_gradient_shapes_mirror_params(self):
        _, cache = forward(self.params, self.x, self.config, mode="train")
        grads = backprop(self.params, self.config, cache, 2)
        assert set(grads) == set(self.params.names())
        for name in grads:
            assert grads[name].shape == self.params[name].shape

    def test_confident_correct_prediction_has_tiny_gradient(self):
        params = ModelParams({n: t.copy() for n, t in self.params.tensors.items()})
        params.tensors["cls_b"] = np.array([50.0, 0.0, 0.0, 0.0, 0.0])
        probs, cache = forward(params, self.x, self.config, mode="train")
        assert probs[0] > 1 - 1e-12
        grads = backprop(params, self.config, cache, 0)
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert norm < 1e-6

    def test_batch_gradient_is_mean_of_per_sample(self):
        epochs = make_synth_epochs(5, seed=15)
        rows = np.array([4, 0, 2])
        batch, _ = batch_gradients(self.params, self.config, epochs, rows)
        singles = []
        for e in epochs[rows]:
            _, cache = forward(self.params, standardize(e.samples), self.config, mode="train")
            singles.append(backprop(self.params, self.config, cache, int(e.stage)))
        for name in batch:
            mean = (singles[0][name] + singles[1][name] + singles[2][name]) / 3.0
            np.testing.assert_allclose(batch[name], mean, atol=1e-12)


    def test_batched_backprop_is_sum_of_per_sample(self):
        epochs = make_synth_epochs(3, seed=26)
        xs = np.stack([standardize(e.samples) for e in epochs])
        ys = np.array([int(e.stage) for e in epochs])
        probs, cache = forward(self.params, xs, self.config, mode="train")
        assert probs.shape == (3, 5)
        summed = backprop(self.params, self.config, cache, ys)
        singles = []
        for x, y in zip(xs, ys):
            _, c = forward(self.params, x, self.config, mode="train")
            singles.append(backprop(self.params, self.config, c, y))
        for name in summed:
            np.testing.assert_allclose(summed[name], sum(s[name] for s in singles), atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_batch_gradients_independent_of_chunk_size(self, chunk, monkeypatch):
        epochs = make_synth_epochs(7, seed=27)
        rows = np.arange(len(epochs))
        want, want_loss = batch_gradients(self.params, self.config, epochs, rows)
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        got, got_loss = batch_gradients(self.params, self.config, epochs, rows)
        assert got_loss == pytest.approx(want_loss, abs=1e-12)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], atol=1e-12)

    @pytest.mark.parametrize("chunk", [3, 4])
    def test_one_chunk_size_for_predict_and_batch_gradients(self, chunk, monkeypatch):
        """One setting of model.CHUNK_ROWS sets the rows of every batched
        forward: ceil(n / chunk) calls in predict and in batch_gradients."""
        epochs = make_synth_epochs(10, seed=32)
        rows = np.arange(len(epochs))
        want = [min(chunk, len(rows) - start) for start in range(0, len(rows), chunk)]
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        for module, run in (
            (model, lambda: model.predict(self.params, self.config, epochs.samples, rows)),
            (training, lambda: batch_gradients(self.params, self.config, epochs, rows)),
        ):
            sizes = []
            real = module.forward
            monkeypatch.setattr(
                module, "forward", lambda p, x, *a, **k: sizes.append(len(x)) or real(p, x, *a, **k)
            )
            run()
            assert sizes == want, module.__name__

    def test_evaluate_matches_per_epoch_forward(self):
        epochs = make_synth_epochs(5, seed=28)
        loss, counts = evaluate_epochs(self.params, self.config, epochs, np.arange(len(epochs)))
        losses, argmaxes = [], []
        for e in epochs:
            probs, _ = forward(self.params, standardize(e.samples), self.config)
            losses.append(cross_entropy(probs, int(e.stage)))
            argmaxes.append(int(np.argmax(probs)))
        assert loss == pytest.approx(np.mean(losses), abs=1e-12)
        assert np.array_equal(counts, metrics.confusion(argmaxes, epochs.stage))


def reference_fit(params, config, train, tc):
    """fit without validation, one epoch at a time: the same seeded
    permutation, per-row forward/backprop on standardize(e.samples), the
    batch-mean gradient and adam_step.  Returns (params, train losses)."""
    rng = np.random.default_rng(tc.seed)
    state = AdamState.zeros_like(params)
    losses = []
    for _ in range(tc.max_epochs):
        order = rng.permutation(len(train))
        running = 0.0
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            total = {n: np.zeros_like(t) for n, t in params.tensors.items()}
            for i in batch:
                e = train[i]
                probs, cache = forward(params, standardize(e.samples), config, mode="train")
                running += cross_entropy(probs, int(e.stage))
                for name, g in backprop(params, config, cache, int(e.stage)).items():
                    total[name] += g
            grads = {name: g / len(batch) for name, g in total.items()}
            params, state = adam_step(params, grads, state)
        losses.append(running / len(train))
    return params, losses


class TestFitAgainstPerEpochLoops:
    config = ArchConfig(width_multiplier=0.25)

    def test_fit_matches_per_epoch_reference(self):
        train = make_synth_epochs(13, seed=29)
        tc = TrainConfig(max_epochs=2, batch_size=5, seed=9)
        rows = np.arange(len(train))
        got, history = fit(init_params(self.config, 9), self.config, train, rows, [], tc)
        want, losses = reference_fit(init_params(self.config, 9), self.config, train, tc)
        np.testing.assert_allclose([h.train_loss for h in history], losses, rtol=0, atol=1e-10)
        for name in want.names():
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10)

    def test_val_acc_equals_per_epoch_forward(self):
        train = make_synth_epochs(6, seed=30)
        val = make_synth_epochs(37, seed=31)
        assert len(val) > model.CHUNK_ROWS
        tc = TrainConfig(max_epochs=1, batch_size=6, seed=10)
        rows = np.arange(len(train) + len(val))
        params, history = fit(
            init_params(self.config, 10), self.config, join_epochs(train, val),
            rows[: len(train)], rows[len(train) :], tc,
        )
        losses, hits = [], []
        for e in val:
            probs, _ = forward(params, standardize(e.samples), self.config)
            losses.append(cross_entropy(probs, int(e.stage)))
            hits.append(int(np.argmax(probs)) == int(e.stage))
        assert history[0].val_acc == sum(hits) / len(val)
        assert history[0].val_loss == pytest.approx(np.mean(losses), abs=1e-12)


class TestFolds:
    def test_77_subjects_chunk_into_16s_and_a_13(self):
        folds = make_folds(list(range(77)), k=5, seed=1)
        assert sorted(len(f) for f in folds) == [13, 16, 16, 16, 16]
        assert [len(f) for f in folds][:4] == [16, 16, 16, 16]

    def test_even_split(self):
        folds = make_folds(list(range(10)), k=5, seed=2)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_too_many_folds(self):
        with pytest.raises(TrainingError):
            make_folds([1, 2, 3], k=5)

    @given(n=st.integers(1, 60), k=st.integers(1, 8), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        ids = list(range(100, 100 + n))
        folds = make_folds(ids, k=k, seed=seed)
        combined = [s for fold in folds for s in fold]
        assert sorted(combined) == sorted(ids)
        assert len(folds) == k
        assert all(fold for fold in folds)


class TestSplitAndFit:
    def test_validation_size_is_rounded_tenth(self):
        pool = np.arange(87)
        train, val = split_train_val(pool, 4)
        assert len(val) == round(0.10 * 87)
        assert len(train) + len(val) == 87

    def test_split_disjoint_and_deterministic(self):
        pool = np.arange(100, 140)
        t1, v1 = split_train_val(pool, 5)
        t2, v2 = split_train_val(pool, 5)
        assert np.array_equal(t1, t2) and np.array_equal(v1, v2)
        assert sorted(np.concatenate([t1, v1])) == list(pool)

    def test_fit_history_and_determinism(self):
        config = ArchConfig(width_multiplier=0.25)
        data = make_synth_epochs(24, seed=18)
        tc = TrainConfig(max_epochs=2, batch_size=8, seed=6)

        def run():
            rows = np.arange(len(data))
            return fit(init_params(config, 6), config, data, rows, rows, tc)

        p1, h1 = run()
        p2, h2 = run()
        assert h1 == h2
        assert len(h1) == 2
        assert all(np.array_equal(p1[n], p2[n]) for n in p1.names())

    def test_loss_decreases_on_separable_data(self):
        config = ArchConfig(width_multiplier=0.25)
        data = make_synth_epochs(30, seed=19)
        tc = TrainConfig(max_epochs=4, batch_size=10, seed=7)
        _, history = fit(init_params(config, 7), config, data, np.arange(len(data)), [], tc)
        assert history[-1].train_loss < history[0].train_loss

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_leaves_the_key_bias_zero(self, dtype):
        """softmax cancels a key bias, so its gradient is exactly zero and
        Adam never moves it from init_params' zeros."""
        config = ArchConfig(width_multiplier=0.25)
        data = make_synth_epochs(20, seed=21)
        tc = TrainConfig(max_epochs=2, batch_size=6, seed=13)
        start = init_params(config, 13).astype(dtype)
        params, _ = fit(start, config, data, np.arange(len(data)), [], tc)
        bk = params["attn_bk"]
        assert bk.dtype == dtype
        assert bk.tobytes() == bytes(bk.nbytes)
        assert not np.array_equal(params["attn_bq"], start["attn_bq"])

    def test_train_fold_excludes_test_subjects(self):
        epochs = join_epochs(
            *(make_synth_epochs(10, seed=20 + subject, subject_id=subject) for subject in range(4))
        )
        config = ArchConfig(width_multiplier=0.25)
        tc = TrainConfig(max_epochs=1, batch_size=8, seed=8)
        params, history = train_fold(epochs, {3}, config, tc)
        assert len(history) == 1
        pool = np.flatnonzero(epochs.subject_id != 3)
        train, val = split_train_val(pool, tc.seed)
        assert len(val) == round(0.10 * len(pool))
        assert (epochs.subject_id[np.concatenate([train, val])] != 3).all()

    def test_empty_training_pool_rejected(self):
        epochs = make_synth_epochs(5, seed=25, subject_id=1)
        with pytest.raises(TrainingError):
            train_fold(epochs, {1}, ArchConfig(width_multiplier=0.25), TrainConfig())


class TestFloat32Training:
    """train_fold trains in float32; fit keeps whatever dtype it is given."""

    # float32 keeps ~7 significant digits; the largest error measured over
    # several seeds was 3.4e-7 of the global norm (2.5e-7 on these inputs).  The bound is relative to the norm of all
    # gradients together, not to each tensor's own: attn_bk's gradient is
    # exactly zero (softmax cancels a shift of the keys), so its own
    # relative error is meaningless.
    GRAD_BOUND = 1e-5

    @pytest.mark.parametrize("width", [0.25, 1.0])
    def test_float32_gradients_track_float64(self, width):
        config = ArchConfig(width_multiplier=width)
        epochs = make_synth_epochs(16, seed=40)
        params64 = init_params(config, 13)
        rows = np.arange(len(epochs))
        g64, loss64 = batch_gradients(params64, config, epochs, rows)
        g32, loss32 = batch_gradients(params64.astype(np.float32), config, epochs, rows)
        global_norm = np.sqrt(sum(float((g * g).sum()) for g in g64.values()))
        assert global_norm > 0
        assert set(g32) == set(g64)
        for name in g64:
            assert g32[name].dtype == np.float32, name
            error = np.linalg.norm((g32[name].astype(np.float64) - g64[name]).ravel())
            assert error <= self.GRAD_BOUND * global_norm, name
        assert loss32 == pytest.approx(loss64, rel=self.GRAD_BOUND)

    # Chunks change only the order in which float32 row gradients add up;
    # the largest difference measured was 1.7e-7 of the global norm.
    CHUNK_BOUND = 1e-6

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_float32_batch_gradients_independent_of_chunk_size(self, chunk, monkeypatch):
        config = ArchConfig(width_multiplier=0.25)
        params = init_params(config, 13).astype(np.float32)
        epochs = make_synth_epochs(7, seed=27)
        rows = np.arange(len(epochs))
        want, want_loss = batch_gradients(params, config, epochs, rows)
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        got, got_loss = batch_gradients(params, config, epochs, rows)
        # each row's probabilities are the same bits in any chunk; only the
        # float64 sum of the per-row losses changes order
        assert got_loss == pytest.approx(want_loss, abs=1e-12)
        global_norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in want.values()))
        for name in want:
            assert got[name].dtype == np.float32, name
            error = np.linalg.norm((got[name].astype(np.float64) - want[name]).ravel())
            assert error <= self.CHUNK_BOUND * global_norm, name

    @staticmethod
    def cohort():
        return join_epochs(
            *(make_synth_epochs(9, seed=60 + subject, subject_id=subject) for subject in range(3))
        )

    def test_train_fold_returns_float32_deterministically(self):
        config = ArchConfig(width_multiplier=0.25)
        tc = TrainConfig(max_epochs=2, batch_size=8, seed=11)
        p1, h1 = train_fold(self.cohort(), {2}, config, tc)
        p2, h2 = train_fold(self.cohort(), {2}, config, tc)
        assert {p1[n].dtype for n in p1.names()} == {np.dtype(np.float32)}
        assert h1 == h2
        for name in p1.names():
            assert p1[name].tobytes() == p2[name].tobytes(), name

    def test_fit_keeps_float64_parameters(self):
        config = ArchConfig(width_multiplier=0.25)
        data = self.cohort()
        rows = np.arange(len(data))
        tc = TrainConfig(max_epochs=1, batch_size=8, seed=12)
        params, _ = fit(init_params(config, 12), config, data, rows, rows[:5], tc)
        assert {params[n].dtype for n in params.names()} == {np.dtype(np.float64)}
