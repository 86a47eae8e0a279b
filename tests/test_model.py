import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesleep import model as model_mod
from edgesleep.epochs import EPOCH_SAMPLES, DegenerateEpochError, standardize
from edgesleep.model import (
    ArchConfig,
    ModelFormatError,
    ModelParams,
    expected_shapes,
    forward,
    init_params,
    load_model,
    param_count,
    predict,
    save_model,
)

from helpers import claim_tensor_length, make_synth_epochs


def shape_product_recount(config):
    """Independent parameter recount straight from the shape table."""
    total = 0
    for shape in expected_shapes(config).values():
        n = 1
        for dim in shape:
            n *= dim
        total += n
    return total


class TestArchConfig:
    def test_default_length_chain(self):
        assert ArchConfig().conv_lengths() == [492, 122, 39, 19]

    def test_default_parameter_count(self):
        params = init_params(ArchConfig(), 0)
        assert param_count(params) == 277_669

    def test_half_width_counts(self):
        config = ArchConfig(width_multiplier=0.5)
        assert [c for _, _, c in config.scaled_conv_table] == [16, 32, 64, 64]
        assert param_count(init_params(config, 0)) == shape_product_recount(config)
        assert param_count(init_params(config, 0)) < 80_000

    def test_quarter_width_heads_divisibility(self):
        config = ArchConfig(width_multiplier=0.25)
        assert config.scaled_d_model % config.heads == 0
        assert param_count(init_params(config, 0)) == shape_product_recount(config)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"width_multiplier": float("inf")}, "not finite and positive"),
            ({"width_multiplier": 0.0}, "not finite and positive"),
        ],
        # explicit ids keep these cases' names stable in test histories
        ids=["kwargs4-not finite and positive", "kwargs5-not finite and positive"],
    )
    def test_bad_sizes_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ArchConfig(**kwargs)

    @given(width=st.floats(min_value=0, max_value=16, exclude_min=True))
    def test_shapes_meet_the_kernel_contract(self, width):
        """The kernels take shapes on trust; these are the checks they would
        make on every call, made once on the shape table that read_slpm holds
        every model file to."""
        config = ArchConfig(width_multiplier=width)
        shapes = expected_shapes(config)
        cin, length = 1, EPOCH_SAMPLES
        for i, lout in enumerate(config.conv_lengths(), start=1):
            k, w_cin, cout = shapes[f"conv{i}_w"]
            stride = config.scaled_conv_table[i - 1][1]
            assert w_cin == cin
            assert shapes[f"conv{i}_b"] == (cout,)
            assert stride >= 1 and length >= k
            assert lout == (length - k) // stride + 1
            cin, length = cout, lout
        d = config.scaled_d_model
        assert cin == d and d % config.heads == 0 and d >= 2
        for name in ("q", "k", "v", "o"):
            assert shapes[f"attn_w{name}"] == (d, d) and shapes[f"attn_b{name}"] == (d,)
        for name in ("ln1_gain", "ln1_shift", "ln2_gain", "ln2_shift"):
            assert shapes[name] == (d,)
        f = shapes["ffn1_w"][1]
        assert shapes["ffn1_w"] == (d, f) and shapes["ffn1_b"] == (f,)
        assert shapes["ffn2_w"] == (f, d) and shapes["ffn2_b"] == (d,)
        assert config.flat_dim == length * d
        assert shapes["cls_w"] == (config.flat_dim, config.n_classes)
        assert shapes["cls_b"] == (config.n_classes,)

    def test_only_the_width_is_a_field(self):
        assert [f.name for f in dataclasses.fields(ArchConfig)] == ["width_multiplier"]
        with pytest.raises(TypeError):
            ArchConfig(heads=8)

    def test_cached_sizes_keep_equality_and_follow_replace(self):
        config = ArchConfig()
        fresh = ArchConfig()
        names = ("scaled_conv_table", "scaled_d_model", "scaled_ffn_dim", "feature_len", "flat_dim")
        for name in names:
            getattr(config, name)
        assert config == fresh and hash(config) == hash(fresh)
        assert {config: 1}[fresh] == 1
        quarter = dataclasses.replace(config, width_multiplier=0.25)
        assert quarter.scaled_conv_table == ((50, 6, 8), (8, 4, 16), (8, 3, 32), (3, 2, 32))
        assert quarter.scaled_d_model == 32 and quarter.scaled_ffn_dim == 64
        assert quarter.flat_dim == 19 * 32
        assert config.scaled_conv_table == ((50, 6, 32), (8, 4, 64), (8, 3, 128), (3, 2, 128))
        assert config.flat_dim == 19 * 128
        assert quarter != config


class TestInit:
    def test_deterministic_in_seed(self):
        a = init_params(ArchConfig(), 42)
        b = init_params(ArchConfig(), 42)
        assert all(np.array_equal(a[n], b[n]) for n in a.names())

    def test_different_seeds_differ(self):
        a = init_params(ArchConfig(), 1)
        b = init_params(ArchConfig(), 2)
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_conv1_glorot_bound(self):
        params = init_params(ArchConfig(), 3)
        bound = np.sqrt(6.0 / (50 * 1 + 50 * 32))
        assert np.abs(params["conv1_w"]).max() <= bound

    def test_biases_zero_gains_one(self):
        params = init_params(ArchConfig(), 4)
        assert not params["conv1_b"].any()
        assert not params["attn_bq"].any()
        assert (params["ln1_gain"] == 1.0).all()
        assert not params["ln2_shift"].any()


@pytest.fixture(scope="module")
def small_setup():
    config = ArchConfig(width_multiplier=0.25)
    params = init_params(config, 5)
    x = standardize(np.random.default_rng(6).normal(size=EPOCH_SAMPLES))
    return config, params, x


class TestForward:
    def test_probs_shape_and_sum(self, small_setup):
        config, params, x = small_setup
        probs, cache = forward(params, x, config)
        assert probs.shape == (5,)
        assert abs(probs.sum() - 1.0) <= 1e-6
        assert cache is None

    def test_zero_input_gives_uniform(self):
        config = ArchConfig()
        params = init_params(config, 7)
        probs, _ = forward(params, np.zeros(EPOCH_SAMPLES), config)
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_shape_chain_through_conv_stack(self):
        config = ArchConfig()
        params = init_params(config, 8)
        x = standardize(np.random.default_rng(9).normal(size=EPOCH_SAMPLES))
        _, cache = forward(params, x, config, mode="train")
        shapes = [a.shape for a in cache.acts[1:]]
        assert shapes == [(492, 32), (122, 64), (39, 128), (19, 128)]
        assert cache.acts[-1].shape == (19, 128)

    def test_wrong_length_rejected(self, small_setup):
        config, params, _ = small_setup
        with pytest.raises(ValueError, match="3000"):
            forward(params, np.zeros(2999), config)

    def test_infer_equals_train(self, small_setup):
        config, params, x = small_setup
        a, _ = forward(params, x, config, mode="infer")
        b, cache = forward(params, x, config, mode="train")
        assert np.array_equal(a, b)
        assert cache is not None and cache.probs is not None

    def test_residual_identity_when_branches_zeroed(self, small_setup):
        config, params, x = small_setup
        neutered = ModelParams({n: t.copy() for n, t in params.tensors.items()})
        for name in ("attn_wo", "attn_bo", "ffn2_w", "ffn2_b"):
            neutered.tensors[name] = np.zeros_like(neutered[name])
        for name in ("ln1_gain", "ln2_gain"):
            neutered.tensors[name] = np.ones_like(neutered[name])
        for name in ("ln1_shift", "ln2_shift"):
            neutered.tensors[name] = np.zeros_like(neutered[name])
        _, cache = forward(neutered, x, config, mode="train")
        np.testing.assert_allclose(
            cache.flat.reshape(cache.acts[-1].shape), cache.acts[-1], atol=1e-9
        )


    def test_batch_equals_stacked_single_epochs(self, small_setup):
        config, params, x = small_setup
        xs = np.stack([x, -x, np.roll(x, 7)])
        probs, cache = forward(params, xs, config, mode="train")
        want = np.stack([forward(params, row, config)[0] for row in xs])
        np.testing.assert_allclose(probs, want, atol=1e-12)
        assert cache.acts[0].shape == (3, EPOCH_SAMPLES, 1)
        assert cache.acts[-1].shape == (3, config.feature_len, config.scaled_d_model)

    def test_train_cache_keeps_each_activation_once(self):
        """An 8-row float32 chunk at full width, as batch_gradients runs it,
        holds each buffer once: no ReLU input beside its output, no layer
        norm output twice."""
        config = ArchConfig()
        params = init_params(config, 12).astype(np.float32)
        x = np.random.default_rng(13).normal(size=(8, EPOCH_SAMPLES)).astype(np.float32)
        _, cache = forward(params, x, config, mode="train")
        buffers = {}

        def walk(obj):
            if isinstance(obj, np.ndarray):
                while obj.base is not None:
                    obj = obj.base
                buffers[id(obj)] = obj.nbytes
            elif isinstance(obj, list):
                for item in obj:
                    walk(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    walk(getattr(obj, f.name))

        walk(cache)
        assert sum(buffers.values()) <= 2.0 * 2**20

    @pytest.mark.parametrize("shape", [(2, 2999), (1, 1, EPOCH_SAMPLES), (EPOCH_SAMPLES, 1)])
    def test_bad_batch_shape_rejected(self, small_setup, shape):
        config, params, _ = small_setup
        with pytest.raises(ValueError, match="3000"):
            forward(params, np.zeros(shape), config)


@pytest.fixture(scope="module")
def single_epoch_rows():
    """(width, dtype) -> (params, config, 33 standardized rows, their
    one-epoch-at-a-time forward probs)."""
    cache = {}

    def get(width, dtype):
        if (width, dtype) not in cache:
            config = ArchConfig(width_multiplier=width)
            params = init_params(config, 12).astype(dtype)
            xs = standardize(np.random.default_rng(13).normal(size=(33, EPOCH_SAMPLES)))
            singles = np.stack([forward(params, x, config)[0] for x in xs])
            cache[width, dtype] = params, config, xs, singles
        return cache[width, dtype]

    return get


class TestBatchInvariance:
    """A row's forward result does not depend on the rows batched with it."""

    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1.0, 0.25])
    def test_rows_equal_single_epochs_bitwise(self, single_epoch_rows, width, dtype, n):
        params, config, xs, singles = single_epoch_rows(width, dtype)
        probs, _ = forward(params, xs[:n], config)
        assert probs.dtype == dtype
        assert np.array_equal(probs, singles[:n])

    def test_train_mode_rows_equal_single_epochs_bitwise(self, single_epoch_rows):
        params, config, xs, singles = single_epoch_rows(0.25, np.float64)
        probs, _ = forward(params, xs[:5], config, mode="train")
        assert np.array_equal(probs, singles[:5])


def reference_predictions(params, config, epochs):
    return np.stack([forward(params, standardize(e.samples), config)[0] for e in epochs])


class TestPredict:
    @pytest.fixture(scope="class")
    def scored(self):
        config = ArchConfig(width_multiplier=0.25)
        params = init_params(config, 14).astype(np.float32)
        epochs = make_synth_epochs(71, seed=15)
        return params, config, epochs, reference_predictions(params, config, epochs)

    def test_equals_per_epoch_loop_bitwise(self, scored):
        params, config, epochs, want = scored
        assert len(epochs) % model_mod.CHUNK_ROWS != 0
        probs = predict(params, config, epochs.samples, np.arange(len(epochs)))
        assert probs.shape == (len(epochs), 5) and probs.dtype == np.float32
        assert np.array_equal(probs, want)

    def test_rows_select_and_order_the_epochs(self, scored):
        params, config, epochs, want = scored
        rows = np.random.default_rng(16).permutation(len(epochs))[:37]
        assert np.array_equal(predict(params, config, epochs.samples, rows), want[rows])

    @pytest.mark.parametrize("rows", [1, 5, 96])
    def test_chunk_size_does_not_change_bits(self, scored, monkeypatch, rows):
        params, config, epochs, want = scored
        monkeypatch.setattr(model_mod, "CHUNK_ROWS", rows)
        assert np.array_equal(predict(params, config, epochs.samples, np.arange(len(epochs))), want)

    def test_no_epochs(self, scored):
        params, config, epochs, _ = scored
        assert predict(params, config, epochs.samples, np.arange(0)).shape == (0, 5)

    def test_flat_epoch_raises(self, scored):
        params, config, epochs, _ = scored
        samples = epochs.samples.copy()
        samples[35] = 5.0
        with pytest.raises(DegenerateEpochError):
            predict(params, config, samples, np.arange(len(samples)))


class TestChunks:
    """model.chunks, the one gather-and-standardize step of every batched
    forward."""

    @pytest.fixture(scope="class")
    def samples(self):
        return make_synth_epochs(21, seed=17).samples

    @pytest.mark.parametrize("n", [0, 1, 8, 13, 21])
    def test_parts_cover_the_rows_in_order(self, samples, n):
        parts = [part for part, _ in model_mod.chunks(samples, np.arange(n), np.float64)]
        assert all(part.stop - part.start <= model_mod.CHUNK_ROWS for part in parts)
        assert [i for part in parts for i in range(n)[part]] == list(range(n))
        if n % model_mod.CHUNK_ROWS:
            assert len(range(n)[parts[-1]]) == n % model_mod.CHUNK_ROWS

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunk_is_the_standardized_gather_bitwise(self, samples, dtype):
        rows = np.random.default_rng(18).permutation(len(samples))[:19]
        for part, x in model_mod.chunks(samples, rows, dtype):
            assert x.dtype == dtype
            assert np.array_equal(x, standardize(samples[rows[part]]).astype(dtype))

    def test_reads_chunk_rows_when_it_runs(self, samples, monkeypatch):
        drawn = model_mod.chunks(samples, np.arange(7), np.float64)
        monkeypatch.setattr(model_mod, "CHUNK_ROWS", 3)
        assert [len(x) for _, x in drawn] == [3, 3, 1]

    def test_a_chunk_is_made_only_when_drawn(self, samples):
        flat = samples.copy()
        flat[model_mod.CHUNK_ROWS + 2] = 5.0
        drawn = model_mod.chunks(flat, np.arange(len(flat)), np.float64)
        part, x = next(drawn)
        assert part == slice(0, model_mod.CHUNK_ROWS)
        assert np.array_equal(x, standardize(flat[: model_mod.CHUNK_ROWS]))
        with pytest.raises(DegenerateEpochError):
            next(drawn)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path, small_setup):
        config, params, _ = small_setup
        f32 = params.astype(np.float32)
        path = tmp_path / "model.slpm"
        save_model(f32, config, path)
        loaded, loaded_config = load_model(path)
        assert loaded_config == config
        for name in f32.names():
            assert np.array_equal(loaded[name], f32[name])
            assert loaded[name].dtype == np.float32

    def test_float64_params_save_as_their_float32_copy(self, tmp_path, small_setup):
        config, params, _ = small_setup
        assert params["conv1_w"].dtype == np.float64
        save_model(params, config, tmp_path / "f64.slpm")
        save_model(params.astype(np.float32), config, tmp_path / "f32.slpm")
        assert (tmp_path / "f64.slpm").read_bytes() == (tmp_path / "f32.slpm").read_bytes()

    def test_default_file_size(self, tmp_path):
        config = ArchConfig()
        path = tmp_path / "default.slpm"
        save_model(init_params(config, 0).astype(np.float32), config, path)
        size = path.stat().st_size
        assert 4 * 277_669 < size < 4 * 277_669 + 4096  # payload + modest header

    # (byte offset, u32 value) edits of the architecture block, which follows
    # the 8-byte magic and version/flags: conv count, then (kernel, stride,
    # channels) per conv, then d_model, heads, ffn_dim, n_classes, width
    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (8, 3, "3 conv layers, the network has 4"),
            (28, 5, r"conv_table \(\(50, 6, 32\), \(8, 5, 64\)"),
            (60, 64, "d_model 64, the network has 128"),
            (64, 8, "heads 8, the network has 4"),
            (68, 128, "ffn_dim 128, the network has 256"),
            (72, 4, "n_classes 4, the network has 5"),
        ],
        ids=["conv-count", "conv2-stride", "d_model", "heads", "ffn_dim", "n_classes"],
    )
    def test_only_the_width_may_differ_from_the_paper(self, tmp_path, offset, value, message):
        config = ArchConfig(width_multiplier=0.25)
        path = tmp_path / "m.slpm"
        save_model(init_params(config, 0), config, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match=f"invalid architecture block: {message}"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.slpm"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncation(self, tmp_path, small_setup):
        config, params, _ = small_setup
        path = tmp_path / "cut.slpm"
        save_model(params.astype(np.float32), config, path)
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_directory_length_beyond_file_rejected(self, tmp_path, small_setup):
        config, params, _ = small_setup
        path = tmp_path / "huge.slpm"
        save_model(params.astype(np.float32), config, path)
        path.write_bytes(claim_tensor_length(path.read_bytes(), "conv1_w", 2**40))
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_tampered_shape_rejected(self, tmp_path, small_setup):
        config, params, _ = small_setup
        path = tmp_path / "tampered.slpm"
        save_model(params.astype(np.float32), config, path)
        raw = bytearray(path.read_bytes())
        # locate the conv1_w directory entry: name_len byte + name, rank byte,
        # then the first u32 dim, which we corrupt
        name = b"conv1_w"
        pos = raw.find(bytes([len(name)]) + name)
        dim_pos = pos + 1 + len(name) + 1
        raw[dim_pos : dim_pos + 4] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError):
            load_model(path)
