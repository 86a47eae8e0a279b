import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep.epochs import standardize
from edgesleep import model as model_mod
from edgesleep.model import (
    ArchConfig,
    ModelFormatError,
    expected_shapes,
    forward,
    init_params,
    load_model,
    read_slpm,
    save_model,
    write_slpm,
)
from edgesleep.cli import _load_float_model
from edgesleep.quant import (
    QuantTensor,
    load_any_model,
    quantize_model,
    quantize_tensor,
    save_quant_model,
)
from edgesleep.streaming import make_predictor


def dequantized_forward(qm, x):
    """Hybrid inference as `eval` and `stream` run it: the int8 model
    dequantized once, then the float forward."""
    return forward(qm.dequantize(), x, qm.config)[0]


class TestQuantizeTensor:
    def test_reference_values(self):
        qt = quantize_tensor(np.array([-1.0, 0.5, 1.0]))
        assert qt.scale == pytest.approx(1 / 127)
        # 0.5 / (1/127) = 63.5 rounds half-to-even to 64
        np.testing.assert_array_equal(qt.values, np.array([-127, 64, 127], dtype=np.int8))

    def test_all_zero_tensor(self):
        qt = quantize_tensor(np.zeros((3, 2)))
        assert qt.scale == 1.0
        assert not qt.values.any()
        np.testing.assert_array_equal(qt.dequantize(), np.zeros((3, 2)))

    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_dequantization_error_bound(self, seed, scale):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(5, 7)) * scale
        qt = quantize_tensor(t)
        err = np.abs(qt.dequantize().astype(np.float64) - t)
        assert err.max() <= qt.scale / 2 + 1e-12

    def test_requantization_fixed_point(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=64)
        first = quantize_tensor(t)
        second = quantize_tensor(first.dequantize())
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.dequantize(), second.dequantize())


@pytest.fixture(scope="module")
def small_quant(tmp_path_factory):
    config = ArchConfig(width_multiplier=0.25)
    params = init_params(config, 21).astype(np.float32)
    qm = quantize_model(params, config)
    return config, params, qm


class TestQuantizeModel:
    def test_weights_quantized_biases_float(self, small_quant):
        _, params, qm = small_quant
        assert "conv1_w" in qm.quantized
        assert "attn_wq" in qm.quantized
        assert "cls_w" in qm.quantized
        assert "conv1_b" in qm.retained
        assert "ln1_gain" in qm.retained
        assert qm.retained["conv1_b"].dtype == np.float32

    def test_error_bound_holds_for_every_tensor(self, small_quant):
        _, params, qm = small_quant
        for name, qt in qm.quantized.items():
            err = np.abs(qt.dequantize().astype(np.float64) - params[name].astype(np.float64))
            assert err.max() <= qt.scale / 2 + 1e-9, name

    def test_round_trip_bit_identical(self, small_quant, tmp_path):
        config, _, qm = small_quant
        path = tmp_path / "q.slpm"
        save_quant_model(qm, path)
        kind, loaded, _ = load_any_model(path)
        assert kind == "quant" and loaded.config == config
        for name, qt in qm.quantized.items():
            np.testing.assert_array_equal(loaded.quantized[name].values, qt.values)
            assert loaded.quantized[name].scale == pytest.approx(qt.scale, rel=1e-7)
        for name, arr in qm.retained.items():
            np.testing.assert_array_equal(loaded.retained[name], arr)

    def test_float_loader_refuses_quant_file(self, small_quant, tmp_path):
        _, _, qm = small_quant
        path = tmp_path / "q.slpm"
        save_quant_model(qm, path)
        with pytest.raises(ModelFormatError, match="quantized"):
            load_model(path)
        kind, _, _ = load_any_model(path)
        assert kind == "quant"

    @pytest.mark.parametrize("quantized", [False, True])
    def test_load_any_model_reads_file_once(self, small_quant, tmp_path, monkeypatch, quantized):
        config, params, qm = small_quant
        path = tmp_path / "m.slpm"
        if quantized:
            save_quant_model(qm, path)
        else:
            save_model(params, config, path)
        calls = []
        read = model_mod.read_slpm
        monkeypatch.setattr(
            "edgesleep.quant.read_slpm", lambda p: calls.append(p) or read(p)
        )
        kind, obj, loaded_config = load_any_model(path)
        assert calls == [path]
        assert kind == ("quant" if quantized else "float")
        assert loaded_config == config
        loaded = obj.dequantize() if quantized else obj
        expected = qm.dequantize() if quantized else params
        assert loaded.names() == expected.names()
        for name in expected.names():
            np.testing.assert_array_equal(loaded[name], expected[name])

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda e: e + [("extra_w", np.zeros(2, np.float32), None)], "unexpected tensor 'extra_w'"),
            (lambda e: [(n, a[:1] if n == "cls_b" else a, s) for n, a, s in e], "tensor cls_b: shape"),
            (lambda e: [x for x in e if x[0] != "cls_b"], r"missing tensors: \['cls_b'\]"),
        ],
    )
    @pytest.mark.parametrize("quantized", [False, True])
    def test_loaders_share_tensor_checks(self, small_quant, tmp_path, tamper, message, quantized):
        config, params, qm = small_quant
        if quantized:
            entries = [(n, qt.values, qt.scale) for n, qt in qm.quantized.items()]
            entries += [(n, a, None) for n, a in qm.retained.items()]
            load = load_any_model
        else:
            entries = [(n, a, None) for n, a in params.tensors.items()]
            load = load_model
        path = tmp_path / "bad.slpm"
        write_slpm(path, config, tamper(entries))
        for loader in (load, load_any_model):
            with pytest.raises(ModelFormatError, match=message):
                loader(path)

    def test_default_model_size_reduction(self, tmp_path):
        config = ArchConfig()
        params = init_params(config, 22).astype(np.float32)
        float_path = tmp_path / "f32.slpm"
        quant_path = tmp_path / "int8.slpm"
        save_model(params, config, float_path)
        save_quant_model(
            quantize_model(params, config), quant_path
        )
        float_size = float_path.stat().st_size
        quant_size = quant_path.stat().st_size
        assert quant_size < 300_000
        assert quant_size < 0.3 * float_size
        assert float_size > 4 * 277_669


class TestDequantizeOnce:
    def test_built_once_per_model(self, small_quant, tmp_path, monkeypatch):
        config, _, qm = small_quant
        path = tmp_path / "q.slpm"
        save_quant_model(qm, path)
        calls = []
        original = QuantTensor.dequantize
        monkeypatch.setattr(
            QuantTensor, "dequantize", lambda self: calls.append(1) or original(self)
        )
        params, loaded_config = _load_float_model(path)
        assert loaded_config == config
        assert len(calls) == len(qm.quantized)
        x = standardize(np.random.default_rng(57).normal(size=3000))
        predict = make_predictor(params, loaded_config)
        assert len(calls) == len(qm.quantized)
        assert np.array_equal(predict(x), dequantized_forward(qm, x))


class TestDequantize:
    def test_fresh_arrays_on_every_call(self, small_quant):
        _, _, qm = small_quant
        first, second = qm.dequantize(), qm.dequantize()
        assert first.names() == second.names()
        for name in first.names():
            np.testing.assert_array_equal(first[name], second[name])
            assert first[name].dtype == np.float32
            assert not np.shares_memory(first[name], second[name])
            for arr in qm.retained.values():
                assert not np.shares_memory(first[name], arr)


class TestQuantForward:
    def test_probs_sum_to_one(self, small_quant):
        _, _, qm = small_quant
        x = standardize(np.random.default_rng(52).normal(size=3000))
        probs = dequantized_forward(qm, x)
        assert abs(probs.sum() - 1.0) <= 1e-6

    def test_batch_rows_equal_single_epochs_bitwise(self, small_quant):
        _, _, qm = small_quant
        xs = standardize(np.random.default_rng(58).normal(size=(6, 3000)))
        want = np.stack([dequantized_forward(qm, x) for x in xs])
        assert np.array_equal(dequantized_forward(qm, xs), want)

    def test_list_input(self, small_quant):
        _, _, qm = small_quant
        x = standardize(np.random.default_rng(60).normal(size=3000))
        assert np.array_equal(dequantized_forward(qm, x.tolist()), dequantized_forward(qm, x))

    def test_deterministic(self, small_quant):
        _, _, qm = small_quant
        x = standardize(np.random.default_rng(53).normal(size=3000))
        assert np.array_equal(dequantized_forward(qm, x), dequantized_forward(qm, x))

    def test_exactly_representable_weights_match_float_path(self):
        """Weights on the grid k/64 with max |k| = 127 quantize losslessly
        (scale is exactly 1/64), so both paths compute identical float32."""
        config = ArchConfig(width_multiplier=0.25)
        params = init_params(config, 23).astype(np.float32)
        rng = np.random.default_rng(24)
        for name, arr in params.tensors.items():
            if arr.ndim >= 2:
                grid = rng.integers(-127, 128, size=arr.shape).astype(np.float32)
                grid.flat[0] = 127.0
                params.tensors[name] = grid / np.float32(64.0)
        qm = quantize_model(params, config)
        for name, qt in qm.quantized.items():
            np.testing.assert_array_equal(qt.dequantize(), params[name])
        x = standardize(np.random.default_rng(55).normal(size=3000))
        float_probs, _ = forward(params, x, config)
        np.testing.assert_allclose(dequantized_forward(qm, x), float_probs, atol=1e-6)

    def test_argmax_agreement_on_trained_model(self, overfit_run):
        params = overfit_run["params"].astype(np.float32)
        config = overfit_run["config"]
        qm = quantize_model(params, config)
        agree = 0
        for e in overfit_run["data"]:
            x = standardize(e.samples)
            fp, _ = forward(params, x, config)
            qp = dequantized_forward(qm, x)
            agree += int(np.argmax(fp) == np.argmax(qp))
        assert agree / len(overfit_run["data"]) >= 0.95


@pytest.fixture(scope="module")
def model_bytes(small_quant, tmp_path_factory):
    """{kind: (file bytes, bytes before the first payload)} of a valid float
    and a valid int8 model file."""
    config, params, qm = small_quant
    tmp = tmp_path_factory.mktemp("mutated_models")
    out = {}
    for kind, save in (("float", lambda p: save_model(params, config, p)),
                       ("int8", lambda p: save_quant_model(qm, p))):
        path = tmp / f"{kind}.slpm"
        save(path)
        raw = path.read_bytes()
        payload = sum(arr.nbytes for arr, _ in read_slpm(path)[1].values())
        out[kind] = (raw, len(raw) - payload)
    return out, tmp / "mutant.slpm"


class TestMutatedModelFiles:
    """Truncated, bit-flipped and spliced model files: each either raises
    ModelFormatError or loads finite float32 tensors of the shapes its
    architecture block implies."""

    @staticmethod
    def position(data, raw, head):
        # half the draws land in the header and tensor directory
        return data.draw(st.one_of(st.integers(0, head - 1), st.integers(0, len(raw) - 1)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejected_or_loads_finite_tensors(self, model_bytes, data):
        files, path = model_bytes
        raw, head = files[data.draw(st.sampled_from(sorted(files)))]
        mutation = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
        if mutation == "truncate":
            mutant = raw[: self.position(data, raw, head)]
        elif mutation == "flip":
            mutant = bytearray(raw)
            for _ in range(data.draw(st.integers(1, 4))):
                mutant[self.position(data, raw, head)] ^= 1 << data.draw(st.integers(0, 7))
        else:
            other, other_head = files[data.draw(st.sampled_from(sorted(files)))]
            mutant = raw[: self.position(data, raw, head)] + other[
                self.position(data, other, other_head) :
            ]
        path.write_bytes(bytes(mutant))
        try:
            kind, loaded, config = load_any_model(path)
        except ModelFormatError:
            return
        params = loaded.dequantize() if kind == "quant" else loaded
        shapes = expected_shapes(config)
        assert params.names() == list(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == shape and params[name].dtype == np.float32, name
            assert np.isfinite(params[name]).all(), name
