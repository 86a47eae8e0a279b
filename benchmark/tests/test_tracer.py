"""The tracer wraps every binding, attributes kernel calls to mac_table
layers by weight shape, and computes self time from child spans."""

import numpy as np
import pytest

import tracer as tracing
from edgesleep import budget, epochs, model, streaming, training

CONFIG = model.ArchConfig(width_multiplier=1.0)


@pytest.fixture()
def tracer():
    t = tracing.Tracer(CONFIG)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_rebinds_from_imports_and_uninstall_restores():
    originals = (model.forward, streaming.forward, training.forward, training.standardize)
    t = tracing.Tracer(CONFIG)
    t.install()
    try:
        assert streaming.forward is model.forward is training.forward
        assert model.forward is not originals[0]
        assert training.standardize is epochs.standardize is not originals[3]
    finally:
        t.uninstall()
    assert (model.forward, streaming.forward, training.forward, training.standardize) == originals


def test_kernel_calls_map_to_mac_table_layers(tracer):
    params = model.init_params(CONFIG, 0)
    x = epochs.standardize(np.random.default_rng(0).normal(size=3000))
    _, cache = model.forward(params, x, CONFIG, mode="train")
    training.backprop(params, CONFIG, cache, 2)
    spans = tracer.spans(0)
    layers = [name for name, _ in budget.mac_table(CONFIG)]
    assert sorted(layers) == sorted(tracing.MAC_LAYERS)
    for layer in layers:
        assert spans.calls[f"kernels.{layer}.fwd"] == 1, layer
        assert spans.calls[f"kernels.{layer}.bwd"] == 1, layer
    assert not [n for n in spans.calls if "other" in n]
    assert tracing.structure_failures(spans) == []
    # each span's weight really is that layer's tensor
    shapes = model.expected_shapes(CONFIG)
    assert tracer.layers[shapes["conv3_w"]] == "conv3"
    assert tracer.layers[shapes["ffn2_w"]] == "ffn_dense2"
    assert tracer.layers[shapes["cls_w"]] == "classifier"


def test_infer_forward_counts_and_predictor_span(tracer):
    params = model.init_params(CONFIG, 1).astype(np.float32)
    predict = streaming.make_predictor(params, CONFIG)
    x = epochs.standardize(np.random.default_rng(1).normal(size=3000))
    for _ in range(3):
        predict(x)
    spans = tracer.spans(0)
    assert spans.calls["streaming.predict"] == 3
    assert spans.calls["model.forward.infer"] == 3
    assert spans.calls["kernels.conv1.fwd"] == 3
    assert spans.calls["kernels.attention.fwd"] == 3
    assert tracing.structure_failures(spans) == []


def test_self_time_excludes_children():
    t = tracing.Tracer(CONFIG)
    outer = t.enter("outer")
    inner = t.enter("inner")
    t.exit(inner)
    t.exit(outer)
    t.start[outer], t.end[outer] = 0, 10_000_000
    t.start[inner], t.end[inner] = 2_000_000, 6_000_000
    spans = t.spans(0)
    assert spans.ms("outer") == 10.0
    assert spans.self_ms("outer") == 6.0
    assert spans.self_ms("inner") == 4.0


def test_layer_metrics_cover_benchmark_json():
    import json
    from pathlib import Path

    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    macs = dict(budget.mac_table(CONFIG))
    produced = list(tracing.layer_metrics(tracing.Tracer(CONFIG).spans(0), macs))
    assert names == produced + ["trace.overhead_ratio"]
