"""Span tracer that instruments edgesleep from outside the program.

``Tracer.install`` replaces every public function of the traced modules at
every name it is bound to (the module attribute and each ``from ... import``
binding in other edgesleep modules), plus the methods
``EdfFile.annotations`` and ``QuantModel.dequantize`` and the callable that
``streaming.make_predictor`` returns.  Spans (name, start, end, parent,
workload run id, count) are kept in memory; ``write`` saves them as CSV and
``layer_metrics`` turns one run's spans into the per-layer metrics.

Kernel calls are named after the ``budget.mac_table`` layer whose weight
shape (from ``model.expected_shapes``) they receive, e.g.
``kernels.conv2.fwd`` or ``kernels.classifier.bwd``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("kernels", "model", "training", "streaming", "edf", "epochs",
                  "quant", "metrics", "cli")
MAC_LAYERS = ("conv1", "conv2", "conv3", "conv4", "attention", "ffn_dense1",
              "ffn_dense2", "classifier")
CLI_COMMANDS = ("convert", "eval", "train", "stream")
STORE_EPOCH_BYTES = 8 + 3000 * 4


def layer_by_shape(config) -> dict[tuple[int, ...], str]:
    """Weight shape -> mac_table layer name for the given architecture."""
    from edgesleep import model

    shapes = model.expected_shapes(config)
    names = {f"conv{i}_w": f"conv{i}" for i in range(1, len(config.conv_table) + 1)}
    names.update(ffn1_w="ffn_dense1", ffn2_w="ffn_dense2", cls_w="classifier")
    return {shapes[tensor]: layer for tensor, layer in names.items()}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self, config):
        self.layers = layer_by_shape(config)
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.count: list[float] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def enter(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, namer=None, counter=None, result_name=None):
        """Return a traced stand-in for fn.  namer(args, kwargs) refines the
        span name per call; counter(args, kwargs, result) sets its count;
        result_name wraps a returned callable as a span of its own."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.enter(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(i)
            if counter is not None:
                tracer.count[i] = counter(args, kwargs, result)
            if result_name is not None:
                result = tracer.wrap(result, result_name)
            return result

        return traced

    # --- instrumentation ----------------------------------------------------

    def _specs(self) -> dict[str, dict]:
        def weight_layer(direction):
            def namer(args, kwargs):
                w = _arg(args, kwargs, 1, "w")
                return f"kernels.{self.layers.get(w.shape, 'other')}.{direction}"
            return {"namer": namer}

        return {
            "kernels.conv1d": weight_layer("fwd"),
            "kernels.conv1d_backward": weight_layer("bwd"),
            "kernels.dense": weight_layer("fwd"),
            "kernels.dense_backward": weight_layer("bwd"),
            "kernels.multi_head_attention_with_cache": {"name": "kernels.attention.fwd"},
            "kernels.multi_head_attention_backward": {"name": "kernels.attention.bwd"},
            "kernels.layer_norm": {"name": "kernels.layer_norm.fwd"},
            "kernels.layer_norm_backward": {"name": "kernels.layer_norm.bwd"},
            "kernels.relu": {"name": "kernels.relu.fwd"},
            "kernels.relu_backward": {"name": "kernels.relu.bwd"},
            "model.forward": {
                "namer": lambda a, k: "model.forward." + str(k.get("mode", a[3] if len(a) > 3 else "infer"))
            },
            "streaming.make_predictor": {"result_name": "streaming.predict"},
            "streaming.stream_classify": {
                "counter": lambda a, k, r: r[0] * 3000 + r[1]  # samples consumed
            },
            # bytes of the channel in the file: n_records * samples_per_record int16s
            "edf.read_signal": {"counter": lambda a, k, r: r.size * 2},
            "epochs.read_store": {"counter": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))},
            "epochs.segment_epochs": {"counter": lambda a, k, r: len(_arg(a, k, 0, "samples")) // 3000},
            "epochs.trim_wake": {"counter": lambda a, k, r: len(r.epochs)},
            **{f"cli.cmd_{c}": {"name": f"cli.{c}"} for c in CLI_COMMANDS},
        }

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced modules at every binding."""
        import edgesleep
        from edgesleep import edf, quant

        specs = self._specs()
        wrapped = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"edgesleep.{short}"]
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                key = f"{short}.{attr}"
                spec = dict(specs.get(key, {}))
                wrapped[value] = self.wrap(value, spec.pop("name", key), **spec)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == edgesleep.__name__]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])
        self._patch(edf.EdfFile, "annotations", self.wrap(edf.EdfFile.annotations, "edf.annotations"))
        self._patch(
            quant.QuantModel, "dequantize", self.wrap(quant.QuantModel.dequantize, "quant.dequantize")
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent,run,count\n")
            for i, row in enumerate(zip(self.name, self.start, self.end, self.parent, self.run, self.count)):
                f.write(f"{i},{','.join(str(v) for v in row)}\n")

    def spans(self, run: int) -> "RunSpans":
        return RunSpans(self, run)


class RunSpans:
    """Aggregates of one workload run's spans, with self time per span."""

    def __init__(self, tracer: Tracer, run: int):
        idx = [i for i, r in enumerate(tracer.run) if r == run]
        self.index = idx
        self.tracer = tracer
        dur = {i: tracer.end[i] - tracer.start[i] for i in idx}
        child = defaultdict(int)
        self.kids = defaultdict(list)
        for i in idx:
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
                self.kids[p].append(i)
        self.calls = defaultdict(int)
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        for i in idx:
            name = tracer.name[i]
            self.calls[name] += 1
            self.ns[name] += dur[i]
            self.self_ns[name] += dur[i] - child[i]
            self.counts[name] += tracer.count[i]

    def ms(self, name: str) -> float:
        return self.ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def under(self, name: str, ancestor: str) -> list[int]:
        """Spans called `name` that have an ancestor span called `ancestor`."""
        t = self.tracer
        out = []
        for i in self.index:
            if t.name[i] != name:
                continue
            p = t.parent[i]
            while p >= 0 and t.name[p] != ancestor:
                p = t.parent[p]
            if p >= 0:
                out.append(i)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: RunSpans, macs: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.  GMAC/s is computed from
    mac_table counts (backward counted as twice the forward MACs)."""
    m: dict[str, float] = {}
    for layer in MAC_LAYERS:
        for direction, factor in (("fwd", 1), ("bwd", 2)):
            name = f"kernels.{layer}.{direction}"
            m[f"{name}.calls"] = s.calls[name]
            m[f"{name}.ms"] = s.ms(name)
            m[f"{name}.gmac_per_s"] = _ratio(s.calls[name] * macs[layer] * factor, s.ns[name])
    for name in ("layer_norm.fwd", "layer_norm.bwd", "relu.fwd", "relu.bwd"):
        m[f"kernels.{name}.ms"] = s.ms(f"kernels.{name}")
    m["kernels.softmax.ms"] = s.ms("kernels.softmax")
    for mode in ("infer", "train"):
        name = f"model.forward.{mode}"
        m[f"{name}.calls"] = s.calls[name]
        m[f"{name}.ms"] = s.ms(name)
        m[f"{name}.self_ms"] = s.self_ms(name)
    m["model.read_slpm.calls"] = s.calls["model.read_slpm"]
    m["model.read_slpm.ms"] = s.ms("model.read_slpm")
    m["model.save_model.ms"] = s.ms("model.save_model")
    m["training.batch_gradients.calls"] = s.calls["training.batch_gradients"]
    m["training.batch_gradients.ms"] = s.ms("training.batch_gradients")
    m["training.backprop.ms"] = s.ms("training.backprop")
    m["training.backprop.self_ms"] = s.self_ms("training.backprop")
    m["training.adam_step.calls"] = s.calls["training.adam_step"]
    m["training.adam_step.ms"] = s.ms("training.adam_step")
    m["training.fit.self_ms"] = s.self_ms("training.fit")
    stream = "streaming.stream_classify"
    samples = s.counts[stream]
    decisions = samples // 3000
    m[f"{stream}.ms"] = s.ms(stream)
    m[f"{stream}.self_ms"] = s.self_ms(stream)
    m["streaming.loop_ns_per_sample"] = _ratio(s.self_ns[stream], samples)
    m["streaming.predict.calls"] = s.calls["streaming.predict"]
    m["streaming.predict.ms"] = s.ms("streaming.predict")
    m["streaming.unscorable_ratio"] = _ratio(decisions - s.calls["streaming.predict"], decisions)
    m["edf.parse_edf.ms"] = s.ms("edf.parse_edf")
    m["edf.read_signal.ms"] = s.ms("edf.read_signal")
    m["edf.read_signal.mb_per_s"] = _ratio(s.counts["edf.read_signal"] / 1e6, s.ns["edf.read_signal"] / 1e9)
    m["edf.annotations.ms"] = s.ms("edf.annotations")
    for name in ("segment_epochs", "trim_wake", "write_store"):
        m[f"epochs.{name}.ms"] = s.ms(f"epochs.{name}")
    reread = sum(s.tracer.count[i] for i in s.under("epochs.read_store", "cli.convert"))
    kept = s.counts["epochs.trim_wake"]
    m["epochs.convert_reread_ratio"] = _ratio(reread, kept * STORE_EPOCH_BYTES)
    m["epochs.read_store.calls"] = s.calls["epochs.read_store"]
    m["epochs.read_store.ms"] = s.ms("epochs.read_store")
    m["epochs.standardize.calls"] = s.calls["epochs.standardize"]
    m["epochs.standardize.ms"] = s.ms("epochs.standardize")
    m["epochs.kept_ratio"] = _ratio(kept, s.counts["epochs.segment_epochs"])
    m["quant.load_any_model.ms"] = s.ms("quant.load_any_model")
    m["quant.dequantize.calls"] = s.calls["quant.dequantize"]
    m["quant.dequantize.ms"] = s.ms("quant.dequantize")
    m["metrics.confusion.ms"] = s.ms("metrics.confusion")
    m["metrics.class_metrics.ms"] = s.ms("metrics.class_metrics")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.ms"] = s.ms(f"cli.{command}")
        m[f"cli.{command}.self_ms"] = s.self_ms(f"cli.{command}")
    return m


def structure_failures(s: RunSpans) -> list[str]:
    """Checks that hold for any workload: spans nest, every kernel call maps
    to a mac_table layer, and each forward makes 4 conv1d calls and one
    attention call."""
    t = s.tracer
    out = []
    for i in s.index:
        p = t.parent[i]
        if t.end[i] < t.start[i] or (p >= 0 and not t.start[p] <= t.start[i] <= t.end[i] <= t.end[p]):
            out.append(f"span {i} ({t.name[i]}) does not nest in its parent")
            break
    other = [n for n in s.calls if n.startswith("kernels.other.")]
    if other:
        out.append(f"kernel calls not attributed to a mac_table layer: {other}")
    for i in s.index:
        if not t.name[i].startswith("model.forward."):
            continue
        kids = [t.name[j] for j in s.kids[i]]
        convs = sum(1 for n in kids if n.startswith("kernels.conv") and n.endswith(".fwd"))
        attention = sum(1 for n in kids if n in ("kernels.attention.fwd", "kernels.multi_head_attention"))
        if convs != 4 or attention != 1:
            out.append(f"forward span {i} made {convs} conv1d and {attention} attention calls")
            break
    return out


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(np.median([m[k] for m in per_run])) for k in per_run[0]}
