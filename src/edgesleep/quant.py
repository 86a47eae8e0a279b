"""Post-training int8 quantization of model weights.

Symmetric per-tensor scheme: scale = max|t| / 127, values rounded half-to-
even and clamped to [-127, 127], zero point 0.  Weight matrices/kernels are
quantized; biases and layer-norm gains/shifts stay float32.  Inference is
hybrid: int8 storage, dequantized once per model, activations at 32 bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    FLAG_QUANTIZED,
    ArchConfig,
    ModelParams,
    checked_entries,
    expected_shapes,
    params_from_entries,
    read_slpm,
    write_slpm,
)


def _is_weight(name: str) -> bool:
    return name.endswith("_w") or (name.startswith("attn_w"))


@dataclass(frozen=True)
class QuantTensor:
    """int8 payload with its dequantization scale (zero point fixed at 0)."""

    values: np.ndarray  # int8
    scale: float
    shape: tuple[int, ...]

    def dequantize(self) -> np.ndarray:
        return (self.values.astype(np.float32) * np.float32(self.scale)).reshape(self.shape)


@dataclass(frozen=True)
class QuantModel:
    """Quantized weight tensors plus the float32 tensors kept as-is."""

    config: ArchConfig
    quantized: dict[str, QuantTensor]
    retained: dict[str, np.ndarray]

    def dequantize(self) -> ModelParams:
        """The float32 parameters, built on the first call; later calls
        return the same read-only arrays."""
        return self._params

    @cached_property
    def _params(self) -> ModelParams:
        tensors: dict[str, np.ndarray] = {}
        for name in expected_shapes(self.config):
            if name in self.quantized:
                t = self.quantized[name].dequantize()
            else:
                t = self.retained[name].view()  # read-only without freezing the original
            t.flags.writeable = False
            tensors[name] = t
        return ModelParams(tensors)


def quantize_tensor(t: np.ndarray) -> QuantTensor:
    """Symmetric per-tensor int8; an all-zero tensor gets scale 1."""
    t = np.asarray(t)
    peak = float(np.max(np.abs(t))) if t.size else 0.0
    scale = peak / 127.0 if peak > 0 else 1.0
    q = np.clip(np.round(t / scale), -127, 127).astype(np.int8)
    return QuantTensor(values=q.reshape(-1), scale=scale, shape=t.shape)


def quantize_model(params: ModelParams, config: ArchConfig) -> QuantModel:
    """Quantize every weight tensor; biases/gains/shifts stay float32.

    The scheme is weight-only, so it needs no calibration data.
    """
    quantized: dict[str, QuantTensor] = {}
    retained: dict[str, np.ndarray] = {}
    for name, arr in params.tensors.items():
        if _is_weight(name):
            quantized[name] = quantize_tensor(arr)
        else:
            retained[name] = np.asarray(arr, dtype=np.float32)
    return QuantModel(config=config, quantized=quantized, retained=retained)


def save_quant_model(qmodel: QuantModel, path) -> None:
    entries = []
    for name in expected_shapes(qmodel.config):
        if name in qmodel.quantized:
            qt = qmodel.quantized[name]
            entries.append((name, qt.values.reshape(qt.shape), qt.scale))
        else:
            entries.append((name, qmodel.retained[name], None))
    write_slpm(path, qmodel.config, entries, quantized=True)


def load_any_model(path):
    """Dispatch on the quantized flag: returns ("float", params, config) or
    ("quant", qmodel, config)."""
    config, flags, entries = read_slpm(path)
    if not flags & FLAG_QUANTIZED:
        return "float", params_from_entries(config, entries), config
    quantized: dict[str, QuantTensor] = {}
    retained: dict[str, np.ndarray] = {}
    for name, (arr, scale) in checked_entries(config, entries).items():
        if scale is not None:
            quantized[name] = QuantTensor(values=arr.reshape(-1), scale=scale, shape=arr.shape)
        else:
            retained[name] = arr
    return "quant", QuantModel(config=config, quantized=quantized, retained=retained), config
