"""Post-training int8 quantization of model weights.

Symmetric per-tensor scheme: scale = max|t| / 127, values rounded half-to-
even and clamped to [-127, 127], zero point 0.  Weight matrices/kernels are
quantized; biases and layer-norm gains/shifts stay float32.  An int8 model
file is an SLPM file whose weight tensors are int8; model.read_slpm checks
it like any other.  Inference is hybrid: `eval` and `stream` dequantize a
loaded int8 model once and run the float32 forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ArchConfig, ModelParams, expected_shapes, read_slpm, write_slpm


def _is_weight(name: str) -> bool:
    return name.endswith("_w") or (name.startswith("attn_w"))


@dataclass(frozen=True)
class QuantTensor:
    """int8 payload with its dequantization scale (zero point fixed at 0)."""

    values: np.ndarray  # int8, in the tensor's shape
    scale: float

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float32) * np.float32(self.scale)


@dataclass(frozen=True)
class QuantModel:
    """Quantized weight tensors plus the float32 tensors kept as-is."""

    config: ArchConfig
    quantized: dict[str, QuantTensor]
    retained: dict[str, np.ndarray]

    def dequantize(self) -> ModelParams:
        """Fresh float32 parameters: each int8 weight times its scale, and a
        copy of each retained tensor."""
        return ModelParams(
            {
                name: self.quantized[name].dequantize()
                if name in self.quantized
                else self.retained[name].astype(np.float32)
                for name in expected_shapes(self.config)
            }
        )


def quantize_tensor(t: np.ndarray) -> QuantTensor:
    """Symmetric per-tensor int8; an all-zero tensor gets scale 1."""
    t = np.asarray(t)
    peak = float(np.max(np.abs(t))) if t.size else 0.0
    scale = peak / 127.0 if peak > 0 else 1.0
    return QuantTensor(values=np.clip(np.round(t / scale), -127, 127).astype(np.int8), scale=scale)


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
            entries.append((name, qt.values, qt.scale))
        else:
            entries.append((name, qmodel.retained[name], None))
    write_slpm(path, qmodel.config, entries)


def load_any_model(path):
    """("float", params, config) for a float32 file, ("quant", qmodel, config)
    for one whose weight tensors are int8; read_slpm checks either."""
    config, tensors = read_slpm(path)
    quantized = {
        n: QuantTensor(arr, scale) for n, (arr, scale) in tensors.items() if scale is not None
    }
    retained = {n: arr for n, (arr, scale) in tensors.items() if scale is None}
    if not quantized:
        return "float", ModelParams(retained), config
    return "quant", QuantModel(config=config, quantized=quantized, retained=retained), config
