"""The fixed CNN-Transformer network: assembly, forward pass, serialization.

Architecture: four valid-padded 1-D convolutions (ReLU each) squeeze the
3000-sample epoch down to a [19, 128] feature map, one pre-norm transformer
block (self-attention + position-wise feed-forward, residual adds) mixes
contexts across the 19 positions, and a dense softmax classifier over the
flattened features yields the 5 stage probabilities.

Model files use the little-endian "SLPM" container: magic, u16 version,
u16 flags, the architecture block, a u32 tensor count, a tensor directory
(name, rank, dims, dtype code, payload offset and length, plus a float32
scale after each int8 entry), then the raw payloads.  The header's
FLAG_QUANTIZED bit is set exactly when some tensor is int8.  read_slpm is
the one reader of the format: it checks every directory entry against the
tensors the architecture block implies (expected_shapes) and every float32
value for finiteness.  The block must describe the paper's network at a
finite, positive width.  A malformed file raises ModelFormatError, which
the CLI exits with code 6.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from . import kernels
from .epochs import EPOCH_SAMPLES, standardize

MODEL_MAGIC = b"SLPM"
MODEL_VERSION = 1
FLAG_QUANTIZED = 0x0001

DTYPE_F32 = 0
DTYPE_I8 = 1
# The largest int8 scale at which every int8 value, -128 included,
# dequantizes to a finite float32.
INT8_SCALE_MAX = float(np.finfo(np.float32).max) / 128

# Rows per batched forward: the chunks that `chunks` yields, which reads it
# when it runs, to predict (and so eval, adapt and fit's validation) and to
# training.batch_gradients.  predict's bits do not depend on it (the row
# contract in kernels); the order in which batch_gradients adds chunk
# gradients does.  The chunk, not the number of epochs, bounds the working
# memory.  Measured on a 2-core x86 VM
# (float32, width 1.0, one BLAS thread):
# - train benchmark (batch 64, median of 4 runs): 8 rows trained 558
#   samples/s at 58.9 MB peak RSS, 4 rows 473/s at 54.9 MB;
# - predict (640 epochs, 6 alternated runs): a median 280 us/epoch at 8 rows
#   and 278 us at 32, with bitwise-equal probabilities, and a tracemalloc
#   peak of 1.9 MB at 8 rows against 7.4 MB at 32.
# A constant, so that results never depend on the caller.
CHUNK_ROWS = 8


class ModelFormatError(ValueError):
    """Corrupt, truncated, or incompatible model file."""


@dataclass(frozen=True)
class ArchConfig:
    """The paper's network at some width: width_multiplier scales every
    channel count, and nothing else of the architecture varies.

    conv_table rows are (kernel, stride, out_channels) at multiplier 1.0.
    Scaled channel counts round to a multiple of `heads` so attention always
    splits evenly.  The derived sizes are computed on first use and kept in
    the instance, so a forward does not rebuild them; equality and hashing
    still see only width_multiplier.
    """

    conv_table = ((50, 6, 32), (8, 4, 64), (8, 3, 128), (3, 2, 128))
    d_model = 128
    heads = 4
    ffn_dim = 256
    n_classes = 5

    width_multiplier: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.width_multiplier) and self.width_multiplier > 0):
            raise ValueError(f"width_multiplier {self.width_multiplier} is not finite and positive")

    def _scale(self, channels: int) -> int:
        scaled = round(channels * self.width_multiplier / self.heads) * self.heads
        return max(self.heads, scaled)

    @cached_property
    def scaled_conv_table(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((k, s, self._scale(c)) for k, s, c in self.conv_table)

    @cached_property
    def scaled_d_model(self) -> int:
        return self._scale(self.d_model)

    @cached_property
    def scaled_ffn_dim(self) -> int:
        return self._scale(self.ffn_dim)

    def conv_lengths(self) -> list[int]:
        """Sequence lengths after each conv layer on an epoch: floor((L - K)/stride) + 1."""
        lengths = []
        length = EPOCH_SAMPLES
        for k, s, _ in self.conv_table:
            length = (length - k) // s + 1
            lengths.append(length)
        return lengths

    @cached_property
    def feature_len(self) -> int:
        return self.conv_lengths()[-1]

    @cached_property
    def flat_dim(self) -> int:
        return self.feature_len * self.scaled_d_model


def expected_shapes(config: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor name -> shape map; its order fixes RNG and file order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cin = 1
    for i, (k, _, cout) in enumerate(config.scaled_conv_table, start=1):
        shapes[f"conv{i}_w"] = (k, cin, cout)
        shapes[f"conv{i}_b"] = (cout,)
        cin = cout
    d = config.scaled_d_model
    for suffix in ("q", "k", "v", "o"):
        shapes[f"attn_w{suffix}"] = (d, d)
        shapes[f"attn_b{suffix}"] = (d,)
    for block in ("ln1", "ln2"):
        shapes[f"{block}_gain"] = (d,)
        shapes[f"{block}_shift"] = (d,)
    f = config.scaled_ffn_dim
    shapes["ffn1_w"] = (d, f)
    shapes["ffn1_b"] = (f,)
    shapes["ffn2_w"] = (f, d)
    shapes["ffn2_b"] = (d,)
    shapes["cls_w"] = (config.flat_dim, config.n_classes)
    shapes["cls_b"] = (config.n_classes,)
    return shapes


@dataclass
class ModelParams:
    """Named-tensor container for all weights, in canonical order."""

    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def astype(self, dtype) -> "ModelParams":
        return ModelParams({n: t.astype(dtype) for n, t in self.tensors.items()})


def param_count(params: ModelParams) -> int:
    return sum(t.size for t in params.tensors.values())


def init_params(config: ArchConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit layer-norm gains.

    Weights draw from uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out));
    conv fans count the kernel extent.  Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if len(shape) == 1:  # biases zero, layer-norm gains one
            fill = 1.0 if name.endswith("_gain") else 0.0
            tensors[name] = np.full(shape, fill, dtype=np.float64)
        else:
            if len(shape) == 3:  # conv kernel [K, Cin, Cout]
                k, cin, cout = shape
                fan_in, fan_out = k * cin, k * cout
            else:  # dense [N, M]
                fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-a, a, size=shape)
    return ModelParams(tensors)


@dataclass
class ForwardCache:
    """Per-layer activations retained by a training-mode forward pass.

    Each activation is kept once.  acts[0] is the input view [..., 3000, 1]
    and acts[i] is the ReLU output of conv i, so conv i reads acts[i-1] and
    acts[-1] is the feature map [..., T, D].  No ReLU input is kept:
    backprop takes each ReLU's mask from its output (kernels.relu_backward).
    attn.x is the output of ln1, and flat is the block's output [..., T*D],
    the classifier's input.  Every array keeps the leading batch axes
    of the forward input.
    """

    acts: list[np.ndarray]
    attn: kernels.AttentionCache
    resid1: np.ndarray
    normed2: np.ndarray
    ffn_hidden: np.ndarray
    flat: np.ndarray
    probs: np.ndarray


def forward(
    params: ModelParams,
    x: np.ndarray,
    config: ArchConfig,
    mode: str = "infer",
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on one standardized epoch or a batch of them.

    x is [3000] (one epoch) or [N, 3000]; returns (probs, cache) with probs
    [5] or [N, 5] and the cache only in "train" mode.  Compute happens in
    the dtype the parameters carry.  Each row of probs is the same bits as
    a call on that epoch alone (the row contract in kernels).
    """
    if mode not in ("infer", "train"):
        raise ValueError(f"mode must be 'infer' or 'train', got {mode!r}")
    dtype = params["conv1_w"].dtype
    x = np.asarray(x, dtype=dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != EPOCH_SAMPLES:
        raise ValueError(
            f"input must be [{EPOCH_SAMPLES}] or [N, {EPOCH_SAMPLES}], got {x.shape}"
        )
    h = x[..., None]  # [..., 3000, 1]
    acts = [h]

    # a non-finite value ends in a kernel's NonFiniteError, not in a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (_, stride, _) in enumerate(config.scaled_conv_table, start=1):
            h = kernels.relu(kernels.conv1d(h, params[f"conv{i}_w"], params[f"conv{i}_b"], stride))
            if mode == "train":
                acts.append(h)

        features = h  # [..., feature_len, d_model]
        normed1 = kernels.layer_norm(features, params["ln1_gain"], params["ln1_shift"])
        attn_out, attn_cache = kernels.multi_head_attention_with_cache(
            normed1,
            params["attn_wq"], params["attn_bq"],
            params["attn_wk"], params["attn_bk"],
            params["attn_wv"], params["attn_bv"],
            params["attn_wo"], params["attn_bo"],
            config.heads,
        )
        resid1 = features + attn_out

        normed2 = kernels.layer_norm(resid1, params["ln2_gain"], params["ln2_shift"])
        ffn_hidden = kernels.relu(kernels.dense(normed2, params["ffn1_w"], params["ffn1_b"]))
        ffn_out = kernels.dense(ffn_hidden, params["ffn2_w"], params["ffn2_b"])
        resid2 = resid1 + ffn_out

        flat = resid2.reshape(*x.shape[:-1], -1)
        # one [1, flat_dim] product per row, so a row's logits do not depend on N
        logits = kernels.dense(flat[..., None, :], params["cls_w"], params["cls_b"])[..., 0, :]
        probs = kernels.softmax(logits)

    if mode == "infer":
        return probs, None
    return probs, ForwardCache(acts, attn_cache, resid1, normed2, ffn_hidden, flat, probs)


def chunks(
    X: np.ndarray, rows: np.ndarray, dtype: np.dtype
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (part, standardize(X[rows[part]]) cast to dtype) for each slice
    part of CHUNK_ROWS positions of rows, in order; the last part is shorter
    when CHUNK_ROWS does not divide len(rows).

    The one place where stored rows are gathered and standardized for a
    batched forward, whose parameters' dtype the caller passes.  A chunk is
    made only when it is drawn, so its DegenerateEpochError (a flat or
    non-finite epoch) comes then.  The float64 standardized rows are freed
    before the chunk is yielded, so the caller's forward holds only its own
    input, and the chunk, not len(rows), bounds the working memory.
    """
    for start in range(0, len(rows), CHUNK_ROWS):
        part = slice(start, start + CHUNK_ROWS)
        yield part, np.asarray(standardize(X[rows[part]]), dtype=dtype)


def predict(
    params: ModelParams, config: ArchConfig, X: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Stage probabilities [len(rows), 5] of the epochs X[rows] of an
    [N, 3000] array, one forward per chunk that `chunks` yields.

    A flat or non-finite epoch raises DegenerateEpochError.  forward is
    batch-invariant, so each row equals forward(params, standardize(x),
    config) on that epoch alone, bit for bit, whatever the rows.
    """
    probs = np.empty((len(rows), config.n_classes), dtype=params["conv1_w"].dtype)
    for part, x in chunks(X, rows, probs.dtype):
        probs[part] = forward(params, x, config)[0]
    return probs


# --- SLPM container -------------------------------------------------------

_CONFIG_FMT_HEAD = "<I"  # number of conv layers
_CONFIG_FMT_TAIL = "<IIIIf"  # d_model, heads, ffn_dim, n_classes, width_multiplier


def _pack_config(config: ArchConfig) -> bytes:
    buf = struct.pack(_CONFIG_FMT_HEAD, len(config.conv_table))
    for k, s, c in config.conv_table:
        buf += struct.pack("<III", k, s, c)
    buf += struct.pack(
        _CONFIG_FMT_TAIL,
        config.d_model,
        config.heads,
        config.ffn_dim,
        config.n_classes,
        config.width_multiplier,
    )
    return buf


def _unpack_config(f) -> ArchConfig:
    """Read an architecture block: every size but the width must be the
    paper's, and the width must be finite and positive."""
    (n_conv,) = struct.unpack(_CONFIG_FMT_HEAD, _take(f, 4))
    if n_conv != len(ArchConfig.conv_table):
        raise ModelFormatError(
            f"invalid architecture block: {n_conv} conv layers, the network has "
            f"{len(ArchConfig.conv_table)}"
        )
    table = tuple(struct.unpack("<III", _take(f, 12)) for _ in range(n_conv))
    *sizes, mult = struct.unpack(_CONFIG_FMT_TAIL, _take(f, struct.calcsize(_CONFIG_FMT_TAIL)))
    names = ("conv_table", "d_model", "heads", "ffn_dim", "n_classes")
    for name, value in zip(names, (table, *sizes)):
        if value != getattr(ArchConfig, name):
            raise ModelFormatError(
                f"invalid architecture block: {name} {value}, the network has "
                f"{getattr(ArchConfig, name)}"
            )
    try:
        return ArchConfig(width_multiplier=float(mult))
    except ValueError as exc:
        raise ModelFormatError(f"invalid architecture block: {exc}") from None


def _take(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ModelFormatError(f"model file truncated: wanted {n} bytes, got {len(data)}")
    return data


def write_slpm(
    path: str | Path,
    config: ArchConfig,
    entries: list[tuple[str, np.ndarray, float | None]],
) -> None:
    """Write tensors to an SLPM file, in the order given.

    entries are (name, array, scale); scale is given for an int8 array and
    None for a float32 one.  The header's FLAG_QUANTIZED is set exactly when
    some entry is int8.
    """
    records = []
    for name, arr, scale in entries:
        if scale is None:
            raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            dtype_code, tail = DTYPE_F32, b""
        else:
            raw = np.ascontiguousarray(arr, dtype=np.int8).tobytes()
            dtype_code, tail = DTYPE_I8, struct.pack("<f", scale)
        encoded = name.encode("ascii")
        head = struct.pack(
            f"<B{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape
        )
        records.append((head, dtype_code, tail, raw))
    flags = FLAG_QUANTIZED if any(scale is not None for _, _, scale in entries) else 0
    header = MODEL_MAGIC + struct.pack("<HH", MODEL_VERSION, flags) + _pack_config(config)
    header += struct.pack("<I", len(records))
    # payloads follow the directory, so their offsets need its size first
    offset = len(header) + sum(len(head) + 17 + len(tail) for head, _, tail, _ in records)
    with open(path, "wb") as f:
        f.write(header)
        for head, dtype_code, tail, raw in records:
            f.write(head + struct.pack("<BQQ", dtype_code, offset, len(raw)) + tail)
            offset += len(raw)
        for *_, raw in records:
            f.write(raw)


def read_slpm(
    path: str | Path,
) -> tuple[ArchConfig, dict[str, tuple[np.ndarray, float | None]]]:
    """Read and check an SLPM file: (config, {name: (array, scale)}).

    The tensors come in canonical order (expected_shapes), whatever the file
    order; scale is None for a float32 tensor.  Every directory entry is
    checked against the architecture before any payload is read, and an
    unexpected, duplicated, missing or wrong-shaped tensor, or a
    FLAG_QUANTIZED bit that disagrees with the tensor dtypes, raises
    ModelFormatError; so does a non-finite float32 value, or an int8 scale
    that is not positive or would dequantize some value to infinity.
    """
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        if _take(f, 4) != MODEL_MAGIC:
            raise ModelFormatError("bad magic: not an SLPM model file")
        version, flags = struct.unpack("<HH", _take(f, 4))
        if version != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {version}")
        config = _unpack_config(f)
        shapes = expected_shapes(config)
        (count,) = struct.unpack("<I", _take(f, 4))
        directory = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<B", _take(f, 1))
            name = _take(f, name_len).decode("ascii", "replace")
            (rank,) = struct.unpack("<B", _take(f, 1))
            dims = struct.unpack(f"<{rank}I", _take(f, 4 * rank))
            dtype_code, offset, length = struct.unpack("<BQQ", _take(f, 17))
            scale = None
            if dtype_code == DTYPE_I8:
                (scale,) = struct.unpack("<f", _take(f, 4))
                if not (math.isfinite(scale) and scale > 0):
                    raise ModelFormatError(f"tensor {name}: int8 scale {scale} is not positive")
                if scale > INT8_SCALE_MAX:
                    raise ModelFormatError(
                        f"tensor {name}: int8 scale {scale} overflows float32 when dequantized"
                    )
            elif dtype_code != DTYPE_F32:
                raise ModelFormatError(f"unknown dtype code {dtype_code} for {name}")
            if name not in shapes:
                raise ModelFormatError(f"unexpected tensor {name!r}")
            if name in directory:
                raise ModelFormatError(f"duplicated tensor {name!r}")
            if dims != shapes[name]:
                raise ModelFormatError(f"tensor {name}: shape {dims} != expected {shapes[name]}")
            if offset + length > file_size:
                raise ModelFormatError(
                    f"model file truncated: tensor {name} claims bytes {offset}..{offset + length} "
                    f"of a {file_size}-byte file"
                )
            if length != math.prod(dims) * (4 if scale is None else 1):
                raise ModelFormatError(f"tensor {name}: {length} payload bytes for dims {dims}")
            directory[name] = (offset, length, scale)
        missing = [name for name in shapes if name not in directory]
        if missing:
            raise ModelFormatError(f"missing tensors: {missing}")
        quantized = any(scale is not None for _, _, scale in directory.values())
        if bool(flags & FLAG_QUANTIZED) != quantized:
            raise ModelFormatError(
                f"header flag says {'int8' if flags & FLAG_QUANTIZED else 'float32'}, "
                f"but {'some' if quantized else 'no'} tensor is int8"
            )
        tensors = {}
        for name, shape in shapes.items():
            offset, length, scale = directory[name]
            f.seek(offset)
            arr = np.frombuffer(_take(f, length), dtype="<f4" if scale is None else np.int8)
            if scale is None and not np.isfinite(arr).all():
                raise ModelFormatError(f"tensor {name} holds non-finite values")
            tensors[name] = (arr.reshape(shape).copy(), scale)
    return config, tensors


def save_model(params: ModelParams, config: ArchConfig, path: str | Path) -> None:
    """Serialize float32 weights; training-precision copies are down-cast."""
    write_slpm(path, config, [(name, arr, None) for name, arr in params.tensors.items()])


def load_model(path: str | Path) -> tuple[ModelParams, ArchConfig]:
    """Load a float32 model file (read_slpm checks it); an int8 one raises
    ModelFormatError."""
    config, tensors = read_slpm(path)
    if any(scale is not None for _, scale in tensors.values()):
        raise ModelFormatError("file holds a quantized model; load it via the quant module")
    return ModelParams({name: arr for name, (arr, _) in tensors.items()}), config
