"""Independent float64 reference of the edgesleep network, for output checks.

The program's outputs are checked against this, never against the program
itself, so a kernel that is fast but wrong cannot check itself.  It is
written from the network's description (four valid 1-D convolutions with
ReLU, one pre-norm transformer block, a dense softmax classifier over the
flattened [19, 128] features) with other algorithms than the program's:
convolutions as one matrix product per kernel tap, attention by einsum, and
a whole batch of epochs at once.  Weights come from the generator's own
``.npz`` files, not from the program's model reader.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

STRIDES = (6, 4, 3, 2)
HEADS = 4
LAYER_NORM_EPS = 1e-5
BATCH = 64  # epochs per reference pass; bounds the memory of the checks
# Reference probabilities closer than this to the top one make a window
# ambiguous: the program computes in float32 and may pick either class.
AMBIGUOUS = 1e-4

STORE_HEADER = np.dtype([("magic", "S4"), ("version", "<u2"), ("rate", "<u2"),
                         ("epoch_len", "<u4"), ("count", "<u4")])
STORE_EPOCH = np.dtype([("subject", "<u2"), ("night", "u1"), ("stage", "u1"),
                        ("index", "<u4"), ("samples", "<f4", 3000)])


def read_store(path: str | Path) -> np.ndarray:
    """An SLPE epoch store as a structured array (subject, night, stage,
    index, samples)."""
    raw = Path(path).read_bytes()
    head = np.frombuffer(raw, STORE_HEADER, count=1)[0]
    if head["magic"] != b"SLPE":
        raise ValueError(f"{path}: not an SLPE store")
    return np.frombuffer(raw, STORE_EPOCH, count=int(head["count"]), offset=STORE_HEADER.itemsize)


def standardize(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)


def _conv_relu(h: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Valid strided convolution of [N, L, Cin] by [K, Cin, Cout], as one
    product of gathered [N, Lout, K * Cin] windows with the flattened kernel."""
    taps, cin, cout = w.shape
    length = (h.shape[1] - taps) // stride + 1
    gather = stride * np.arange(length)[:, None] + np.arange(taps)
    windows = h[:, gather, :].reshape(len(h), length, taps * cin)
    return np.maximum(windows @ w.reshape(taps * cin, cout) + b, 0.0)


def _layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / np.sqrt((centred**2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS) * gain + shift


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention(x: np.ndarray, w: dict[str, np.ndarray]) -> np.ndarray:
    n, t, d = x.shape
    dh = d // HEADS
    q, k, v = ((x @ w[f"attn_w{s}"] + w[f"attn_b{s}"]).reshape(n, t, HEADS, dh) for s in "qkv")
    weights = _softmax(np.einsum("nthd,nshd->nhts", q, k) / np.sqrt(dh))
    context = np.einsum("nhts,nshd->nthd", weights, v).reshape(n, t, d)
    return context @ w["attn_wo"] + w["attn_bo"]


def _probabilities(w: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    h = x[:, :, None]
    for i, stride in enumerate(STRIDES, start=1):
        h = _conv_relu(h, w[f"conv{i}_w"], w[f"conv{i}_b"], stride)
    resid1 = h + _attention(_layer_norm(h, w["ln1_gain"], w["ln1_shift"]), w)
    hidden = np.maximum(_layer_norm(resid1, w["ln2_gain"], w["ln2_shift"]) @ w["ffn1_w"] + w["ffn1_b"], 0.0)
    resid2 = resid1 + hidden @ w["ffn2_w"] + w["ffn2_b"]
    return _softmax(resid2.reshape(len(x), -1) @ w["cls_w"] + w["cls_b"])


def probabilities(weights, samples: np.ndarray) -> np.ndarray:
    """[N, 5] stage probabilities of raw (unstandardized) [N, 3000] epochs."""
    w = {name: np.asarray(weights[name], dtype=np.float64) for name in weights}
    parts = [_probabilities(w, standardize(samples[i : i + BATCH])) for i in range(0, len(samples), BATCH)]
    return np.concatenate(parts) if parts else np.zeros((0, 5))


def load_weights(path: str | Path) -> dict[str, np.ndarray]:
    with np.load(path) as f:
        return {name: f[name] for name in f.files}


def acceptable(probs: np.ndarray) -> np.ndarray:
    """[N, 5] mask of the classes a correct program may predict."""
    return probs >= probs.max(axis=-1, keepdims=True) - AMBIGUOUS


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-np.mean(np.log(probs[np.arange(len(labels)), labels])))


def confusion_fits(confusion: np.ndarray, labels: np.ndarray, probs: np.ndarray) -> bool:
    """Whether a confusion matrix (rows actual, columns predicted) can come
    from predicting, for every epoch, one of its acceptable classes."""
    ok = acceptable(probs)
    sure = ok.sum(axis=1) == 1
    fixed = np.zeros((5, 5), dtype=np.int64)
    np.add.at(fixed, (labels[sure], probs[sure].argmax(axis=1)), 1)
    allowed = np.zeros((5, 5), dtype=bool)
    for label, row in zip(labels[~sure], ok[~sure]):
        allowed[label] |= row
    spare = np.asarray(confusion, dtype=np.int64) - fixed
    unsure_per_row = np.bincount(labels[~sure], minlength=5)
    return bool((spare >= 0).all() and (spare.sum(axis=1) == unsure_per_row).all()
                and not (spare[~allowed] > 0).any())
