"""Independent brute-force references the implementation is checked against.

Everything here is written the dumbest correct way, sharing no code with
the package: plain loops, dict scans, and direct formula transcription.
"""

import struct

import numpy as np

RAW_LABELS = (
    "Sleep stage W",
    "Sleep stage 1",
    "Sleep stage 2",
    "Sleep stage 3",
    "Sleep stage 4",
    "Sleep stage R",
    "Movement time",
    "Sleep stage ?",
)

_STAGE_OF = {
    "Sleep stage W": 0,
    "Sleep stage 1": 1,
    "Sleep stage 2": 2,
    "Sleep stage 3": 3,
    "Sleep stage 4": 3,
    "Sleep stage R": 4,
}


def reference_pipeline(annotations):
    """(window_index, stage) pairs after mapping, discarding, and wake trim.

    annotations: iterable of (onset_sec, duration_sec, label) tying windows
    of 30 s at 100 Hz.  Mirrors: drop movement/unknown, fold stage 4 into
    N3, keep at most 60 wake epochs before the first and after the last
    non-wake epoch (first 60 if the night is all wake).
    """
    labeled = []
    for onset, duration, label in annotations:
        for w in range(int(onset) // 30, int(onset + duration) // 30):
            if label in _STAGE_OF:
                labeled.append((w, _STAGE_OF[label]))
    labeled.sort()

    non_wake_positions = [i for i, (_, s) in enumerate(labeled) if s != 0]
    if not non_wake_positions:
        return labeled[:60]
    first, last = non_wake_positions[0], non_wake_positions[-1]
    keep = []
    for i, item in enumerate(labeled):
        if first <= i <= last:
            keep.append(item)
        elif i < first and first - i <= 60:
            keep.append(item)
        elif i > last and i - last <= 60:
            keep.append(item)
    return keep


def store_reference(annotations, digital, scaling, subject, night):
    """The SLPE v1 bytes `convert` should write for one night, built from
    the whole channel: every digital sample mapped to physical units, then
    the windows reference_pipeline keeps packed record by record.

    scaling: (dig_min, dig_max, phys_min, phys_max) of the channel.
    """
    dig_min, dig_max, phys_min, phys_max = scaling
    gain = (phys_max - phys_min) / (dig_max - dig_min)
    physical = (np.asarray(digital).astype(np.float64) - dig_min) * gain + phys_min
    kept = reference_pipeline(annotations)
    out = struct.pack("<4sHHII", b"SLPE", 1, 100, 3000, len(kept))
    for window, stage in kept:
        samples = physical[window * 3000 : (window + 1) * 3000]
        out += struct.pack("<HBBI", subject, night, stage, window) + samples.astype("<f4").tobytes()
    return out


def edf_channel_reference(raw: bytes, label: str):
    """(digital samples, (dig_min, dig_max, phys_min, phys_max)) of the
    signal whose 16-byte label field is `label` padded with spaces, decoded
    straight from an EDF file's bytes by the layout of the EDF spec: a
    256-byte fixed header, then each per-signal field for all signals in
    turn, then records holding each signal's samples in signal order.
    Raises ValueError when the header does not decode or names no such
    signal."""
    ns = int(raw[252:256].decode("ascii"))
    n_records = int(raw[236:244].decode("ascii"))

    def field(start, width, i):
        at = 256 + start * ns + width * i
        return raw[at : at + width]

    labels = [field(0, 16, i) for i in range(ns)]
    i = labels.index(label.encode("ascii").ljust(16))
    scaling = (
        int(field(120, 8, i).decode("ascii")),
        int(field(128, 8, i).decode("ascii")),
        float(field(104, 8, i).decode("ascii")),
        float(field(112, 8, i).decode("ascii")),
    )
    spr = [int(field(216, 8, k).decode("ascii")) for k in range(ns)]
    data_start = 256 * (ns + 1)
    record_bytes = 2 * sum(spr)
    skip = 2 * sum(spr[:i])
    digital = []
    for r in range(n_records):
        at = data_start + r * record_bytes + skip
        digital.extend(struct.unpack(f"<{spr[i]}h", raw[at : at + 2 * spr[i]]))
    return np.array(digital, dtype=np.int16), scaling


def random_annotation_sequence(rng, max_annotations=12):
    """A contiguous 30 s-gridded annotation tiling starting at onset 0."""
    onset = 0
    annotations = []
    for _ in range(rng.integers(1, max_annotations + 1)):
        duration = 30 * int(rng.integers(1, 8))
        label = RAW_LABELS[rng.integers(0, len(RAW_LABELS))]
        annotations.append((float(onset), float(duration), label))
        onset += duration
    return annotations, onset  # (sequence, total seconds)


def conv1d_reference(x, w, b, stride):
    """Triple-loop valid convolution."""
    L, cin = x.shape
    K, _, cout = w.shape
    lout = (L - K) // stride + 1
    out = np.zeros((lout, cout), dtype=x.dtype)
    for t in range(lout):
        for co in range(cout):
            acc = b[co]
            for k in range(K):
                for ci in range(cin):
                    acc += x[t * stride + k, ci] * w[k, ci, co]
            out[t, co] = acc
    return out


def conv1d_input_gradient_reference(x, w, stride, grad_out):
    """Input gradient of a valid strided convolution as a per-tap scatter:
    zeros, then for each tap k in turn the rows k, k + stride, ... take
    grad_out @ w[k].T, one strided add per tap."""
    K, cin, _ = w.shape
    g = grad_out.reshape(-1, grad_out.shape[-1])
    dx = np.zeros_like(x)
    span = stride * (grad_out.shape[-2] - 1) + 1
    for k in range(K):
        dx[..., k : k + span : stride, :] += (g @ w[k].T).reshape(*grad_out.shape[:-1], cin)
    return dx


def layer_norm_backward_reference(x, gain, grad_out, eps):
    """(dx, dgain, dshift) of layer normalization over the last axis, by
    the textbook formula with numpy's own mean and var."""
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
    dxhat = grad_out * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    rows = lambda a: a.reshape(-1, a.shape[-1])
    return dx, rows(grad_out * xhat).sum(axis=0), rows(grad_out).sum(axis=0)


def confusion_reference(predictions, labels, n_classes=5):
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, a in zip(predictions, labels):
        cm[a][p] += 1
    return cm


def metrics_reference(cm):
    """Per-class (precision, recall, f1) plus accuracy, by direct recount."""
    n = cm.shape[0]
    rows = []
    for c in range(n):
        tp = fp = fn = 0
        for i in range(n):
            for j in range(n):
                if i == c and j == c:
                    tp += cm[i][j]
                elif j == c:
                    fp += cm[i][j]
                elif i == c:
                    fn += cm[i][j]
        pr = tp / (tp + fp) if tp + fp else 0.0
        re = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * tp / (2 * tp + fn + fp) if 2 * tp + fn + fp else 0.0
        rows.append((pr, re, f1))
    accuracy = sum(cm[i][i] for i in range(n)) / cm.sum()
    return rows, accuracy


def tal_text_field_count(buffer: bytes) -> int:
    """Non-empty 0x14-delimited text fields across all TALs in a buffer."""
    count = 0
    for tal in buffer.split(b"\x00"):
        if not tal:
            continue
        fields = tal.split(b"\x14")[1:]  # everything after onset[/duration]
        count += sum(1 for f in fields if f.strip())
    return count


def numeric_gradient(f, x, h=1e-4):
    """Central finite differences of a scalar function over an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return grad


def relative_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)
