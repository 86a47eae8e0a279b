"""Training: cross-entropy, full backprop, Adam, subject folds, and the
per-subject adaptation split.

Everything is deterministic given (seed, data): batches are drawn from a
seeded generator, gradients reduce in fixed order, and the optimizer
returns new parameters at the fixed ADAM_LEARNING_RATE while it updates
its moment estimates in place.
Subject-specific fine-tuning is `fit` itself, run from the loaded model on
the rows `split_adapt` carves off one subject, with no validation rows.
`evaluate_epochs` is the one scorer of a set of epochs: `fit`'s validation
takes its accuracy from the confusion counts it returns, and the CLI's
`eval` and `adapt` take their per-class scores from the same counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, metrics, model
# unused here, but benchmark/tests/test_tracer.py reads training.standardize
from .epochs import standardize
from .model import ArchConfig, ForwardCache, ModelParams, forward, init_params, predict

PROB_FLOOR = 1e-12

# Adam's step size, moment decay rates and floor (Kingma & Ba's defaults),
# and the share of train_fold's non-test epochs held out for validation.
ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
VALIDATION_FRACTION = 0.10


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")


@dataclass
class AdamState:
    """First/second moment estimates per tensor plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={n: np.zeros_like(a) for n, a in params.tensors.items()},
            v={n: np.zeros_like(a) for n, a in params.tensors.items()},
        )


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


def cross_entropy(probs: np.ndarray, labels: int | np.ndarray) -> np.ndarray:
    """Float64 negative log-likelihood of the true class of each row of
    [..., 5] probabilities, floored at 1e-12; labels has shape [...]."""
    true = np.take_along_axis(probs, np.asarray(labels)[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(true.astype(np.float64), PROB_FLOOR))


def backprop(
    params: ModelParams, config: ArchConfig, cache: ForwardCache, label: int | np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradient of cross_entropy(forward(x)) w.r.t. every tensor.

    For a batched forward, label holds one class per row and the result is
    the gradient of the summed cross-entropy.  Softmax and cross-entropy
    fuse to (probs - onehot) at the logits.
    """
    if cache is None:
        raise TrainingError("backprop needs the cache from a train-mode forward")
    probs = cache.probs
    dlogits = probs - np.eye(probs.shape[-1], dtype=probs.dtype)[label]

    grads: dict[str, np.ndarray] = {}
    dflat, grads["cls_w"], grads["cls_b"] = kernels.dense_backward(
        cache.flat, params["cls_w"], dlogits
    )
    dresid2 = dflat.reshape(cache.resid1.shape)

    # feed-forward sublayer: resid2 = resid1 + ffn(norm2(resid1))
    dhidden, grads["ffn2_w"], grads["ffn2_b"] = kernels.dense_backward(
        cache.ffn_hidden, params["ffn2_w"], dresid2
    )
    dpreact = kernels.relu_backward(cache.ffn_hidden, dhidden)
    dnormed2, grads["ffn1_w"], grads["ffn1_b"] = kernels.dense_backward(
        cache.normed2, params["ffn1_w"], dpreact
    )
    dresid1_ln, grads["ln2_gain"], grads["ln2_shift"] = kernels.layer_norm_backward(
        cache.resid1, params["ln2_gain"], dnormed2
    )
    dresid1 = dresid2 + dresid1_ln

    # attention sublayer: resid1 = features + attn(norm1(features))
    dnormed1, attn_grads = kernels.multi_head_attention_backward(
        cache.attn,
        params["attn_wq"], params["attn_wk"], params["attn_wv"], params["attn_wo"],
        dresid1,
    )
    for short, grad in attn_grads.items():
        grads[f"attn_{short}"] = grad
    dfeatures_ln, grads["ln1_gain"], grads["ln1_shift"] = kernels.layer_norm_backward(
        cache.acts[-1], params["ln1_gain"], dnormed1
    )
    dfeatures = dresid1 + dfeatures_ln

    g = dfeatures
    strides = [s for _, s, _ in config.scaled_conv_table]
    for i in range(len(strides), 0, -1):
        dz = kernels.relu_backward(cache.acts[i], g)
        # the network input needs no gradient, so conv1 skips dx
        g, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = kernels.conv1d_backward(
            cache.acts[i - 1], params[f"conv{i}_w"], strides[i - 1], dz, need_dx=i > 1
        )
    return grads


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of every tensor.

    The moments update in place in state, which comes back with its step
    count advanced; the tensors come back as new arrays, so the ModelParams
    passed in stays as it was.  A bias-corrected second moment that is not
    finite (a gradient whose square overflows) raises TrainingError naming
    the tensor, and leaves state part-updated.  A finite one bounds the
    step, so a finite tensor stays finite.
    """
    t = state.t + 1
    new_tensors: dict[str, np.ndarray] = {}
    with np.errstate(over="ignore"):
        for name, theta in params.tensors.items():
            g = grads[name]
            m, v = state.m[name], state.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            sq = (1 - ADAM_BETA2) * g
            sq *= g
            v *= ADAM_BETA2
            v += sq
            denom = v / (1 - ADAM_BETA2**t)
            if not np.isfinite(denom).all():
                raise TrainingError(f"Adam's second moment of {name} is not finite")
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            step = m / (1 - ADAM_BETA1**t)
            step *= ADAM_LEARNING_RATE
            step /= denom
            new_tensors[name] = theta - step
    state.t = t
    return ModelParams(new_tensors), state


def make_folds(subject_ids: list[int], k: int = 5, seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Shuffle subjects, then split into k contiguous chunks of ceil(n/k);
    returns the folds, each a tuple of subject ids.

    The ceil chunking puts the shortfall entirely in the last fold (77
    subjects at k=5 gives 16/16/16/16/13); when that would leave a fold
    empty, the split falls back to near-equal sizes.
    """
    n = len(subject_ids)
    if k > n:
        raise TrainingError(f"cannot make {k} folds from {n} subjects")
    rng = np.random.default_rng(seed)
    order = [subject_ids[i] for i in rng.permutation(n)]
    chunk = math.ceil(n / k)
    if (k - 1) * chunk >= n:
        parts = np.array_split(np.asarray(order), k)
        return tuple(tuple(int(s) for s in part) for part in parts)
    return tuple(tuple(order[i * chunk : (i + 1) * chunk]) for i in range(k))


def evaluate_epochs(
    params: ModelParams, config: ArchConfig, epochs: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray]:
    """(mean cross-entropy, 5x5 confusion counts of the argmax stage) of
    model.predict on the records epochs[rows]; nan and all-zero counts for
    no rows."""
    ys = epochs["stage"][rows]
    if not len(ys):
        return float("nan"), metrics.confusion([], [])
    probs = predict(params, config, epochs["samples"], rows)
    loss = sum(cross_entropy(probs, ys).tolist())
    return loss / len(ys), metrics.confusion(np.argmax(probs, axis=-1), ys)


def batch_gradients(
    params: ModelParams, config: ArchConfig, epochs: np.ndarray, rows: np.ndarray
) -> tuple[dict[str, np.ndarray], float]:
    """Mean gradient and mean loss over the mini-batch of records
    epochs[rows].

    Rows run through one batched forward and backprop per chunk that
    model.chunks yields from epochs["samples"]; the chunk gradients add up
    in place in chunk order and are scaled once.
    """
    total: dict[str, np.ndarray] | None = None
    loss = 0.0
    for part, x in model.chunks(epochs["samples"], rows, params["conv1_w"].dtype):
        ys = epochs["stage"][rows[part]]
        probs, cache = forward(params, x, config, mode="train")
        loss += sum(cross_entropy(probs, ys).tolist())
        grads = backprop(params, config, cache, ys)
        if total is None:
            total = grads
        else:
            for name in total:
                total[name] += grads[name]
    scale = 1.0 / len(rows)
    for name in total:
        total[name] *= scale
    return total, loss * scale


def fit(
    params: ModelParams,
    config: ArchConfig,
    epochs: np.ndarray,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    tc: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Mini-batch Adam over the records epochs[train_rows], validated on
    epochs[val_rows].

    Batches reshuffle every epoch from a generator seeded by tc.seed; the
    final incomplete batch is used, not dropped.  Epochs stay raw and in
    place; each chunk of a batch comes from model.chunks where it is
    used.  Returns the parameters of the best-validation-accuracy
    epoch (the last epoch when there is no validation set) plus the
    per-epoch history.
    """
    train_rows = np.asarray(train_rows, dtype=np.int64)
    if not len(train_rows):
        raise TrainingError("empty training set")
    rng = np.random.default_rng(tc.seed)
    state = AdamState.zeros_like(params)
    history: list[EpochStats] = []
    best_params = params
    best_acc = -1.0
    for epoch in range(tc.max_epochs):
        order = rng.permutation(len(train_rows))
        running = 0.0
        for start in range(0, len(order), tc.batch_size):
            batch = train_rows[order[start : start + tc.batch_size]]
            grads, batch_loss = batch_gradients(params, config, epochs, batch)
            running += batch_loss * len(batch)
            params, state = adam_step(params, grads, state)
        val_loss, counts = evaluate_epochs(params, config, epochs, val_rows)
        val_acc = int(np.trace(counts)) / len(val_rows) if len(val_rows) else float("nan")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=running / len(train_rows),
                val_loss=val_loss,
                val_acc=val_acc,
            )
        )
        if not len(val_rows) or val_acc > best_acc:
            best_acc = val_acc
            best_params = params
    return best_params, history


def split_train_val(pool: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded-shuffle split of the row indices pool into (train rows, val
    rows); validation takes round(VALIDATION_FRACTION * n)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    n_val = round(VALIDATION_FRACTION * len(pool))
    return pool[order[n_val:]], pool[order[:n_val]]


def split_adapt(
    epochs: np.ndarray,
    rows: np.ndarray,
    fraction: float = 0.10,
    stratified: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition one subject's records epochs[rows] into (adapt_rows,
    holdout_rows).

    Uniform mode samples round(fraction * n) rows; stratified mode samples
    round(fraction * n_c) from each class present, visiting the classes in
    order of first appearance.  Ties round half-to-even.  The two parts are
    disjoint and exhaustive subsets of rows, each in the order given; a
    selection that leaves either part empty raises TrainingError.
    """
    if not 0 < fraction < 1:
        raise TrainingError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(rows)
    if not n:
        raise TrainingError("no epochs to split")
    rng = np.random.default_rng(seed)
    picked = np.zeros(n, dtype=bool)
    if stratified:
        stages = epochs["stage"][rows]
        for stage in dict.fromkeys(stages.tolist()):  # in order of first appearance
            indices = np.flatnonzero(stages == stage)
            take = round(fraction * len(indices))
            picked[indices[rng.permutation(len(indices))[:take]]] = True
    else:
        picked[rng.permutation(n)[: round(fraction * n)]] = True
    if not picked.any():
        raise TrainingError(f"fraction {fraction} selects no adaptation epochs from {n}")
    if picked.all():
        raise TrainingError(f"fraction {fraction} leaves no holdout epochs from {n}")
    return rows[picked], rows[~picked]


def train_fold(
    epochs: np.ndarray,
    test_subjects: set[int],
    arch: ArchConfig,
    tc: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Train on every record outside the held-out subjects.

    Non-test rows split 90/10 into train/validation by a seeded shuffle; no
    epoch of a test subject is seen in either part.  Only row indices are
    split; fit gathers each batch from epochs.  Training runs in float32,
    the dtype a saved model holds: the seeded initial weights are cast
    once, and fit keeps the dtype of the parameters it is given.
    """
    pool = np.flatnonzero(~np.isin(epochs["subject_id"], list(test_subjects)))
    if not len(pool):
        raise TrainingError("no training epochs outside the test subjects")
    train, val = split_train_val(pool, tc.seed)
    params = init_params(arch, tc.seed).astype(np.float32)
    return fit(params, arch, epochs, train, val, tc)


def history_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_loss,val_acc"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss:.6f},{h.val_loss:.6f},{h.val_acc:.6f}")
    return "\n".join(lines) + "\n"
