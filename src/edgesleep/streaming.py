"""Real-time classification over a 100 Hz sample feed.

The feed arrives as raw sample bytes (little-endian float32 or int16 in
`edgesleep stream`, one read per stdin `read1`), in reads of any length: a
read may end mid-sample.  Each completed 3000-sample window is decoded once
(its bytes read as the feed's dtype, then `convert`), then standardized,
which casts it to float64, and classified by a float model exactly like a
stored epoch, so streaming decisions are bit-identical to batch inference
over the same samples.  Only an incomplete window is ever buffered: a
window's decision is emitted before the rest of the read that completed it
is copied.  Windows never overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .epochs import EPOCH_SAMPLES, STAGE_NAMES, DegenerateEpochError, SleepStage, standardize
from .model import ArchConfig, ModelParams, forward


class StreamGapError(ValueError):
    """Malformed feed: a trailing partial sample, or --int16 bounds that
    make no valid digital->physical map."""


@dataclass(frozen=True)
class StageDecision:
    """One classification per completed 30-second window.

    An unscorable (flat) window carries stage None and no probabilities
    rather than crashing the stream.
    """

    epoch_index: int
    stage: SleepStage | None
    probs: np.ndarray | None
    latency_s: float

    @property
    def unscorable(self) -> bool:
        return self.stage is None


def make_predictor(params: ModelParams, config: ArchConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap float parameters as a window -> probabilities callable."""
    return lambda x: forward(params, x, config, mode="infer")[0]


def _decide(
    window: np.ndarray, predict: Callable[[np.ndarray], np.ndarray], epoch_index: int
) -> StageDecision:
    started = time.perf_counter()
    try:
        probs = predict(standardize(window))
        stage = SleepStage(int(np.argmax(probs)))
    except DegenerateEpochError:
        probs, stage = None, None
    return StageDecision(
        epoch_index=epoch_index,
        stage=stage,
        probs=probs,
        latency_s=time.perf_counter() - started,
    )


def stream_classify(
    reads: Iterable[bytes],
    dtype: np.dtype,
    convert: Callable[[np.ndarray], np.ndarray],
    predict: Callable[[np.ndarray], np.ndarray],
    sink: Callable[[StageDecision], None],
) -> tuple[int, int]:
    """Consume a byte feed of `dtype` samples, emit one StageDecision per
    completed 3000-sample window.

    `reads` are bytes of any length, such as what each `read1` of a pipe
    returns; a read may end mid-sample.  Each window is decoded once: its
    bytes as a `dtype` array, then `convert`; `standardize` does the float64
    cast.  Decisions are emitted in window order, synchronously: a stalled
    sink stalls the source, so nothing is ever dropped or reordered.
    Returns (decisions emitted, samples left in the partial window); a feed
    that ends inside a sample raises StreamGapError after the decisions it
    completed.
    """
    window_bytes = EPOCH_SAMPLES * dtype.itemsize
    buffered = bytearray()  # never a whole window
    decided = 0
    for read in reads:
        rest = memoryview(read)
        while len(buffered) + len(rest) >= window_bytes:
            taken = window_bytes - len(buffered)
            raw = buffered + rest[:taken]
            buffered.clear()
            rest = rest[taken:]
            window = convert(np.frombuffer(raw, dtype=dtype))
            sink(_decide(window, predict, decided))
            decided += 1
        buffered += rest
    samples, partial = divmod(len(buffered), dtype.itemsize)
    if partial:
        raise StreamGapError(f"{partial} trailing bytes are not a whole sample")
    return decided, samples


def decision_line(decision: StageDecision) -> str:
    """Tab-separated wire format: index, stage name, five 6-decimal probs."""
    if decision.unscorable:
        fields = [str(decision.epoch_index), "unscorable"] + ["nan"] * 5
    else:
        fields = [str(decision.epoch_index), STAGE_NAMES[int(decision.stage)]]
        fields += [f"{p:.6f}" for p in decision.probs.tolist()]
    return "\t".join(fields)


def latency_line(latencies_s: list[float]) -> str:
    """key=value summary of decision latencies in milliseconds."""
    ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    if not ms.size:
        return "latency_ms count=0 p50=nan p99=nan max=nan"
    p50, p99 = np.percentile(ms, [50, 99])
    return f"latency_ms count={ms.size} p50={p50:.3f} p99={p99:.3f} max={ms.max():.3f}"
