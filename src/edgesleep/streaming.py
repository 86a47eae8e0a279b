"""Real-time classification over a 100 Hz sample feed.

The feed arrives as frames, each a block of consecutive samples numbered
by the counter of its first sample (a scalar frame is a block of one).
Blocks are sliced into a 3000-slot window; every completed window is
standardized and classified exactly like a stored epoch, so streaming
decisions are bit-identical to batch inference over the same samples.
A decision is emitted as soon as its window's last sample arrives, before
the rest of that sample's block is copied.  Windows never overlap and the
buffer resets after each decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .epochs import EPOCH_SAMPLES, DegenerateEpochError, SleepStage, standardize
from .model import ArchConfig, ModelParams, forward
from .quant import QuantModel


class StreamGapError(ValueError):
    """Sample counter discontinuity: the feed dropped or reordered samples."""


@dataclass(frozen=True)
class StreamFrame:
    """A run of consecutive samples: `counter` numbers the first one, and
    `value` is one sample or a 1-D array of them."""

    counter: int
    value: float | np.ndarray


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


def frames_from_blocks(
    blocks: Iterable[np.ndarray], start: int = 0
) -> Iterator[StreamFrame]:
    """Number consecutive sample blocks into frames, starting at `start`."""
    counter = start
    for block in blocks:
        yield StreamFrame(counter=counter, value=block)
        counter += len(block)


def frames_from_values(values: Iterable[float], start: int = 0) -> Iterator[StreamFrame]:
    """Frame a finite sequence of samples as one block starting at `start`."""
    return frames_from_blocks([np.fromiter(values, dtype=np.float64)], start)


def make_predictor(
    model_obj: ModelParams | QuantModel, config: ArchConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a float or quantized model as a window -> probabilities callable."""
    if isinstance(model_obj, QuantModel):
        dequantized = model_obj.dequantize()  # dequantize once, reuse per window
        return lambda x: forward(dequantized, x, config, mode="infer")[0]
    return lambda x: forward(model_obj, x, config, mode="infer")[0]


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
    source: Iterable[StreamFrame],
    predict: Callable[[np.ndarray], np.ndarray],
    sink: Callable[[StageDecision], None],
    start_counter: int = 0,
) -> tuple[int, int]:
    """Consume frames, emit one StageDecision per completed 3000-sample window.

    Decisions are emitted in window order, synchronously: a stalled sink
    stalls the source, so nothing is ever dropped or reordered.  Returns
    (decisions emitted, samples left in the partial window).
    """
    window = np.empty(EPOCH_SAMPLES, dtype=np.float64)
    filled = 0
    expected = start_counter
    epoch_index = 0
    for frame in source:
        block = np.atleast_1d(frame.value)
        if frame.counter != expected:
            raise StreamGapError(
                f"sample counter jumped from {expected} to {frame.counter}"
            )
        expected += len(block)
        taken = 0
        while taken < len(block):
            n = min(EPOCH_SAMPLES - filled, len(block) - taken)
            window[filled : filled + n] = block[taken : taken + n]
            filled += n
            taken += n
            if filled == EPOCH_SAMPLES:
                sink(_decide(window, predict, epoch_index))
                epoch_index += 1
                filled = 0
    return epoch_index, filled


def decision_line(decision: StageDecision) -> str:
    """Tab-separated wire format: index, stage name, five 6-decimal probs."""
    from .epochs import STAGE_NAMES

    if decision.unscorable:
        fields = [str(decision.epoch_index), "unscorable"] + ["nan"] * 5
    else:
        fields = [str(decision.epoch_index), STAGE_NAMES[int(decision.stage)]]
        fields += [f"{p:.6f}" for p in decision.probs]
    return "\t".join(fields)


def latency_line(latencies_s: list[float]) -> str:
    """key=value summary of decision latencies in milliseconds."""
    ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    if not ms.size:
        return "latency_ms count=0 p50=nan p99=nan max=nan"
    p50, p99 = np.percentile(ms, [50, 99])
    return f"latency_ms count={ms.size} p50={p50:.3f} p99={p99:.3f} max={ms.max():.3f}"
