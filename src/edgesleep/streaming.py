"""Real-time classification over a 100 Hz sample feed.

The feed arrives as 1-D blocks of consecutive samples, of any length (one
per stdin read in `edgesleep stream`), sliced into a 3000-slot window;
every completed window is standardized and classified by a float model
exactly like a stored epoch, so streaming decisions are bit-identical to
batch inference over the same samples.  A decision is emitted as soon as
its window's last sample arrives, before the rest of that sample's block
is copied.  Windows never overlap and the buffer resets after each
decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .epochs import EPOCH_SAMPLES, STAGE_NAMES, DegenerateEpochError, SleepStage, standardize
from .model import ArchConfig, ModelParams, forward


class StreamGapError(ValueError):
    """Malformed feed: a trailing partial sample, or missing or inconsistent
    --int16 scaling flags."""


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
    blocks: Iterable[np.ndarray],
    predict: Callable[[np.ndarray], np.ndarray],
    sink: Callable[[StageDecision], None],
) -> tuple[int, int]:
    """Consume 1-D sample blocks, emit one StageDecision per completed
    3000-sample window.

    Decisions are emitted in window order, synchronously: a stalled sink
    stalls the source, so nothing is ever dropped or reordered.  Returns
    (decisions emitted, samples left in the partial window).
    """
    window = np.empty(EPOCH_SAMPLES, dtype=np.float64)
    filled = 0
    epoch_index = 0
    for block in blocks:
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
