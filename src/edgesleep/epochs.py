"""30-second epoch construction, label mapping, standardization, and storage.

The preprocessing rules applied here: unknown/movement segments are dropped,
legacy stage 4 is merged into N3, and leading/trailing wake beyond 30 minutes
around the sleep period is trimmed.  Epochs are stored raw (physical units);
every consumer standardizes per epoch at the point of use, which keeps batch
and streaming classification on the identical code path.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from .edf import EdfFile, RawAnnotation

SAMPLE_RATE = 100
EPOCH_SECONDS = 30
EPOCH_SAMPLES = SAMPLE_RATE * EPOCH_SECONDS  # 3000

# Wake retained on each side of the sleep period: 30 minutes = 60 epochs.
WAKE_TRIM_EPOCHS = 60

STORE_MAGIC = b"SLPE"
STORE_VERSION = 1


class PipelineError(ValueError):
    """Annotation or signal content that violates the epoching rules."""


class DegenerateEpochError(PipelineError):
    """Flat (zero-variance) epoch cannot be standardized."""


class StoreError(ValueError):
    """Corrupt or incompatible epoch store file."""


class SleepStage(IntEnum):
    WAKE = 0
    N1 = 1
    N2 = 2
    N3 = 3
    REM = 4


STAGE_NAMES = ("Wake", "N1", "N2", "N3", "REM")


class Discard:
    """Marker for segments excluded from the dataset."""

    def __repr__(self) -> str:  # pragma: no cover
        return "DISCARD"


DISCARD = Discard()

_LABEL_MAP: dict[str, SleepStage | Discard] = {
    "Sleep stage W": SleepStage.WAKE,
    "Sleep stage 1": SleepStage.N1,
    "Sleep stage 2": SleepStage.N2,
    "Sleep stage 3": SleepStage.N3,
    "Sleep stage 4": SleepStage.N3,  # legacy stage 4 folds into N3
    "Sleep stage R": SleepStage.REM,
    "Movement time": DISCARD,
    "Sleep stage ?": DISCARD,
}


@dataclass(frozen=True)
class LabeledEpoch:
    """One 30-second, 3000-sample EEG segment with its stage label."""

    samples: np.ndarray
    stage: SleepStage
    subject_id: int
    night: int
    epoch_index: int

    def __post_init__(self):
        if self.samples.shape != (EPOCH_SAMPLES,):
            raise PipelineError(
                f"epoch must hold {EPOCH_SAMPLES} samples, got {self.samples.shape}"
            )
        if not np.isfinite(self.samples).all():
            raise PipelineError("epoch contains non-finite samples")


@dataclass(frozen=True)
class SubjectNight:
    """Ordered epochs of one recording night."""

    subject_id: int
    night: int
    epochs: tuple[LabeledEpoch, ...]


def map_label(text: str) -> SleepStage | Discard:
    """Map a raw annotation string onto a stage, or DISCARD for excluded ones."""
    try:
        return _LABEL_MAP[text]
    except KeyError:
        raise PipelineError(f"unrecognized stage label: {text!r}") from None


def check_sample_rate(psg: EdfFile, label: str) -> None:
    """Reject a channel that is not sampled at SAMPLE_RATE.

    Epochs are cut every EPOCH_SAMPLES samples, so a channel at any other
    rate would give epochs of the wrong duration under the hypnogram's
    30 s labels.
    """
    spr = psg.header.signals[psg.signal_index(label)].samples_per_record
    duration = psg.header.record_duration
    rate = spr / duration if duration > 0 else 0.0
    if not math.isclose(rate, SAMPLE_RATE):
        raise PipelineError(
            f"channel {label!r} is sampled at {rate:g} Hz; epochs need {SAMPLE_RATE} Hz"
        )


def segment_epochs(
    samples: np.ndarray,
    annotations: list[RawAnnotation],
    subject_id: int = 0,
    night: int = 0,
) -> SubjectNight:
    """Cut an annotated 100 Hz signal into labeled 30-second epochs.

    Each annotation must start and end on the 30-second grid and lie within
    the signal; a stage annotation of duration D yields D/30 consecutive
    epochs.  Windows whose label maps to DISCARD produce no epoch, leaving a
    gap in epoch_index.
    """
    signal_seconds = len(samples) / SAMPLE_RATE
    by_window: dict[int, SleepStage] = {}
    for ann in annotations:
        if ann.onset < 0 or ann.onset % EPOCH_SECONDS != 0:
            raise PipelineError(
                f"annotation onset {ann.onset} not on the {EPOCH_SECONDS}s grid"
            )
        if ann.duration % EPOCH_SECONDS != 0:
            raise PipelineError(
                f"annotation duration {ann.duration} not a multiple of {EPOCH_SECONDS}s"
            )
        if ann.onset + ann.duration > signal_seconds:
            raise PipelineError(
                f"annotation [{ann.onset}, {ann.onset + ann.duration}) "
                f"extends past signal end at {signal_seconds}s"
            )
        stage = map_label(ann.text)
        first = int(ann.onset) // EPOCH_SECONDS
        count = int(ann.duration) // EPOCH_SECONDS
        for w in range(first, first + count):
            if w in by_window:
                raise PipelineError(f"window {w} covered by more than one annotation")
            if stage is not DISCARD:
                by_window[w] = stage

    epochs = []
    for w in sorted(by_window):
        # copy so an epoch never aliases (or pins) the whole night's signal
        seg = np.array(samples[w * EPOCH_SAMPLES : (w + 1) * EPOCH_SAMPLES])
        epochs.append(
            LabeledEpoch(
                samples=seg,
                stage=by_window[w],
                subject_id=subject_id,
                night=night,
                epoch_index=w,
            )
        )
    return SubjectNight(subject_id=subject_id, night=night, epochs=tuple(epochs))


def trim_wake(night: SubjectNight) -> SubjectNight:
    """Drop wake epochs beyond 30 minutes before/after the sleep period.

    Everything between the first and last non-wake epoch is kept.  A night of
    pure wake keeps its first 30 minutes.
    """
    epochs = night.epochs
    if not epochs:
        raise PipelineError("cannot trim an empty night")
    non_wake = [i for i, e in enumerate(epochs) if e.stage != SleepStage.WAKE]
    if not non_wake:
        kept = epochs[:WAKE_TRIM_EPOCHS]
    else:
        a, b = non_wake[0], non_wake[-1]
        kept = epochs[max(0, a - WAKE_TRIM_EPOCHS) : b + 1 + WAKE_TRIM_EPOCHS]
    return replace(night, epochs=tuple(kept))


def standardize(samples: np.ndarray) -> np.ndarray:
    """Scale a sample vector to zero mean, unit (population) standard deviation.

    samples is one vector [L] or a stack [..., L]; each row along the last
    axis is scaled on its own, bit for bit as if it were passed alone.
    """
    x = np.asarray(samples, dtype=np.float64)
    # a constant row's mean can be off by a rounding step, leaving std > 0
    if (x.max(axis=-1) == x.min(axis=-1)).any():
        raise DegenerateEpochError("flat epoch has zero variance")
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))  # np.std's arithmetic
    if (std == 0.0).any():
        raise DegenerateEpochError("flat epoch has zero variance")
    centered /= std
    return centered


@dataclass(frozen=True)
class ClassDistribution:
    counts: tuple[int, ...]  # per stage, index = SleepStage value
    total: int

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


def class_distribution(epochs: list[LabeledEpoch]) -> ClassDistribution:
    if not epochs:
        raise PipelineError("empty store has no class distribution")
    counts = [0] * len(SleepStage)
    for e in epochs:
        counts[int(e.stage)] += 1
    return ClassDistribution(counts=tuple(counts), total=len(epochs))


def parse_hypnogram_text(text: str) -> list[RawAnnotation]:
    """Parse the plain-text sidecar format: one "onset,duration,label" per line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise PipelineError(f"hypnogram line {lineno}: expected onset,duration,label")
        try:
            onset, duration = float(parts[0]), float(parts[1])
        except ValueError:
            raise PipelineError(f"hypnogram line {lineno}: bad onset/duration") from None
        if not np.isfinite(onset + duration) or duration < 0:
            raise PipelineError(f"hypnogram line {lineno}: bad onset/duration")
        out.append(RawAnnotation(onset=onset, duration=duration, text=parts[2].strip()))
    return out


_HEADER_FMT = "<4sHHII"  # magic, version, sample_rate, epoch_len, epoch_count
_EPOCH_META_FMT = "<HBBI"  # subject_id, night, stage, epoch_index


def write_store(epochs: list[LabeledEpoch], path: str | Path) -> None:
    """Write epochs to the binary store (little-endian, float32 samples)."""
    with open(path, "wb") as f:
        f.write(
            struct.pack(
                _HEADER_FMT, STORE_MAGIC, STORE_VERSION, SAMPLE_RATE, EPOCH_SAMPLES, len(epochs)
            )
        )
        for e in epochs:
            try:
                meta = struct.pack(
                    _EPOCH_META_FMT, e.subject_id, e.night, int(e.stage), e.epoch_index
                )
            except struct.error as exc:
                raise StoreError(f"epoch metadata out of range: {exc}") from None
            f.write(meta)
            f.write(np.ascontiguousarray(e.samples, dtype="<f4").tobytes())


def read_store(path: str | Path) -> list[LabeledEpoch]:
    """Read a store written by write_store; validates magic/version/size."""
    meta_size = struct.calcsize(_EPOCH_META_FMT)
    sample_bytes = EPOCH_SAMPLES * 4
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(struct.calcsize(_HEADER_FMT))
        if len(head) < struct.calcsize(_HEADER_FMT):
            raise StoreError("truncated store header")
        magic, version, rate, epoch_len, count = struct.unpack(_HEADER_FMT, head)
        if magic != STORE_MAGIC:
            raise StoreError(f"bad magic {magic!r}")
        if version != STORE_VERSION:
            raise StoreError(f"unsupported store version {version}")
        if rate != SAMPLE_RATE or epoch_len != EPOCH_SAMPLES:
            raise StoreError(f"unexpected geometry: rate={rate}, epoch_len={epoch_len}")
        declared = len(head) + count * (meta_size + sample_bytes)
        if declared > file_size:
            raise StoreError(
                f"store truncated: header declares {count} epochs ({declared} bytes), "
                f"file holds {file_size} bytes"
            )
        epochs = []
        for _ in range(count):
            meta = f.read(meta_size)
            payload = f.read(sample_bytes)
            if len(meta) < meta_size or len(payload) < sample_bytes:
                raise StoreError("store truncated mid-epoch")
            subject_id, night, stage, epoch_index = struct.unpack(_EPOCH_META_FMT, meta)
            if stage >= len(SleepStage):
                raise StoreError(f"invalid stage byte {stage}")
            epochs.append(
                LabeledEpoch(
                    samples=np.frombuffer(payload, dtype="<f4").copy(),
                    stage=SleepStage(stage),
                    subject_id=subject_id,
                    night=night,
                    epoch_index=epoch_index,
                )
            )
        if f.read(1):
            raise StoreError("trailing bytes after declared epochs")
    return epochs
