"""30-second epoch construction, label mapping, standardization, and storage.

The preprocessing rules applied here: unknown/movement segments are dropped,
legacy stage 4 is merged into N3, and leading/trailing wake beyond 30 minutes
around the sleep period is trimmed.  The rules run on the hypnogram alone,
before any sample is read: label_windows gives each window of the signal its
stage, kept_windows applies the discard and wake-trim rules, and
night_records cuts only the kept windows out of the samples read for them.
Epochs are stored raw (physical units); every consumer standardizes per
epoch at the point of use, which keeps batch and streaming classification on
the identical code path.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
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
    """Flat (zero-variance) or non-finite epoch cannot be standardized."""


class StoreError(ValueError):
    """Corrupt or incompatible epoch store file."""


class SleepStage(IntEnum):
    WAKE = 0
    N1 = 1
    N2 = 2
    N3 = 3
    REM = 4


STAGE_NAMES = ("Wake", "N1", "N2", "N3", "REM")


# None marks the labels whose windows are excluded from the dataset.
_LABEL_MAP: dict[str, SleepStage | None] = {
    "Sleep stage W": SleepStage.WAKE,
    "Sleep stage 1": SleepStage.N1,
    "Sleep stage 2": SleepStage.N2,
    "Sleep stage 3": SleepStage.N3,
    "Sleep stage 4": SleepStage.N3,  # legacy stage 4 folds into N3
    "Sleep stage R": SleepStage.REM,
    "Movement time": None,
    "Sleep stage ?": None,
}


# One SLPE v1 record: the store's on-disk layout and the in-memory form of a
# set of epochs.  Sets are arrays of these records (np.recarray, so a record
# reads as e.samples / e.stage), selected by row index.
STORE_RECORD = np.dtype(
    [
        ("subject_id", "<u2"),
        ("night", "u1"),
        ("stage", "u1"),
        ("epoch_index", "<u4"),
        ("samples", "<f4", (EPOCH_SAMPLES,)),
    ]
)


def map_label(text: str) -> SleepStage | None:
    """Map a raw annotation string onto a stage, or None for excluded ones."""
    try:
        return _LABEL_MAP[text]
    except KeyError:
        raise PipelineError(f"unrecognized stage label: {text!r}") from None


def window_count(psg: EdfFile, label: str) -> int:
    """The whole 30-second windows of channel `label`, from its header.

    Epochs are cut every EPOCH_SAMPLES samples, so a channel at any rate
    but SAMPLE_RATE would give epochs of the wrong duration under the
    hypnogram's 30 s labels (PipelineError).
    """
    spr = psg.header.signals[psg.signal_index(label)].samples_per_record
    duration = psg.header.record_duration
    rate = spr / duration if duration > 0 else 0.0
    if not math.isclose(rate, SAMPLE_RATE):
        raise PipelineError(
            f"channel {label!r} is sampled at {rate:g} Hz; epochs need {SAMPLE_RATE} Hz"
        )
    return psg.header.n_records * spr // EPOCH_SAMPLES


def check_same_start(psg: EdfFile, hypnogram: EdfFile) -> None:
    """Reject a hypnogram whose start date or time differs from the
    recording's: its onsets would label another stretch of the signal."""
    ours, theirs = psg.header, hypnogram.header
    if (ours.start_date, ours.start_time) != (theirs.start_date, theirs.start_time):
        raise PipelineError(
            f"hypnogram starts {theirs.start_date} {theirs.start_time}, "
            f"the recording {ours.start_date} {ours.start_time}"
        )


def _check_range(name: str, value: int, dtype: np.dtype) -> None:
    """Reject a value that the store field `name` of type dtype cannot hold;
    numpy would wrap it silently."""
    info = np.iinfo(dtype)
    if not info.min <= value <= info.max:
        raise StoreError(f"{name} {value} out of range for the store ({info.min}..{info.max})")


def _all_finite(x: np.ndarray) -> bool:
    """No NaN or infinity in x; its min and max carry any such value, so no
    mask the size of x is built."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def label_windows(annotations: list[RawAnnotation], n_windows: int) -> np.ndarray:
    """The stage of each of a signal's n_windows 30-second windows, as int8:
    a SleepStage value, -1 where no annotation falls, -2 where the label
    is excluded (map_label gives None).

    Each annotation must start and end on the 30-second grid and start
    before the end of the last window; a stage annotation of duration D
    labels D/30 consecutive windows.  One that runs past that end is cut
    there, whatever its label: the archive's hypnograms often overrun the
    recording.  No window may be covered twice, whatever the labels or
    their order.
    """
    stages = np.full(n_windows, -1, dtype=np.int8)
    grid_end = n_windows * EPOCH_SECONDS
    for ann in annotations:
        if ann.onset < 0 or ann.onset % EPOCH_SECONDS != 0:
            raise PipelineError(
                f"annotation onset {ann.onset} not on the {EPOCH_SECONDS}s grid"
            )
        if ann.duration % EPOCH_SECONDS != 0:
            raise PipelineError(
                f"annotation duration {ann.duration} not a multiple of {EPOCH_SECONDS}s"
            )
        if ann.onset >= grid_end and ann.onset + ann.duration > grid_end:
            raise PipelineError(
                f"annotation [{ann.onset}, {ann.onset + ann.duration}) starts past "
                f"the signal's last whole window, which ends at {grid_end}s"
            )
        stage = map_label(ann.text)
        first = int(ann.onset) // EPOCH_SECONDS
        # the slice ends at the last whole window, which cuts an overrun
        span = stages[first : first + int(ann.duration) // EPOCH_SECONDS]
        covered = np.flatnonzero(span != -1)
        if len(covered):
            raise PipelineError(
                f"window {first + covered[0]} covered by more than one annotation"
            )
        span[:] = -2 if stage is None else stage
    return stages


def kept_windows(stages: np.ndarray) -> np.ndarray:
    """The windows that become epochs, in order: every window with a stage
    (label_windows), less the wake beyond 30 minutes (WAKE_TRIM_EPOCHS
    epochs) before the first and after the last non-wake epoch.

    Everything between the first and last non-wake epoch is kept.  A night
    of pure wake keeps its first 30 minutes; a night with no staged window
    is empty (PipelineError).
    """
    staged = np.flatnonzero(stages >= 0)
    if not len(staged):
        raise PipelineError("cannot trim an empty night")
    non_wake = np.flatnonzero(stages[staged] != SleepStage.WAKE)
    if not len(non_wake):
        return staged[:WAKE_TRIM_EPOCHS]
    a, b = non_wake[0], non_wake[-1]
    return staged[max(0, a - WAKE_TRIM_EPOCHS) : b + 1 + WAKE_TRIM_EPOCHS]


def night_records(
    span: np.ndarray,
    first: int,
    windows: np.ndarray,
    stages: np.ndarray,
    subject_id: int = 0,
    night: int = 0,
) -> np.recarray:
    """STORE_RECORD records of `windows` (window indices, in order), cut
    from `span`, the samples that start at window `first` and run at least
    to the end of the last of them.  stages is label_windows' array.

    Each sample is rounded to float32 as the store holds it; a window that
    then holds a NaN or an infinity raises PipelineError.  Only these
    windows are read, so the rest of `span` may hold anything.
    subject_id, night and every epoch_index must fit their store fields
    (StoreError otherwise).
    """
    _check_range("subject_id", subject_id, STORE_RECORD["subject_id"])
    _check_range("night", night, STORE_RECORD["night"])
    if len(windows):
        _check_range("epoch_index", int(windows[-1]), STORE_RECORD["epoch_index"])
    records = np.recarray(len(windows), dtype=STORE_RECORD)
    records.subject_id = subject_id
    records.night = night
    records.stage = stages[windows]
    records.epoch_index = windows
    samples = records["samples"]
    # window by window, so no float64 copy of the gathered windows is made;
    # an overflow to infinity is reported below, as any non-finite sample
    with np.errstate(over="ignore"):
        for i, start in enumerate((windows - first) * EPOCH_SAMPLES):
            samples[i] = span[start : start + EPOCH_SAMPLES]
    if not _all_finite(samples):
        raise PipelineError("epoch contains non-finite samples")
    return records


def standardize(samples: np.ndarray) -> np.ndarray:
    """Scale a sample vector to zero mean, unit (population) standard deviation.

    samples is one vector [L] or a stack [..., L]; each row along the last
    axis is scaled on its own, bit for bit as if it were passed alone.  A
    flat row, or one holding a NaN or an infinity, raises
    DegenerateEpochError.
    """
    # a signaling NaN casts to a quiet one silently, so its row is
    # unscorable like any other NaN's
    with np.errstate(invalid="ignore"):
        x = np.asarray(samples, dtype=np.float64)
    hi, lo = x.max(axis=-1), x.min(axis=-1)
    # max > min fails for a flat row, whose mean can be off by a rounding
    # step and leave std > 0, and for a row with a NaN; an infinity is
    # caught here too, before centring would compute inf - inf
    if not ((hi > lo) & np.isfinite(hi) & np.isfinite(lo)).all():
        raise _degenerate(hi, lo)
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))  # np.std's arithmetic
    # std > 0 fails for a spread that underflows
    if not (std > 0.0).all():
        raise _degenerate(hi, lo)
    centered /= std
    return centered


def _degenerate(hi: np.ndarray, lo: np.ndarray) -> DegenerateEpochError:
    """The error for rows that cannot be standardized, named from their max
    and min, which carry any NaN or infinity."""
    if np.isfinite(hi).all() and np.isfinite(lo).all():
        return DegenerateEpochError("flat epoch has zero variance")
    return DegenerateEpochError("epoch holds non-finite samples")


@dataclass(frozen=True)
class ClassDistribution:
    counts: tuple[int, ...]  # per stage, index = SleepStage value
    total: int

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


def class_distribution(epochs: np.ndarray) -> ClassDistribution:
    """Epochs per stage, of STORE_RECORD records or of their stage column."""
    epochs = np.asarray(epochs)
    if not len(epochs):
        raise PipelineError("empty store has no class distribution")
    stages = epochs if epochs.dtype.names is None else epochs["stage"]
    counts = np.bincount(stages, minlength=len(SleepStage))
    return ClassDistribution(counts=tuple(counts.tolist()), total=len(epochs))


_HEADER_FMT = "<4sHHII"  # magic, version, sample_rate, epoch_len, epoch_count
STORE_HEADER_BYTES = struct.calcsize(_HEADER_FMT)


def _header(count: int) -> bytes:
    _check_range("epoch count", count, np.dtype("<u4"))
    return struct.pack(
        _HEADER_FMT, STORE_MAGIC, STORE_VERSION, SAMPLE_RATE, EPOCH_SAMPLES, count
    )


def _read_header(f) -> int:
    """Check the header of the open store f against its size; return the
    epoch count."""
    file_size = os.fstat(f.fileno()).st_size
    head = f.read(STORE_HEADER_BYTES)
    if len(head) < STORE_HEADER_BYTES:
        raise StoreError("truncated store header")
    magic, version, rate, epoch_len, count = struct.unpack(_HEADER_FMT, head)
    if magic != STORE_MAGIC:
        raise StoreError(f"bad magic {magic!r}")
    if version != STORE_VERSION:
        raise StoreError(f"unsupported store version {version}")
    if rate != SAMPLE_RATE or epoch_len != EPOCH_SAMPLES:
        raise StoreError(f"unexpected geometry: rate={rate}, epoch_len={epoch_len}")
    declared = STORE_HEADER_BYTES + count * STORE_RECORD.itemsize
    if declared > file_size:
        raise StoreError(
            f"store truncated: header declares {count} epochs ({declared} bytes), "
            f"file holds {file_size} bytes"
        )
    if declared < file_size:
        raise StoreError("trailing bytes after declared epochs")
    return count


def write_store(epochs: np.ndarray, path: str | Path, append: bool = False) -> None:
    """Write STORE_RECORD records as an SLPE store (a 16-byte header, then
    the records as they lie in memory).

    append=True adds them after the epochs of the existing store at path
    instead.  The new records are written first and the header's count
    last, so a write cut short in between leaves the old count, which
    read_store rejects as "trailing bytes".
    """
    records = np.asarray(epochs, dtype=STORE_RECORD)
    if not append:
        with open(path, "wb") as f:
            f.write(_header(len(records)))
            records.tofile(f)
        return
    with open(path, "r+b") as f:
        head = _header(_read_header(f) + len(records))
        f.seek(0, os.SEEK_END)
        records.tofile(f)
        f.seek(0)
        f.write(head)


def read_store(*paths: str | Path) -> np.recarray:
    """Read one or more stores written by write_store as one array of
    STORE_RECORD records, in the order given.

    Every header is checked against its file's size first (StoreError),
    so the array is allocated once and each store is read straight into
    its own slice.  Then every stage byte (StoreError) and every sample
    (PipelineError if not finite) is checked once.
    """
    counts = []
    for path in paths:
        with open(path, "rb") as f:
            counts.append(_read_header(f))
    records = np.recarray(sum(counts), dtype=STORE_RECORD)
    start = 0
    for path, count in zip(paths, counts):
        part = records[start : start + count].view(np.uint8)
        with open(path, "rb") as f:
            f.seek(STORE_HEADER_BYTES)
            if f.readinto(part) < len(part):
                raise StoreError("store truncated mid-epoch")
        start += count
    bad = np.flatnonzero(records.stage >= len(SleepStage))
    if len(bad):
        raise StoreError(f"invalid stage byte {records.stage[bad[0]]}")
    if not _all_finite(records.samples):
        raise PipelineError("epoch contains non-finite samples")
    return records
