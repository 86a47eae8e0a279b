"""EDF/EDF+ parsing for polysomnography recordings.

Covers the subset of the format that overnight EEG archives actually use:
fixed-width ASCII headers, 16-bit little-endian integer samples, continuous
(EDF+C) recordings, and time-stamped annotation lists (TALs) carried in
"EDF Annotations" channels.  Discontinuous (EDF+D) files are rejected.

`parse_edf` takes a path and keeps the file open for the signal reads.
Every size the header declares is checked against the file's size before it
sizes a read or an array.  Signal data is read record by record, never
buffered whole, so 20-hour recordings parse in bounded memory.  A channel
read may ask for a sample range, and then only the records that hold that
range are read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

# TAL delimiter bytes per the EDF+ annotation encoding.
_TAL_FIELD_SEP = 0x14
_TAL_DURATION_SEP = 0x15
_TAL_TERMINATOR = 0x00


class EdfError(ValueError):
    """Malformed or unsupported EDF content."""


class UnknownChannelError(EdfError):
    """Requested signal label is absent (or ambiguous) in the file."""


@dataclass(frozen=True)
class EdfSignalHeader:
    """Per-signal slice of the EDF header."""

    label: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    samples_per_record: int


@dataclass(frozen=True)
class EdfHeader:
    """Decoded fixed-width EDF header (256 bytes + 256 per signal)."""

    n_records: int
    record_duration: float
    signals: tuple[EdfSignalHeader, ...]
    start_date: str  # dd.mm.yy, as written
    start_time: str  # hh.mm.ss, as written

    @property
    def signal_count(self) -> int:
        return len(self.signals)

    @property
    def header_bytes(self) -> int:
        return 256 + 256 * self.signal_count

    @property
    def record_bytes(self) -> int:
        return sum(s.samples_per_record for s in self.signals) * 2


@dataclass(frozen=True)
class RawAnnotation:
    """One (onset, duration, text) event decoded from a TAL."""

    onset: float
    duration: float
    text: str


def _ascii(raw: bytes) -> str:
    return raw.decode("ascii", errors="replace").strip()


def _numeric(raw: bytes, kind, what: str):
    text = _ascii(raw)
    try:
        return kind(text)
    except ValueError:
        raise EdfError(f"non-numeric {what} field: {text!r}") from None


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise EdfError(f"truncated {what}: wanted {n} bytes, got {len(data)}")
    return data


class EdfFile:
    """Parsed header plus a record-by-record accessor over the data area.

    The header is immutable; accessor methods seek within the underlying
    stream, so one EdfFile should not be shared across threads.
    """

    def __init__(self, header: EdfHeader, stream: BinaryIO, data_offset: int):
        self.header = header
        self._stream = stream
        self._data_offset = data_offset
        # Byte offset of each signal inside a data record.
        offsets = []
        pos = 0
        for sig in header.signals:
            offsets.append(pos)
            pos += sig.samples_per_record * 2
        self._signal_offsets = offsets

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "EdfFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def signal_index(self, label: str) -> int:
        matches = [i for i, s in enumerate(self.header.signals) if s.label == label]
        if not matches:
            known = [s.label for s in self.header.signals]
            raise UnknownChannelError(f"no channel {label!r}; file has {known}")
        if len(matches) > 1:
            raise UnknownChannelError(f"duplicate channel label {label!r}")
        return matches[0]

    def record_chunks(
        self, index: int, first: int = 0, stop: int | None = None
    ) -> Iterator[bytes]:
        """Yield the raw bytes of one signal, one data record at a time, from
        record `first` up to `stop` (the last record by default)."""
        n = self.header.signals[index].samples_per_record * 2
        stop = self.header.n_records if stop is None else stop
        record_bytes = self.header.record_bytes
        for rec in range(first, stop):
            self._stream.seek(self._data_offset + rec * record_bytes + self._signal_offsets[index])
            yield _read_exact(self._stream, n, f"data record {rec}")

    def read_digital(self, label: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Digital samples [start, stop) of a channel, concatenated across
        records; the whole channel by default.  Only the records that hold
        the range are read.  The range must satisfy 0 <= start <= stop <=
        the channel's sample count (EdfError otherwise); start == stop gives
        an empty array."""
        index = self.signal_index(label)
        n = self.header.signals[index].samples_per_record
        total = self.header.n_records * n
        stop = total if stop is None else stop
        if not 0 <= start <= stop <= total:
            raise EdfError(
                f"sample range [{start}, {stop}) outside channel {label!r} of {total} samples"
            )
        first = start // n
        end = -(-stop // n) if stop > start else first
        out = np.empty((end - first) * n, dtype=np.int16)
        for k, chunk in enumerate(self.record_chunks(index, first, end)):
            out[k * n : (k + 1) * n] = np.frombuffer(chunk, dtype="<i2")
        return out[start - first * n : stop - first * n]

    def annotations(self) -> list[RawAnnotation]:
        """Decode every TAL in the file's annotation channels, in file order."""
        out: list[RawAnnotation] = []
        for i, sig in enumerate(self.header.signals):
            if sig.label != "EDF Annotations":
                continue
            for chunk in self.record_chunks(i):
                out.extend(parse_tal(chunk))
        return out


def parse_edf(path: str | Path) -> EdfFile:
    """Open the EDF/EDF+C file at path and return its header with a signal
    accessor, which holds the file open until closed.

    The declared sizes are validated against the file's size before
    anything they size is read; EDF+D (discontinuous) recordings are
    rejected.  The file is closed again when the header is bad.
    """
    stream = open(path, "rb")
    try:
        header = _read_header(stream)
    except BaseException:
        stream.close()
        raise
    return EdfFile(header, stream, header.header_bytes)


def _read_header(stream: BinaryIO) -> EdfHeader:
    """Decode and check the header of the file open at its start."""
    size = os.fstat(stream.fileno()).st_size
    fixed = _read_exact(stream, 256, "EDF header")
    reserved = _ascii(fixed[192:236])
    if reserved.startswith("EDF+D"):
        raise EdfError("discontinuous (EDF+D) recordings are not supported")
    declared_header_bytes = _numeric(fixed[184:192], int, "header-bytes")
    n_records = _numeric(fixed[236:244], int, "record-count")
    record_duration = _numeric(fixed[244:252], float, "record-duration")
    n_signals = _numeric(fixed[252:256], int, "signal-count")
    if n_signals < 1:
        raise EdfError(f"signal count must be positive, got {n_signals}")
    if n_records < 0:
        raise EdfError(f"record count must be non-negative, got {n_records}")
    # a buffered read of n bytes allocates n up front, so the signal count
    # is checked against the file before it sizes a read
    if 256 + 256 * n_signals > size:
        raise EdfError(
            f"truncated signal headers: wanted {256 * n_signals} bytes, got {size - 256}"
        )
    per_signal = _read_exact(stream, 256 * n_signals, "signal headers")

    # Column start (in bytes per signal) inside the signal header block:
    # label(16) transducer(80) dimension(8) phys_min(8) phys_max(8)
    # dig_min(8) dig_max(8) prefilter(80) samples(8) reserved(32)
    def column(start: int, width: int, i: int) -> bytes:
        base = start * n_signals + width * i
        return per_signal[base : base + width]

    signals = []
    for i in range(n_signals):
        label = _ascii(column(0, 16, i))
        phys_min = _numeric(column(104, 8, i), float, "physical-min")
        phys_max = _numeric(column(112, 8, i), float, "physical-max")
        dig_min = _numeric(column(120, 8, i), int, "digital-min")
        dig_max = _numeric(column(128, 8, i), int, "digital-max")
        samples = _numeric(column(216, 8, i), int, "samples-per-record")
        if dig_min >= dig_max:
            raise EdfError(
                f"signal {label!r}: digital_min {dig_min} must be < digital_max {dig_max}"
            )
        if samples < 1:
            raise EdfError(f"signal {label!r}: samples_per_record must be >= 1")
        signals.append(
            EdfSignalHeader(
                label=label,
                physical_min=phys_min,
                physical_max=phys_max,
                digital_min=dig_min,
                digital_max=dig_max,
                samples_per_record=samples,
            )
        )

    header = EdfHeader(
        n_records=n_records,
        record_duration=record_duration,
        signals=tuple(signals),
        start_date=_ascii(fixed[168:176]),
        start_time=_ascii(fixed[176:184]),
    )
    if declared_header_bytes != header.header_bytes:
        raise EdfError(
            f"declared header size {declared_header_bytes} != "
            f"{header.header_bytes} (256 + 256 x {n_signals})"
        )

    # The data area must hold exactly the declared records.
    actual = size - header.header_bytes
    expected = header.n_records * header.record_bytes
    if actual != expected:
        raise EdfError(
            f"data area holds {actual} bytes but header declares "
            f"{header.n_records} records x {header.record_bytes} bytes"
        )
    return header


def physical_map(
    dig_min: float, dig_max: float, phys_min: float, phys_max: float, what: str
) -> Callable[[np.ndarray], np.ndarray]:
    """The affine map of digital values onto [phys_min, phys_max], as float64:
    ``phys = (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min) + phys_min``.

    Each of these raises EdfError naming `what` and the range at fault: a
    digital range with dig_min >= dig_max (the rule an EDF header meets) or
    a width that overflows; a physical range that is empty or not finite
    (an overflowing width included); two valid ranges whose gain is zero or
    not finite.  A digital value outside [dig_min, dig_max] can still map
    past float64's range; it comes out infinite, without a warning, for the
    caller's finiteness check.
    """
    if not dig_min < dig_max:
        raise EdfError(f"{what}: digital_min {dig_min} must be < digital_max {dig_max}")
    dig_width = dig_max - dig_min
    if not math.isfinite(dig_width):
        raise EdfError(f"{what}: digital range {dig_min}..{dig_max} is wider than float64 holds")
    phys_width = phys_max - phys_min
    if phys_width == 0 or not math.isfinite(phys_width):
        raise EdfError(f"{what}: physical range {phys_min}..{phys_max} is empty or not finite")
    gain = phys_width / dig_width
    if gain == 0 or not math.isfinite(gain):
        raise EdfError(
            f"{what}: physical range {phys_min}..{phys_max} over digital range "
            f"{dig_min}..{dig_max} gives a gain that is zero or not finite"
        )

    def to_physical(digital: np.ndarray) -> np.ndarray:
        # one float64 array, updated in place: the formula's bits, without
        # a temporary per operation
        phys = np.subtract(digital, dig_min, dtype=np.float64)
        with np.errstate(over="ignore"):
            phys *= gain
            phys += phys_min
        return phys

    return to_physical


def read_signal(
    edf: EdfFile, channel_label: str, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Samples [start, stop) of one channel in physical units as float64
    (physical_map); the whole channel by default.  The range is checked as
    EdfFile.read_digital checks it, after the physical range."""
    sig = edf.header.signals[edf.signal_index(channel_label)]
    to_physical = physical_map(
        sig.digital_min, sig.digital_max, sig.physical_min, sig.physical_max,
        f"signal {channel_label!r}",
    )
    return to_physical(edf.read_digital(channel_label, start, stop))


def parse_tal(annotation_bytes: bytes) -> list[RawAnnotation]:
    """Decode a TAL byte buffer into annotations.

    Layout per TAL: ``onset [0x15 duration] 0x14 text 0x14 ... 0x00`` with the
    buffer padded by trailing 0x00 bytes.  Bookkeeping TALs (empty text, one
    per record start) are skipped; a negative onset is legal only on those.
    """
    if not annotation_bytes:
        return []
    chunks = annotation_bytes.split(bytes([_TAL_TERMINATOR]))
    if chunks[-1] != b"":
        raise EdfError("TAL buffer lacks a 0x00 terminator")
    out: list[RawAnnotation] = []
    for chunk in chunks[:-1]:
        if not chunk:
            continue  # padding between TALs
        if chunk[0] not in (ord("+"), ord("-")):
            raise EdfError(f"TAL onset must start with '+' or '-': {chunk[:20]!r}")
        sep = chunk.find(bytes([_TAL_FIELD_SEP]))
        if sep < 0:
            raise EdfError("TAL lacks a 0x14 field separator")
        head = chunk[:sep]
        onset_raw, _, duration_raw = head.partition(bytes([_TAL_DURATION_SEP]))
        try:
            onset = float(onset_raw)
            duration = float(duration_raw) if duration_raw else 0.0
        except ValueError:
            raise EdfError(f"unparseable TAL onset/duration: {head!r}") from None
        if not np.isfinite(onset + duration):
            raise EdfError(f"non-finite TAL onset/duration: {head!r}")
        if duration < 0:
            raise EdfError(f"negative TAL duration: {duration}")
        texts = [
            t.decode("utf-8", errors="replace").strip()
            for t in chunk[sep + 1 :].split(bytes([_TAL_FIELD_SEP]))
        ]
        texts = [t for t in texts if t]
        if not texts:
            continue  # bookkeeping TAL marking the record start
        if onset < 0:
            raise EdfError(f"negative onset {onset} outside a bookkeeping TAL")
        for text in texts:
            out.append(RawAnnotation(onset=onset, duration=duration, text=text))
    return out
