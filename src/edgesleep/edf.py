"""EDF/EDF+ parsing for polysomnography recordings.

Covers the subset of the format that overnight EEG archives actually use:
fixed-width ASCII headers, 16-bit little-endian integer samples, continuous
(EDF+C) recordings, and time-stamped annotation lists (TALs) carried in
"EDF Annotations" channels.  Discontinuous (EDF+D) files are rejected.

Signal data is read record by record, never buffered whole, so 20-hour
recordings parse in bounded memory.
"""

from __future__ import annotations

import io
import math
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

    version: str
    n_records: int
    record_duration: float
    signals: tuple[EdfSignalHeader, ...]

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

    def record_chunks(self, index: int) -> Iterator[bytes]:
        """Yield the raw bytes of one signal, one data record at a time."""
        sig = self.header.signals[index]
        n = sig.samples_per_record * 2
        for rec in range(self.header.n_records):
            self._stream.seek(
                self._data_offset
                + rec * self.header.record_bytes
                + self._signal_offsets[index]
            )
            yield _read_exact(self._stream, n, f"data record {rec}")

    def read_digital(self, label: str) -> np.ndarray:
        """All digital samples of a channel, concatenated across records."""
        index = self.signal_index(label)
        sig = self.header.signals[index]
        n = sig.samples_per_record
        out = np.empty(self.header.n_records * n, dtype=np.int16)
        for rec, chunk in enumerate(self.record_chunks(index)):
            out[rec * n : (rec + 1) * n] = np.frombuffer(chunk, dtype="<i2")
        return out

    def annotations(self) -> list[RawAnnotation]:
        """Decode every TAL in the file's annotation channels, in file order."""
        out: list[RawAnnotation] = []
        for i, sig in enumerate(self.header.signals):
            if sig.label != "EDF Annotations":
                continue
            for chunk in self.record_chunks(i):
                out.extend(parse_tal(chunk))
        return out


def parse_edf(source: str | Path | bytes | BinaryIO) -> EdfFile:
    """Parse an EDF/EDF+C file and return its header with a signal accessor.

    ``source`` may be a path, raw bytes, or a seekable binary stream.  The
    declared sizes are validated against the actual stream length; EDF+D
    (discontinuous) recordings are rejected.  A file opened from a path is
    closed again when the header is bad.
    """
    if isinstance(source, (str, Path)):
        stream: BinaryIO = open(source, "rb")
    elif isinstance(source, bytes):
        stream = io.BytesIO(source)
    else:
        stream = source
    try:
        header = _read_header(stream)
    except BaseException:
        if stream is not source:
            stream.close()
        raise
    return EdfFile(header, stream, header.header_bytes)


def _read_header(stream: BinaryIO) -> EdfHeader:
    """Decode and check the header; leaves the stream at the data area."""
    fixed = _read_exact(stream, 256, "EDF header")
    version = fixed[0:8].decode("ascii", errors="replace").rstrip()
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
        version=version,
        n_records=n_records,
        record_duration=record_duration,
        signals=tuple(signals),
    )
    if declared_header_bytes != header.header_bytes:
        raise EdfError(
            f"declared header size {declared_header_bytes} != "
            f"{header.header_bytes} (256 + 256 x {n_signals})"
        )

    # The data area must hold exactly the declared records.
    pos = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(pos)
    actual = end - header.header_bytes
    expected = header.n_records * header.record_bytes
    if actual != expected:
        raise EdfError(
            f"data area holds {actual} bytes but header declares "
            f"{header.n_records} records x {header.record_bytes} bytes"
        )
    return header


def physical_map(
    dig_min: int, dig_max: int, phys_min: float, phys_max: float, what: str
) -> Callable[[np.ndarray], np.ndarray]:
    """The affine map of digital values onto [phys_min, phys_max], as float64:
    ``phys = (d - dig_min) * (phys_max - phys_min) / (dig_max - dig_min) + phys_min``.

    dig_max must differ from dig_min.  A physical range that is empty or not
    finite, so that the gain is zero or not finite (an overflowing width
    included), raises EdfError naming `what`.
    """
    gain = (phys_max - phys_min) / (dig_max - dig_min)
    if gain == 0 or not math.isfinite(gain):
        raise EdfError(f"{what}: physical range {phys_min}..{phys_max} is empty or not finite")
    return lambda digital: (digital.astype(np.float64) - dig_min) * gain + phys_min


def read_signal(edf: EdfFile, channel_label: str) -> np.ndarray:
    """Return one channel in physical units as float64 (physical_map)."""
    sig = edf.header.signals[edf.signal_index(channel_label)]
    to_physical = physical_map(
        sig.digital_min, sig.digital_max, sig.physical_min, sig.physical_max,
        f"signal {channel_label!r}",
    )
    return to_physical(edf.read_digital(channel_label))


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
