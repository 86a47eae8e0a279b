"""Seeded synthetic inputs for the edgesleep benchmark.

EDF/EDF+ files and the SLPE cohort store are written with the benchmark's
own minimal writers; model files with the program's SLPM writers, plus an
``.npz`` of the weights for the reference forward.  The program under test
only ever sees files.  The same (workload, seed) always gives
byte-identical files.

Besides the files, ``generate`` returns a manifest with ground truth that
is computed here from the generator's own labels, independently of the
program: which windows become epochs after the discard and 30-minute
wake-trim rules, per-class counts, the number of full stream windows and
which of them are flat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from edgesleep import model, quant

import reference

SAMPLE_RATE = 100
EPOCH_SAMPLES = 3000
WAKE_TRIM_EPOCHS = 60

# Hypnogram text -> stage index (0 Wake .. 4 REM); None marks a discarded window.
LABELS = {
    "Sleep stage W": 0,
    "Sleep stage 1": 1,
    "Sleep stage 2": 2,
    "Sleep stage 3": 3,
    "Sleep stage 4": 3,
    "Sleep stage R": 4,
    "Movement time": None,
    "Sleep stage ?": None,
}
# Dominant sinusoid per stage; discarded windows borrow the wake band.
STAGE_FREQS = np.array([1.0, 4.0, 8.0, 13.0, 20.0])
SLEEP_CYCLE = ("Sleep stage 1", "Sleep stage 2", "Sleep stage 3", "Sleep stage 4",
               "Sleep stage 3", "Sleep stage 2", "Sleep stage R")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of each workload; the seed changes content, never size."""

    train_subjects: int = 5
    train_epochs_per_subject: int = 20
    train_max_epochs: int = 2
    score_nights: int = 4
    score_night_windows: int = 1600  # 13.3 recording-hours per night
    stream_windows: int = 1080
    stream_partial_samples: int = 1234
    stream_flat_windows: int = 12


SIZES = Sizes()
WARM_SIZES = Sizes(
    train_epochs_per_subject=2,
    train_max_epochs=1,
    score_nights=1,
    score_night_windows=400,
    stream_windows=4,
    stream_flat_windows=1,
)


# --- signal content -------------------------------------------------------

def synth_windows(rng: np.random.Generator, stages: np.ndarray) -> np.ndarray:
    """Class-dependent sinusoids with random amplitude and phase plus noise,
    one 3000-sample row per window."""
    n = len(stages)
    t = np.arange(EPOCH_SAMPLES, dtype=np.float32) / SAMPLE_RATE
    amp = rng.uniform(15.0, 25.0, n).astype(np.float32)
    phase = rng.uniform(0.0, 2 * np.pi, n).astype(np.float32)
    omega = (2 * np.pi * STAGE_FREQS[stages]).astype(np.float32)
    x = np.sin(omega[:, None] * t + phase[:, None])
    x += np.float32(0.3) * rng.standard_normal((n, EPOCH_SAMPLES), dtype=np.float32)
    x *= amp[:, None]
    return x


def night_windows(rng: np.random.Generator, n_windows: int) -> list[str | None]:
    """One hypnogram as a label per 30 s window (None = not annotated).

    Long leading and trailing wake, sleep cycles with short wake bouts,
    `Movement time` and `Sleep stage ?` runs, one long `Sleep stage ?` run
    that holds the electrode-off stretch, and a final `?` run that ends
    inside the signal.  Only the order and the stage of each run depend on
    the seed: every night of a given length keeps the same number of epochs.
    """
    lead = trail = n_windows * 2 // 5
    tail = ["Sleep stage ?"] * 5 + [None] * 2
    inserts = (
        [["Movement time"] * 2] * 3 + [["Sleep stage ?"] * 2] * 3
        + [["Sleep stage W"] * 3] * 4 + [["Sleep stage ?"] * 16]
    )
    stage_windows = n_windows - lead - trail - len(tail) - sum(map(len, inserts))
    if stage_windows < 20:
        raise ValueError(f"{n_windows} windows leave no sleep period")
    stage_runs: list[list[str]] = []
    left = stage_windows
    while left:
        length = min(left, int(rng.integers(3, 25)))
        stage_runs.append([SLEEP_CYCLE[len(stage_runs) % len(SLEEP_CYCLE)]] * length)
        left -= length
    # Inserts go between stage runs, so the sleep period starts and ends in sleep.
    inserts = [inserts[k] for k in rng.permutation(len(inserts))]
    slots = rng.integers(1, len(stage_runs), len(inserts))
    body: list[str] = []
    for i, run in enumerate(stage_runs):
        for insert, slot in zip(inserts, slots):
            if slot == i:
                body += insert
        body += run
    return ["Sleep stage W"] * lead + body + ["Sleep stage W"] * trail + tail


def flat_span(windows: list[str | None]) -> tuple[int, int]:
    """[first, end) window range of the long `?` run that carries the flat
    electrode-off stretch."""
    best, run_start = (0, 0), None
    for i, text in enumerate(windows + [None]):
        if text == "Sleep stage ?" and run_start is None:
            run_start = i
        elif text != "Sleep stage ?" and run_start is not None:
            if i - run_start > best[1] - best[0]:
                best = (run_start, i)
            run_start = None
    return best


def kept_windows(windows: list[str | None]) -> list[int]:
    """Indices of the windows that become epochs: discarded and unannotated
    windows dropped, then wake beyond 30 minutes on each side of the sleep
    period trimmed."""
    kept = [i for i, t in enumerate(windows) if t is not None and LABELS[t] is not None]
    sleep_at = [k for k, i in enumerate(kept) if LABELS[windows[i]] != 0]
    if not sleep_at:
        return kept[:WAKE_TRIM_EPOCHS]
    return kept[max(0, sleep_at[0] - WAKE_TRIM_EPOCHS) : sleep_at[-1] + 1 + WAKE_TRIM_EPOCHS]


def expected_counts(windows: list[str | None]) -> list[int]:
    """Per-stage epoch counts of the kept windows."""
    stages = [LABELS[windows[i]] for i in kept_windows(windows)]
    return [stages.count(c) for c in range(5)]


def runs(windows: list[str | None]) -> list[tuple[int, int, str]]:
    """Run-length encode labels into (onset_s, duration_s, text) annotations."""
    out: list[tuple[int, int, str]] = []
    start = 0
    for i in range(1, len(windows) + 1):
        if i == len(windows) or windows[i] != windows[start]:
            if windows[start] is not None:
                out.append((start * 30, (i - start) * 30, windows[start]))
            start = i
    return out


# --- EDF / EDF+ -------------------------------------------------------------

@dataclass
class Signal:
    label: str
    samples_per_record: int
    digital: np.ndarray | None  # int16, n_records * samples_per_record
    phys_min: float = -192.0
    phys_max: float = 192.0
    dig_min: int = -2048
    dig_max: int = 2047
    dimension: str = "uV"


def _field(value, width: int) -> bytes:
    text = value if isinstance(value, str) else str(value) if isinstance(value, int) else f"{value:g}"
    raw = text.encode("ascii")
    if len(raw) > width:
        raise ValueError(f"EDF field {value!r} exceeds {width} bytes")
    return raw.ljust(width)


def edf_header(signals: list[Signal], n_records: int, record_s: float, reserved: str) -> bytes:
    ns = len(signals)
    fixed = b"".join([
        _field("0", 8), _field("X X X X", 80), _field("Startdate 01-JAN-1990 X X X", 80),
        _field("01.01.90", 8), _field("22.00.00", 8), _field(256 + 256 * ns, 8),
        _field(reserved, 44), _field(n_records, 8), _field(record_s, 8), _field(ns, 4),
    ])
    columns = [
        [_field(s.label, 16) for s in signals],
        [_field("", 80) for _ in signals],
        [_field(s.dimension, 8) for s in signals],
        [_field(s.phys_min, 8) for s in signals],
        [_field(s.phys_max, 8) for s in signals],
        [_field(s.dig_min, 8) for s in signals],
        [_field(s.dig_max, 8) for s in signals],
        [_field("", 80) for _ in signals],
        [_field(s.samples_per_record, 8) for s in signals],
        [_field("", 32) for _ in signals],
    ]
    return fixed + b"".join(b"".join(col) for col in columns)


def write_psg(path: Path, signals: list[Signal], n_records: int, record_s: float) -> None:
    """Plain EDF, data records interleaved signal by signal."""
    blocks = [s.digital.reshape(n_records, s.samples_per_record) for s in signals]
    body = np.concatenate(blocks, axis=1).astype("<i2")
    with open(path, "wb") as f:
        f.write(edf_header(signals, n_records, record_s, ""))
        f.write(body.tobytes())


def tal(onset: float, duration: float, text: str) -> bytes:
    return f"+{onset:g}\x15{duration:g}\x14{text}\x14\x00".encode("ascii")


def write_hypnogram(path: Path, annotations: list[tuple[int, int, str]]) -> None:
    """EDF+C file with one data record whose annotation channel holds every TAL."""
    payload = b"+0\x14\x14\x00" + b"".join(tal(*a) for a in annotations)
    spr = (len(payload) + 1) // 2
    sig = Signal("EDF Annotations", spr, None, -1.0, 1.0, -32768, 32767, "")
    with open(path, "wb") as f:
        f.write(edf_header([sig], 1, 0, "EDF+C"))
        f.write(payload.ljust(spr * 2, b"\x00"))


def to_digital(x: np.ndarray, sig: Signal) -> np.ndarray:
    gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
    d = np.rint((x - sig.phys_min) / gain + sig.dig_min)
    return np.clip(d, sig.dig_min, sig.dig_max).astype(np.int16)


def read_fpz(path: Path) -> np.ndarray:
    """Physical Fpz-Cz samples of a file written by write_psg, one row per
    30 s record: the first signal, with its default scaling."""
    raw = Path(path).read_bytes()
    ns = int(raw[252:256])
    spr_at = 256 + 216 * ns  # the samples-per-record column of the header
    spr = [int(raw[spr_at + 8 * i : spr_at + 8 * i + 8]) for i in range(ns)]
    digital = np.frombuffer(raw, "<i2", offset=256 * (ns + 1)).reshape(-1, sum(spr))[:, : spr[0]]
    fpz = Signal("EEG Fpz-Cz", EPOCH_SAMPLES, None)
    gain = (fpz.phys_max - fpz.phys_min) / (fpz.dig_max - fpz.dig_min)
    return (digital - fpz.dig_min) * gain + fpz.phys_min


def psg_signals(rng: np.random.Generator, windows: list[str | None]) -> list[Signal]:
    """Sleep-EDF cassette layout: three 100 Hz channels and four 1 Hz ones,
    in 30 s records.  Fpz-Cz goes flat (digital 0) across the long `?` run."""
    n = len(windows)
    fpz = Signal("EEG Fpz-Cz", EPOCH_SAMPLES, None)
    stages = np.array([LABELS.get(t) or 0 for t in windows])
    fpz.digital = to_digital(synth_windows(rng, stages).reshape(-1), fpz)
    lo, hi = flat_span(windows)
    fpz.digital[lo * EPOCH_SAMPLES : hi * EPOCH_SAMPLES] = 0
    seconds = np.arange(n * 30)
    slow = (1000 * np.sin(2 * np.pi * seconds / 240.0)).astype(np.int16)
    return [
        fpz,
        Signal("EEG Pz-Oz", EPOCH_SAMPLES, np.roll(fpz.digital, 37) // 2),
        Signal("EOG horizontal", EPOCH_SAMPLES, np.roll(fpz.digital, 911) // 3),
        Signal("Resp oro-nasal", 30, slow, -2048.0, 2047.0, -2048, 2047, ""),
        Signal("EMG submental", 30, slow // 4, -5.0, 5.0, -2048, 2047, "uV"),
        Signal("Temp rectal", 30, np.full(n * 30, 370, np.int16), 34.0, 40.0, -2048, 2047, "DegC"),
        Signal("Event marker", 30, np.zeros(n * 30, np.int16), -2048.0, 2047.0, -2048, 2047, ""),
    ]


# --- SLPE epoch store ---------------------------------------------------------

def write_store(path: Path, samples: np.ndarray, stages, subjects, indices) -> None:
    head = np.array([(b"SLPE", 1, SAMPLE_RATE, EPOCH_SAMPLES, len(samples))], reference.STORE_HEADER)
    body = np.zeros(len(samples), reference.STORE_EPOCH)
    body["subject"], body["night"], body["stage"] = subjects, 1, stages
    body["index"], body["samples"] = indices, samples
    with open(path, "wb") as f:
        f.write(head.tobytes() + body.tobytes())


# --- SLPM models --------------------------------------------------------------
# The program's writers make the model files; the weights are also saved as
# .npz beside them, so that the output checks can run benchmark/reference.py
# on weights that never passed through the program's reader.

CONFIG = model.ArchConfig()


def random_weights(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform matrices, small random biases, unit layer-norm gains."""
    out = {}
    for name, shape in model.expected_shapes(CONFIG).items():
        if name.endswith("_gain"):
            out[name] = np.ones(shape, np.float32)
        elif len(shape) == 1:
            out[name] = rng.uniform(-0.05, 0.05, shape).astype(np.float32)
        else:
            fan_in = int(np.prod(shape[:-1]))
            fan_out = shape[-1] * (shape[0] if len(shape) == 3 else 1)
            a = np.sqrt(6.0 / (fan_in + fan_out))
            out[name] = rng.uniform(-a, a, shape).astype(np.float32)
    return out


def write_float_model(path: Path, tensors: dict[str, np.ndarray]) -> None:
    model.save_model(model.ModelParams(tensors), CONFIG, path)
    np.savez(path.with_suffix(".npz"), **tensors)


def write_int8_model(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """Weight matrices as symmetric per-tensor int8; the .npz holds the
    values they stand for, int8 value times scale."""
    quantized = {n: quant.quantize_tensor(t) for n, t in tensors.items() if t.ndim > 1}
    retained = {n: t for n, t in tensors.items() if n not in quantized}
    quant.save_quant_model(quant.QuantModel(CONFIG, quantized, retained), path)
    dequantized = {
        n: q.values.reshape(q.shape).astype(np.float32) * np.float32(q.scale) for n, q in quantized.items()
    }
    np.savez(path.with_suffix(".npz"), **retained, **dequantized)


# --- workloads ----------------------------------------------------------------

def make_train(rng: np.random.Generator, out: Path, sizes: Sizes) -> dict:
    """Multi-subject cohort store; every subject has the same stage mix."""
    per = sizes.train_epochs_per_subject
    stages = np.concatenate([rng.permutation(np.arange(per) % 5) for _ in range(sizes.train_subjects)])
    subjects = np.repeat(np.arange(1, sizes.train_subjects + 1), per)
    indices = np.tile(np.arange(per), sizes.train_subjects)
    write_store(out / "cohort.slpe", synth_windows(rng, stages), stages, subjects, indices)
    # `train --fold 0` holds out one subject (5 folds over 5 subjects) and
    # splits the rest 90/10 into train and validation.
    pool = (sizes.train_subjects - 1) * per
    n_val = round(0.1 * pool)
    # One epoch per subject, for the gradient check: 4 epochs are left after
    # the hold-out, and round(0.1 * 4) = 0 of them go to validation.
    step_stages = rng.permutation(5)
    write_store(out / "step.slpe", synth_windows(rng, step_stages), step_stages, np.arange(1, 6), np.zeros(5))
    return {
        "store": "cohort.slpe",
        "step_store": "step.slpe",
        "max_epochs": sizes.train_max_epochs,
        "train_samples": pool - n_val,
        "val_samples": n_val,
        "store_rec_hours": len(stages) * 30 / 3600,
    }


def make_score(rng: np.random.Generator, out: Path, sizes: Sizes) -> dict:
    nights = []
    total = [0] * 5
    for i in range(sizes.score_nights):
        windows = night_windows(rng, sizes.score_night_windows)
        psg, hyp = f"night{i}-PSG.edf", f"night{i}-Hypnogram.edf"
        write_psg(out / psg, psg_signals(rng, windows), len(windows), 30)
        write_hypnogram(out / hyp, runs(windows))
        kept = kept_windows(windows)
        counts = expected_counts(windows)
        total = [a + b for a, b in zip(total, counts)]
        nights.append({
            "psg": psg,
            "hypnogram": hyp,
            "subject": i + 1,
            "windows": len(windows),
            "counts": counts,
            "store_counts": list(total),
            "kept": kept,
            "stages": [LABELS[windows[k]] for k in kept],
        })
    write_float_model(out / "float.slpm", random_weights(rng))
    return {
        "nights": nights,
        "model": "float.slpm",
        "rec_hours": sum(n["windows"] for n in nights) * 30 / 3600,
        "counts": total,
    }


def make_stream(rng: np.random.Generator, out: Path, sizes: Sizes) -> dict:
    """One night of float32 samples: full windows, an exactly-zero
    electrode-off stretch covering whole windows and a partial window at
    each of its edges, and a partial trailing window."""
    n = sizes.stream_windows
    stages = np.repeat(rng.permutation(np.arange(n // 10 + 1) % 5), 10)[:n]
    x = synth_windows(rng, stages).reshape(-1)
    first = int(rng.integers(1, n - sizes.stream_flat_windows - 1))
    x[first * EPOCH_SAMPLES - 1500 : (first + sizes.stream_flat_windows) * EPOCH_SAMPLES + 700] = 0.0
    tail = rng.normal(0.0, 20.0, sizes.stream_partial_samples)
    feed = np.concatenate([x, tail]).astype("<f4")
    feed.tofile(out / "feed.f32")
    windows = feed[: n * EPOCH_SAMPLES].reshape(n, EPOCH_SAMPLES)
    flat = [int(i) for i in np.flatnonzero((windows == windows[:, :1]).all(axis=1))]
    write_int8_model(out / "int8.slpm", random_weights(rng))
    return {
        "feed": "feed.f32",
        "model": "int8.slpm",
        "windows": n,
        "partial_samples": sizes.stream_partial_samples,
        "flat_windows": flat,
        "rec_hours": len(feed) / SAMPLE_RATE / 3600,
    }


MAKERS = {"train": make_train, "score": make_score, "stream": make_stream}


def generate(workload: str, seed: int, out: Path, sizes: Sizes = SIZES) -> dict:
    """Write the workload's inputs, plus a small warm-up set under
    ``out/warm``, and return (and save) the manifest."""
    maker = MAKERS[workload]
    (out / "warm").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(MAKERS).index(workload)])
    manifest = {
        "workload": workload,
        "seed": seed,
        "dir": str(out),
        "main": maker(rng, out, sizes),
        "warm": maker(np.random.default_rng([seed, 99]), out / "warm", WARM_SIZES),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
