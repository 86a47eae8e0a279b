"""Test helpers imported by name: synthetic epochs, crafted files and
allocation peaks.  They live here, not in conftest.py, so that the tests
and benchmark/tests suites, each with its own conftest, run in one
pytest invocation."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from edgesleep.epochs import EPOCH_SAMPLES, STORE_RECORD

# Stage -> dominant sinusoid frequency (Hz); distinct bands make the classes
# linearly separable after convolutional feature extraction.
SYNTH_FREQS = {0: 1.0, 1: 4.0, 2: 8.0, 3: 13.0, 4: 20.0}


def make_synth_epochs(
    n: int,
    seed: int = 0,
    subject_id: int = 0,
    night: int = 1,
    freqs: dict[int, float] = SYNTH_FREQS,
    stage_of=lambda i: i % 5,
) -> np.recarray:
    """Class-dependent sinusoids with random phase/amplitude plus noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(EPOCH_SAMPLES) / 100.0
    out = np.recarray(n, dtype=STORE_RECORD)
    out.subject_id, out.night, out.epoch_index = subject_id, night, np.arange(n)
    for i in range(n):
        stage = stage_of(i)
        amp = rng.uniform(15.0, 25.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        x = amp * np.sin(2 * np.pi * freqs[stage] * t + phase)
        x = x + rng.normal(0.0, 0.3 * amp, size=EPOCH_SAMPLES)
        out.stage[i] = stage
        out.samples[i] = x.astype(np.float32)
    return out


def join_epochs(*parts: np.ndarray) -> np.recarray:
    """One record array of several, in order."""
    return np.concatenate(parts).view(np.recarray)


def claim_tensor_length(raw: bytes, name: str, length: int) -> bytes:
    """Rewrite the payload length in one float32 tensor's directory entry."""
    raw = bytearray(raw)
    encoded = name.encode("ascii")
    pos = raw.find(bytes([len(encoded)]) + encoded) + 1 + len(encoded)
    rank = raw[pos]
    length_pos = pos + 1 + 4 * rank + 1 + 8  # skip rank, dims, dtype, offset
    raw[length_pos : length_pos + 8] = length.to_bytes(8, "little")
    return bytes(raw)


@contextmanager
def allocation_peak():
    """Trace the block with tracemalloc; the yielded list receives the peak
    bytes allocated in it once the block ends."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def mutate(data, files: dict[str, tuple[bytes, int]]) -> bytes:
    """Truncate, bit-flip or splice one of `files` ({name: (bytes, header
    length)}), with positions drawn by hypothesis's `data`; half of the
    positions fall in the header."""

    def position(raw, head):
        return data.draw(st.one_of(st.integers(0, head - 1), st.integers(0, len(raw) - 1)))

    raw, head = files[data.draw(st.sampled_from(sorted(files)))]
    mutation = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if mutation == "truncate":
        return raw[: position(raw, head)]
    if mutation == "flip":
        mutant = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4))):
            mutant[position(raw, head)] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(mutant)
    other, other_head = files[data.draw(st.sampled_from(sorted(files)))]
    return raw[: position(raw, head)] + other[position(other, other_head) :]


OVERFIT_SEED = 3
OVERFIT_DATA_SEED = 7
