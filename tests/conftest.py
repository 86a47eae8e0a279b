import numpy as np
import pytest

from edgesleep.epochs import EPOCH_SAMPLES, STORE_RECORD, write_store
from edgesleep.model import ArchConfig, init_params
from edgesleep.training import TrainConfig, fit

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


@pytest.fixture(scope="session")
def two_subject_stores(tmp_path_factory):
    """Two stores of 1,000 epochs each, one per subject (ids 0 and 1): a
    cohort big enough that a copy of one subject's records shows in a
    tracemalloc peak."""
    tmp = tmp_path_factory.mktemp("two_subjects")
    paths = [tmp / "subject0.slpe", tmp / "subject1.slpe"]
    for subject, path in enumerate(paths):
        write_store(make_synth_epochs(1000, seed=50 + subject, subject_id=subject), path)
    return paths


def claim_tensor_length(raw: bytes, name: str, length: int) -> bytes:
    """Rewrite the payload length in one float32 tensor's directory entry."""
    raw = bytearray(raw)
    encoded = name.encode("ascii")
    pos = raw.find(bytes([len(encoded)]) + encoded) + 1 + len(encoded)
    rank = raw[pos]
    length_pos = pos + 1 + 4 * rank + 1 + 8  # skip rank, dims, dtype, offset
    raw[length_pos : length_pos + 8] = length.to_bytes(8, "little")
    return bytes(raw)


OVERFIT_SEED = 3
OVERFIT_DATA_SEED = 7


@pytest.fixture(scope="session")
def overfit_run():
    """One 50-epoch training run on the 200-epoch separable set.

    Validation is the training set itself, so the history's val_acc column
    tracks training accuracy per epoch.  Shared by the capacity, adaptation,
    and quantization tests.
    """
    import time

    data = make_synth_epochs(200, seed=OVERFIT_DATA_SEED)
    config = ArchConfig(width_multiplier=0.25)
    tc = TrainConfig(max_epochs=50, seed=OVERFIT_SEED)
    params = init_params(config, OVERFIT_SEED)
    started = time.perf_counter()
    rows = np.arange(len(data))
    best, history = fit(params, config, data, rows, rows, tc)
    seconds = time.perf_counter() - started
    return {
        "params": best,
        "config": config,
        "data": data,
        "history": history,
        "tc": tc,
        "seconds": seconds,
    }
