import numpy as np
import pytest

from edgesleep.epochs import write_store
from edgesleep.model import ArchConfig, init_params
from edgesleep.training import TrainConfig, fit

from helpers import OVERFIT_DATA_SEED, OVERFIT_SEED, make_synth_epochs


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
