"""The reference forward agrees with the program's, and the confusion check
accepts exactly the matrices a correct program can give."""

import numpy as np

import reference
from edgesleep import epochs, model

CONFIG = model.ArchConfig()


def test_reference_matches_program_forward():
    rng = np.random.default_rng(0)
    params = model.init_params(CONFIG, 3)
    for name in params.names():
        if params[name].ndim == 1 and not name.endswith("_gain"):
            params.tensors[name] = rng.uniform(-0.05, 0.05, params[name].shape)
    x = rng.normal(0.0, 20.0, (5, 3000)) + 30 * np.sin(np.arange(3000) / rng.uniform(2, 9, (5, 1)))
    want = np.array([model.forward(params, epochs.standardize(row), CONFIG)[0] for row in x])
    assert np.abs(reference.probabilities(params.tensors, x) - want).max() < 1e-12


def test_confusion_fits_only_reachable_matrices():
    probs = np.array([
        [0.9, 0.1, 0.0, 0.0, 0.0],
        [0.1, 0.8, 0.1, 0.0, 0.0],
        [0.0, 0.45, 0.45, 0.1, 0.0],  # ambiguous between N1 and N2
    ])
    labels = np.array([0, 1, 2])
    cm = np.zeros((5, 5), dtype=int)
    cm[0, 0] = cm[1, 1] = 1
    for predicted, fits in ((1, True), (2, True), (3, False)):
        got = cm.copy()
        got[2, predicted] = 1
        assert reference.confusion_fits(got, labels, probs) is fits
    wrong = cm.copy()
    wrong[1, 1], wrong[1, 0], wrong[2, 2] = 0, 1, 1
    assert not reference.confusion_fits(wrong, labels, probs)
