"""Subject-specific fine-tuning.

A small slice of one subject's recordings is carved off for adaptation and
the whole model is retrained on it; evaluation then runs on the remainder.
The stratified mode fixes the per-class share of the adaptation slice so a
short night cannot skew it.
"""

from __future__ import annotations

import numpy as np

from .model import ArchConfig, ModelParams
from .training import TrainConfig, TrainingError, fit

ADAPT_DEFAULT_EPOCHS = 20


def split_adapt(
    epochs: np.ndarray,
    rows: np.ndarray,
    fraction: float = 0.10,
    stratified: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition one subject's records epochs[rows] into (adapt_rows,
    holdout_rows).

    Uniform mode samples round(fraction * n) rows; stratified mode samples
    round(fraction * n_c) from each class present, visiting the classes in
    order of first appearance.  Ties round half-to-even.  The two parts are
    disjoint and exhaustive subsets of rows, each in the order given.
    """
    if not 0 < fraction < 1:
        raise TrainingError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(rows)
    if not n:
        raise TrainingError("no epochs to split")
    rng = np.random.default_rng(seed)
    picked = np.zeros(n, dtype=bool)
    if stratified:
        stages = epochs["stage"][rows]
        for stage in dict.fromkeys(stages.tolist()):  # in order of first appearance
            indices = np.flatnonzero(stages == stage)
            take = round(fraction * len(indices))
            picked[indices[rng.permutation(len(indices))[:take]]] = True
    else:
        picked[rng.permutation(n)[: round(fraction * n)]] = True
    if not picked.any():
        raise TrainingError(f"fraction {fraction} selects no adaptation epochs from {n}")
    return rows[picked], rows[~picked]


def fine_tune(
    params: ModelParams,
    config: ArchConfig,
    epochs: np.ndarray,
    rows: np.ndarray,
    tc: TrainConfig,
) -> ModelParams:
    """Continue training every tensor on the adaptation records epochs[rows]
    only.  max_epochs=0 returns the parameters unchanged.
    """
    if not len(rows):
        raise TrainingError("empty adaptation set")
    tuned, _ = fit(params, config, epochs, rows, [], tc)
    return tuned
