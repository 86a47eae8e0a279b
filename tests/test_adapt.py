import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep.epochs import SleepStage
from edgesleep.training import TrainConfig, TrainingError, evaluate_epochs, fit, split_adapt

from helpers import SYNTH_FREQS, join_epochs, make_synth_epochs


class TestSplitAdapt:
    def test_ten_percent_split(self):
        epochs = make_synth_epochs(100, seed=30)
        adapt_rows, holdout = split_adapt(epochs, np.arange(100), fraction=0.10, seed=1)
        assert len(adapt_rows) == 10
        assert len(holdout) == 90

    def test_stratified_counts(self):
        epochs = make_synth_epochs(100, seed=31, stage_of=lambda i: 0 if i < 60 else 2)
        adapt_rows, _ = split_adapt(epochs, np.arange(100), fraction=0.10, stratified=True, seed=2)
        stages = epochs.stage[adapt_rows].tolist()
        assert stages.count(SleepStage.WAKE) == 6
        assert stages.count(SleepStage.N2) == 4

    def test_empty_adapt_set_rejected(self):
        epochs = make_synth_epochs(3, seed=32)
        with pytest.raises(TrainingError, match="selects no"):
            split_adapt(epochs, np.arange(3), fraction=0.10, seed=3)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_empty_holdout_rejected(self, stratified):
        epochs = make_synth_epochs(20, seed=32)
        with pytest.raises(TrainingError, match="leaves no holdout epochs from 20"):
            split_adapt(epochs, np.arange(20), fraction=0.99, stratified=stratified, seed=3)

    def test_bad_fraction_rejected(self):
        epochs = make_synth_epochs(10, seed=33)
        with pytest.raises(TrainingError, match="fraction"):
            split_adapt(epochs, np.arange(10), fraction=1.5)

    @given(
        n=st.integers(10, 120),
        fraction=st.floats(0.05, 0.5),
        stratified=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, fraction, stratified, seed):
        epochs = make_synth_epochs(n, seed=seed)
        if round(fraction * n) == 0 and not stratified:
            return
        rows = np.random.default_rng(seed).permutation(n)
        try:
            adapt_rows, holdout = split_adapt(
                epochs, rows, fraction=fraction, stratified=stratified, seed=seed
            )
        except TrainingError:
            return  # legitimately empty selection
        assert sorted(np.concatenate([adapt_rows, holdout]).tolist()) == list(range(n))
        assert set(adapt_rows.tolist()).isdisjoint(holdout.tolist())
        position = np.argsort(rows)  # where each row lies in rows
        for part in (adapt_rows, holdout):
            assert (np.diff(position[part]) > 0).all()  # in the order given

    @pytest.mark.parametrize("stratified", [False, True])
    def test_selection_does_not_depend_on_where_the_rows_lie(self, stratified):
        subject = make_synth_epochs(40, seed=34, subject_id=2)
        store = join_epochs(make_synth_epochs(7, seed=35, subject_id=1), subject)
        rows = np.flatnonzero(store.subject_id == 2)
        alone = split_adapt(subject, np.arange(40), fraction=0.2, stratified=stratified, seed=6)
        within = split_adapt(store, rows, fraction=0.2, stratified=stratified, seed=6)
        for a, w in zip(alone, within):
            assert np.array_equal(rows[a], w)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_stratified_fractions_track_subject(self, seed):
        rng = np.random.default_rng(seed)
        stages = rng.integers(0, 5, size=200)
        epochs = make_synth_epochs(200, seed=seed, stage_of=lambda i: int(stages[i]))
        adapt_rows, _ = split_adapt(
            epochs, np.arange(200), fraction=0.10, stratified=True, seed=seed
        )
        tolerance = 1.0 / len(adapt_rows)
        for stage in range(5):
            subject_frac = (stages == stage).sum() / len(stages)
            adapt_frac = (stages[adapt_rows] == stage).sum() / len(adapt_rows)
            assert abs(adapt_frac - subject_frac) <= tolerance + 1e-12


class TestFineTune:
    def test_zero_epochs_is_identity(self, overfit_run):
        params, config = overfit_run["params"], overfit_run["config"]
        tuned = fit(
            params, config, overfit_run["data"], np.arange(10), [], TrainConfig(max_epochs=0)
        )[0]
        assert all(np.array_equal(tuned[n], params[n]) for n in params.names())

    def test_deterministic(self, overfit_run):
        params, config = overfit_run["params"], overfit_run["config"]
        data, rows = overfit_run["data"], np.arange(16)
        tc = TrainConfig(max_epochs=2, batch_size=8, seed=10)
        a = fit(params, config, data, rows, [], tc)[0]
        b = fit(params, config, data, rows, [], tc)[0]
        assert all(np.array_equal(a[n], b[n]) for n in a.names())

    def test_empty_adapt_set_rejected(self, overfit_run):
        with pytest.raises(TrainingError, match="empty"):
            fit(
                overfit_run["params"], overfit_run["config"], overfit_run["data"], np.arange(0),
                [], TrainConfig(),
            )

    def test_adaptation_helps_on_shifted_subject(self, overfit_run):
        """A subject whose stage->frequency mapping is cyclically permuted
        relative to the training distribution: adaptation must recover
        accuracy on the held-out 90%."""
        params, config = overfit_run["params"], overfit_run["config"]
        permuted = {s: SYNTH_FREQS[(s + 1) % 5] for s in range(5)}
        subject = make_synth_epochs(100, seed=40, subject_id=9, freqs=permuted)
        adapt_rows, holdout = split_adapt(subject, np.arange(100), fraction=0.10, seed=11)
        _, acc_before = evaluate_epochs(params, config, subject, holdout)
        tuned = fit(params, config, subject, adapt_rows, [], TrainConfig(max_epochs=20, seed=11))[0]
        _, acc_after = evaluate_epochs(tuned, config, subject, holdout)
        assert acc_before < 0.3  # the permutation breaks the base model
        assert acc_after > acc_before
