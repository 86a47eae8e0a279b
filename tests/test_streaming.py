import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep.epochs import EPOCH_SAMPLES, SleepStage, standardize
from edgesleep.model import ArchConfig, forward, init_params, predict
from edgesleep.streaming import (
    StageDecision,
    decision_line,
    latency_line,
    make_predictor,
    stream_classify,
)

from conftest import make_synth_epochs


@pytest.fixture(scope="module")
def predictor():
    config = ArchConfig(width_multiplier=0.25)
    params = init_params(config, 80)
    return make_predictor(params, config), params, config


def collect(blocks, predict):
    decisions = []
    stats = stream_classify(blocks, predict, decisions.append)
    return decisions, stats


class TestWindowing:
    def test_exactly_one_window(self, predictor):
        predict = predictor[0]
        values = np.random.default_rng(0).normal(size=EPOCH_SAMPLES)
        decisions, (count, leftover) = collect([values], predict)
        assert count == len(decisions) == 1
        assert leftover == 0
        assert decisions[0].epoch_index == 0

    def test_partial_window_buffers(self, predictor):
        predict = predictor[0]
        values = np.random.default_rng(1).normal(size=7499)
        decisions, (count, leftover) = collect([values], predict)
        assert count == 2
        assert leftover == 1499
        assert [d.epoch_index for d in decisions] == [0, 1]

    def test_flat_window_is_unscorable_not_fatal(self, predictor):
        predict = predictor[0]
        values = np.concatenate(
            [np.zeros(EPOCH_SAMPLES), np.random.default_rng(2).normal(size=EPOCH_SAMPLES)]
        )
        decisions, (count, _) = collect([values], predict)
        assert count == 2
        assert decisions[0].unscorable and decisions[0].probs is None
        assert not decisions[1].unscorable

    def test_decisions_emitted_in_order(self, predictor):
        predict = predictor[0]
        values = np.random.default_rng(3).normal(size=EPOCH_SAMPLES * 5)
        decisions, _ = collect([values], predict)
        assert [d.epoch_index for d in decisions] == list(range(5))


def one_sample_blocks(values):
    return [values[i : i + 1] for i in range(len(values))]


def split_blocks(values, sizes):
    """Cut values into consecutive blocks, cycling through sizes."""
    blocks, pos, k = [], 0, 0
    while pos < len(values):
        blocks.append(values[pos : pos + sizes[k % len(sizes)]])
        pos += len(blocks[-1])
        k += 1
    return blocks


def same_decisions(a, b):
    assert [(d.epoch_index, d.stage) for d in a] == [(d.epoch_index, d.stage) for d in b]
    for x, y in zip(a, b):
        assert (x.probs is None and y.probs is None) or np.array_equal(x.probs, y.probs)


class TestBlockFrames:
    @settings(max_examples=25, deadline=None)
    @given(
        n_windows=st.integers(0, 3),
        tail=st.integers(0, EPOCH_SAMPLES - 1),
        flat=st.lists(st.booleans(), min_size=3, max_size=3),
        sizes=st.lists(st.sampled_from([1, 2999, 3000, 3001, None]), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_any_block_split_matches_one_sample_frames(
        self, predictor, n_windows, tail, flat, sizes, seed
    ):
        predict = predictor[0]
        values = np.random.default_rng(seed).normal(size=n_windows * EPOCH_SAMPLES + tail)
        for k in range(n_windows):
            if flat[k]:
                values[k * EPOCH_SAMPLES : (k + 1) * EPOCH_SAMPLES] = 1.5
        sizes = [(len(values) or 1) if s is None else s for s in sizes]
        per_sample, per_sample_stats = collect(one_sample_blocks(values), predict)
        blocked, blocked_stats = collect(split_blocks(values, sizes), predict)
        assert blocked_stats == per_sample_stats == (n_windows, tail)
        same_decisions(blocked, per_sample)
        assert [d.unscorable for d in blocked] == flat[:n_windows]

    def test_decision_emitted_when_last_sample_arrives(self, predictor):
        predict = predictor[0]
        values = np.random.default_rng(4).normal(size=2 * EPOCH_SAMPLES)
        pulled = []

        def source():
            for block in split_blocks(values, [1000]):
                pulled.append(block)
                yield block

        emitted_after = []
        stream_classify(source(), predict, lambda d: emitted_after.append(len(pulled)))
        assert emitted_after == [3, 6]

    def test_decision_emitted_before_rest_of_block_is_copied(self, predictor):
        predict = predictor[0]
        slices = []

        class SliceCounting(np.ndarray):
            def __getitem__(self, key):
                slices.append(key)
                return np.asarray(self)[key]

        values = np.random.default_rng(9).normal(size=2 * EPOCH_SAMPLES + 500)
        slices_at_decision = []
        stream_classify(
            [values.view(SliceCounting)],
            predict,
            lambda d: slices_at_decision.append(len(slices)),
        )
        assert slices_at_decision == [1, 2]

    def test_block_completing_several_windows(self, predictor):
        predict = predictor[0]
        values = np.random.default_rng(5).normal(size=3 * EPOCH_SAMPLES + 10)
        blocked, stats = collect([values], predict)
        reference, reference_stats = collect(one_sample_blocks(values), predict)
        assert stats == reference_stats == (3, 10)
        same_decisions(blocked, reference)

    def test_float32_blocks_match_float64_samples(self, predictor):
        """A float32 block (a stored epoch's dtype) streams like the same
        samples as float64, one at a time."""
        predict = predictor[0]
        values = np.random.default_rng(8).normal(size=EPOCH_SAMPLES + 3).astype(np.float32)
        reference, reference_stats = collect(one_sample_blocks(values.astype(np.float64)), predict)
        for sizes in ([len(values)], [2000], [1]):
            decisions, stats = collect(split_blocks(values, sizes), predict)
            assert stats == reference_stats == (1, 3)
            same_decisions(decisions, reference)


class TestLatencyLine:
    def test_summary_fields(self):
        line = latency_line([0.001, 0.002, 0.004])
        name, *pairs = line.split(" ")
        fields = dict(p.split("=") for p in pairs)
        assert name == "latency_ms"
        assert fields["count"] == "3"
        assert float(fields["p50"]) == pytest.approx(2.0)
        assert float(fields["p99"]) == pytest.approx(3.96)
        assert float(fields["max"]) == pytest.approx(4.0)

    def test_no_decisions(self):
        assert latency_line([]) == "latency_ms count=0 p50=nan p99=nan max=nan"


class TestBatchEquivalence:
    def test_streamed_probs_equal_batch_forward_bitwise(self, predictor):
        predict, params, config = predictor
        epochs = make_synth_epochs(4, seed=81)
        replay = np.concatenate([e.samples for e in epochs])
        decisions, _ = collect([replay], predict)
        for e, d in zip(epochs, decisions):
            batch_probs, _ = forward(params, standardize(e.samples), config)
            assert np.array_equal(d.probs, batch_probs)
            assert d.stage == SleepStage(int(np.argmax(batch_probs)))

    def test_streamed_probs_equal_chunked_predict_bitwise(self, predictor):
        predict_window, params, config = predictor
        epochs = make_synth_epochs(35, seed=82)
        replay = np.concatenate([e.samples for e in epochs])
        decisions, _ = collect([replay], predict_window)
        batch = predict(params, config, epochs.samples, np.arange(len(epochs)))
        assert len(decisions) == len(epochs)
        for d, probs in zip(decisions, batch):
            assert np.array_equal(d.probs, probs)


class TestDecisionLine:
    def test_format(self):
        probs = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        line = decision_line(
            StageDecision(epoch_index=7, stage=SleepStage.N2, probs=probs, latency_s=0.01)
        )
        fields = line.split("\t")
        assert fields[0] == "7"
        assert fields[1] == "N2"
        assert fields[2:] == ["0.100000", "0.200000", "0.300000", "0.250000", "0.150000"]

    def test_unscorable_format(self):
        line = decision_line(
            StageDecision(epoch_index=3, stage=None, probs=None, latency_s=0.0)
        )
        assert line.split("\t") == ["3", "unscorable", "nan", "nan", "nan", "nan", "nan"]
