import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep.edf import physical_map
from edgesleep.epochs import EPOCH_SAMPLES, SleepStage, standardize
from edgesleep.model import ArchConfig, forward, init_params, predict
from edgesleep.streaming import (
    StageDecision,
    StreamGapError,
    decision_line,
    latency_line,
    make_predictor,
    stream_classify,
)

from helpers import make_synth_epochs


@pytest.fixture(scope="module")
def predictor():
    config = ArchConfig(width_multiplier=0.25)
    params = init_params(config, 80)
    return make_predictor(params, config), params, config


def same(arr):
    return arr


def collect(blocks, predict):
    """Stream each sample block as the bytes of one read, in the blocks' dtype."""
    dtype = blocks[0].dtype if len(blocks) else np.dtype(np.float64)
    assert all(block.dtype == dtype for block in blocks)
    decisions = []
    stats = stream_classify([b.tobytes() for b in blocks], dtype, same, predict, decisions.append)
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

    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000], ids=["signaling", "quiet"])
    def test_nan_window_is_unscorable_without_a_warning(self, predictor, bits):
        values = np.random.default_rng(4).normal(size=2 * EPOCH_SAMPLES).astype("<f4")
        values.view("<u4")[1700] = bits
        decisions = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = stream_classify(
                [values.tobytes()], values.dtype, same, predictor[0], decisions.append
            )
        assert stats == (2, 0)
        assert [d.unscorable for d in decisions] == [True, False]

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
                yield block.tobytes()

        emitted_after = []
        stream_classify(
            source(), values.dtype, same, predict, lambda d: emitted_after.append(len(pulled))
        )
        assert emitted_after == [3, 6]

    def test_decision_emitted_before_rest_of_block_is_copied(self, predictor):
        predict = predictor[0]
        converted = []

        def counting(arr):
            converted.append(len(arr))
            return arr

        values = np.random.default_rng(9).normal(size=2 * EPOCH_SAMPLES + 500)
        converted_at_decision = []
        stream_classify(
            [values.tobytes()],
            values.dtype,
            counting,
            predict,
            lambda d: converted_at_decision.append(len(converted)),
        )
        assert converted_at_decision == [1, 2]
        assert converted == [EPOCH_SAMPLES, EPOCH_SAMPLES]

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


def feed_format(int16):
    """(dtype, convert) of a float32 feed, or of an int16 feed scaled as
    `edgesleep stream --int16` scales it."""
    if not int16:
        return np.dtype("<f4"), same
    to_physical = physical_map(-2048, 2047, -200.0, 200.0, "test scaling")
    return np.dtype("<i2"), lambda arr: to_physical(arr).astype(np.float32)


class TestByteFeed:
    @settings(max_examples=30, deadline=None)
    @given(
        int16=st.booleans(),
        n_windows=st.integers(0, 2),
        tail=st.integers(0, EPOCH_SAMPLES - 1),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_any_byte_split_matches_one_read(
        self, predictor, int16, n_windows, tail, seed, data
    ):
        predict = predictor[0]
        dtype, convert = feed_format(int16)
        rng = np.random.default_rng(seed)
        size = n_windows * EPOCH_SAMPLES + tail
        if int16:
            values = rng.integers(-2048, 2048, size=size).astype(dtype)
        else:
            values = rng.normal(size=size).astype(dtype)
        feed = values.tobytes()
        cuts = sorted(data.draw(st.lists(st.integers(0, len(feed)), max_size=8)))
        reads = [feed[a:b] for a, b in zip([0, *cuts], [*cuts, len(feed)])]
        whole, split = [], []
        whole_stats = stream_classify([feed], dtype, convert, predict, whole.append)
        split_stats = stream_classify(reads, dtype, convert, predict, split.append)
        assert split_stats == whole_stats == (n_windows, tail)
        same_decisions(split, whole)

    @pytest.mark.parametrize("int16", [False, True])
    def test_trailing_partial_sample_raises_after_the_decisions(self, predictor, int16):
        dtype, convert = feed_format(int16)
        values = np.random.default_rng(10).integers(-2048, 2048, size=EPOCH_SAMPLES + 2)
        feed = values.astype(dtype).tobytes() + b"\x01"
        reads = [feed[i : i + 3] for i in range(0, len(feed), 3)]
        decisions = []
        with pytest.raises(StreamGapError, match="^1 trailing bytes are not a whole sample$"):
            stream_classify(reads, dtype, convert, predictor[0], decisions.append)
        assert [d.epoch_index for d in decisions] == [0]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_probs_format_as_numpy_scalars_do(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(200):
            probs = rng.dirichlet(np.full(5, 0.3)).astype(dtype)
            line = decision_line(
                StageDecision(epoch_index=0, stage=SleepStage.WAKE, probs=probs, latency_s=0.0)
            )
            assert line.split("\t")[2:] == [f"{p:.6f}" for p in probs]

    def test_unscorable_format(self):
        line = decision_line(
            StageDecision(epoch_index=3, stage=None, probs=None, latency_s=0.0)
        )
        assert line.split("\t") == ["3", "unscorable", "nan", "nan", "nan", "nan", "nan"]
