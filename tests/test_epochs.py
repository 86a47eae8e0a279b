import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep.edf import RawAnnotation
from edgesleep.epochs import (
    EPOCH_SAMPLES,
    DegenerateEpochError,
    PipelineError,
    SleepStage,
    StoreError,
    class_distribution,
    map_label,
    read_store,
    segment_epochs,
    standardize,
    trim_wake,
    write_store,
)

from conftest import join_epochs, make_synth_epochs
from oracles import RAW_LABELS, random_annotation_sequence, reference_pipeline


def ann(onset, duration, text):
    return RawAnnotation(onset=float(onset), duration=float(duration), text=text)


def noise(seconds, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=seconds * 100).astype(np.float32)


class TestMapLabel:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Sleep stage W", SleepStage.WAKE),
            ("Sleep stage 1", SleepStage.N1),
            ("Sleep stage 2", SleepStage.N2),
            ("Sleep stage 3", SleepStage.N3),
            ("Sleep stage 4", SleepStage.N3),
            ("Sleep stage R", SleepStage.REM),
        ],
    )
    def test_stage_labels(self, text, expected):
        assert map_label(text) is expected

    @pytest.mark.parametrize("text", ["Movement time", "Sleep stage ?"])
    def test_discards(self, text):
        assert map_label(text) is None

    def test_unrecognized_is_hard_error(self):
        with pytest.raises(PipelineError, match="Sleep stage X"):
            map_label("Sleep stage X")


class TestSegment:
    def test_uniform_tiling(self):
        night = segment_epochs(noise(90), [ann(0, 90, "Sleep stage 2")])
        assert [e.stage for e in night.epochs] == [SleepStage.N2] * 3
        assert [e.epoch_index for e in night.epochs] == [0, 1, 2]

    def test_discard_window_dropped(self):
        night = segment_epochs(
            noise(60), [ann(0, 30, "Sleep stage W"), ann(30, 30, "Movement time")]
        )
        assert [(e.epoch_index, e.stage) for e in night.epochs] == [(0, SleepStage.WAKE)]

    def test_duration_not_multiple(self):
        with pytest.raises(PipelineError, match="not a multiple"):
            segment_epochs(noise(90), [ann(0, 45, "Sleep stage 2")])

    def test_onset_off_grid(self):
        with pytest.raises(PipelineError, match="grid"):
            segment_epochs(noise(90), [ann(15, 30, "Sleep stage 2")])

    def test_overrun_cut_at_signal_end(self):
        night = segment_epochs(noise(60), [ann(0, 90, "Sleep stage 2")])
        assert [e.stage for e in night.epochs] == [SleepStage.N2] * 2
        assert [e.epoch_index for e in night.epochs] == [0, 1]

    def test_overrun_cut_at_last_whole_window(self):
        samples = noise(75)  # two whole windows and a 15 s tail
        night = segment_epochs(
            samples, [ann(0, 30, "Sleep stage W"), ann(30, 60, "Sleep stage R")]
        )
        assert [(e.epoch_index, e.stage) for e in night.epochs] == [
            (0, SleepStage.WAKE), (1, SleepStage.REM)
        ]
        assert np.array_equal(night.epochs[1].samples, samples[EPOCH_SAMPLES : 2 * EPOCH_SAMPLES])

    @pytest.mark.parametrize("seconds, onset", [(60, 60), (75, 60), (60, 90)])
    def test_onset_at_or_past_last_whole_window_rejected(self, seconds, onset):
        with pytest.raises(PipelineError, match="starts past the signal's last whole window"):
            segment_epochs(
                noise(seconds), [ann(0, 30, "Sleep stage 2"), ann(onset, 30, "Sleep stage ?")]
            )

    def test_overrun_and_a_second_annotation_on_the_last_window_rejected(self):
        with pytest.raises(PipelineError, match="window 1 covered by more than one"):
            segment_epochs(
                noise(60), [ann(0, 90, "Sleep stage 2"), ann(30, 30, "Sleep stage W")]
            )

    def test_overlap_rejected(self):
        with pytest.raises(PipelineError, match="more than one"):
            segment_epochs(
                noise(60), [ann(0, 60, "Sleep stage 2"), ann(30, 30, "Sleep stage W")]
            )

    @pytest.mark.parametrize(
        "first, second",
        [
            ("Movement time", "Sleep stage 2"),
            ("Sleep stage 2", "Movement time"),
            ("Sleep stage ?", "Movement time"),
        ],
    )
    def test_discarded_window_covered_twice_rejected(self, first, second):
        with pytest.raises(PipelineError, match="window 1 covered by more than one"):
            segment_epochs(noise(90), [ann(30, 30, first), ann(30, 60, second)])

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"subject_id": 70000}, "subject_id 70000 out of range"),
            ({"subject_id": -1}, "subject_id -1 out of range"),
            ({"night": 300}, "night 300 out of range"),
        ],
    )
    def test_fields_must_fit_the_store(self, fields, error):
        # a numpy cast would wrap 70000 to 4464 without a word
        with pytest.raises(StoreError, match=error):
            segment_epochs(noise(30), [ann(0, 30, "Sleep stage 2")], **fields)

    def test_largest_fields_kept(self):
        night = segment_epochs(
            noise(30), [ann(0, 30, "Sleep stage 2")], subject_id=65535, night=255
        )
        assert (night.epochs[0].subject_id, night.epochs[0].night) == (65535, 255)

    def test_non_finite_sample_rejected(self):
        samples = noise(90).astype(np.float64)
        samples[3100] = 1e300  # finite in float64, infinite as a stored float32
        with np.errstate(over="ignore"), pytest.raises(PipelineError, match="non-finite"):
            segment_epochs(samples, [ann(0, 90, "Sleep stage 2")])
        samples[3100] = np.nan
        with pytest.raises(PipelineError, match="non-finite"):
            segment_epochs(samples, [ann(0, 90, "Sleep stage 2")])
        # a discarded window never becomes an epoch, so its samples go unread
        night = segment_epochs(
            samples,
            [ann(0, 30, "Sleep stage 2"), ann(30, 30, "Movement time"), ann(60, 30, "Sleep stage 2")],
        )
        assert [e.epoch_index for e in night.epochs] == [0, 2]

    def test_samples_sliced_per_window(self):
        samples = noise(60, seed=5)
        night = segment_epochs(samples, [ann(0, 60, "Sleep stage R")])
        assert np.array_equal(night.epochs[1].samples, samples[EPOCH_SAMPLES:])


def wake_night(pattern):
    """pattern: list of (count, stage) runs -> SubjectNight via segmentation."""
    annotations = []
    onset = 0
    for count, label in pattern:
        annotations.append(ann(onset, 30 * count, label))
        onset += 30 * count
    return segment_epochs(noise(onset), annotations)


class TestTrimWake:
    def test_long_tails_trimmed(self):
        night = wake_night(
            [(200, "Sleep stage W"), (100, "Sleep stage 2"), (200, "Sleep stage W")]
        )
        trimmed = trim_wake(night)
        assert len(trimmed.epochs) == 60 + 100 + 60
        stages = [e.stage for e in trimmed.epochs]
        assert stages[:60] == [SleepStage.WAKE] * 60
        assert stages[60:160] == [SleepStage.N2] * 100

    def test_within_budget_unchanged(self):
        night = wake_night(
            [(10, "Sleep stage W"), (50, "Sleep stage 2"), (10, "Sleep stage W")]
        )
        assert np.array_equal(trim_wake(night).epochs, night.epochs)

    def test_pure_wake_keeps_first_hour_half(self):
        night = wake_night([(100, "Sleep stage W")])
        trimmed = trim_wake(night)
        assert len(trimmed.epochs) == 60
        assert np.array_equal(trimmed.epochs, night.epochs[:60])

    def test_empty_night_rejected(self):
        night = wake_night([(1, "Sleep stage W")])
        with pytest.raises(PipelineError):
            trim_wake(type(night)(subject_id=0, night=0, epochs=()))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_never_removes_sleep_or_interior_wake(self, seed):
        rng = np.random.default_rng(seed)
        pattern = [
            (int(rng.integers(1, 90)), RAW_LABELS[rng.integers(0, 6)])
            for _ in range(rng.integers(1, 6))
        ]
        night = wake_night(pattern)
        trimmed = trim_wake(night)
        kept = {e.epoch_index for e in trimmed.epochs}
        non_wake = [i for i, e in enumerate(night.epochs) if e.stage != SleepStage.WAKE]
        if non_wake:
            for pos in range(non_wake[0], non_wake[-1] + 1):
                assert night.epochs[pos].epoch_index in kept


class TestStandardize:
    def test_toy_vector(self):
        out = standardize(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_already_standard_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=EPOCH_SAMPLES)
        x = (x - x.mean()) / x.std()
        out = standardize(x)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_bitwise_equal_to_mean_and_std(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(loc=rng.uniform(-50, 50, size=(9, 1)), size=(9, EPOCH_SAMPLES))
        for x in (rows, rows.astype(np.float32)):
            x64 = x.astype(np.float64)
            want = (x64 - x64.mean(axis=-1, keepdims=True)) / x64.std(axis=-1, keepdims=True)
            assert np.array_equal(standardize(x), want)

    def test_flat_epoch_rejected(self):
        with pytest.raises(DegenerateEpochError):
            standardize(np.full(EPOCH_SAMPLES, 5.0))

    def test_flat_float64_with_inexact_mean_rejected(self):
        # the mean of 3000 copies of 0.1 is off by a rounding step, so the
        # std is about 3e-17 rather than 0; a flat row is still flat
        with pytest.raises(DegenerateEpochError):
            standardize(np.full(EPOCH_SAMPLES, 0.1))

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_any_constant_float64_row_rejected(self, value):
        rows = np.random.default_rng(5).normal(size=(2, EPOCH_SAMPLES))
        rows[1] = value
        with pytest.raises(DegenerateEpochError):
            standardize(rows[1])
        with pytest.raises(DegenerateEpochError):
            standardize(rows)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, value):
        rows = np.random.default_rng(8).normal(size=(3, EPOCH_SAMPLES))
        rows[1, 1234] = value
        with pytest.raises(DegenerateEpochError, match="non-finite"):
            standardize(rows[1])
        with pytest.raises(DegenerateEpochError, match="non-finite"):
            standardize(rows.astype(np.float32))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_row_rejected_without_a_numpy_warning(self, value):
        rows = np.random.default_rng(9).normal(size=(2, EPOCH_SAMPLES))
        rows[0, 17] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEpochError, match="non-finite"):
                standardize(rows[0])
            with pytest.raises(DegenerateEpochError, match="non-finite"):
                standardize(rows)

    def test_underflowing_variance_rejected(self):
        # two distinct values whose squared spread underflows: max != min,
        # yet the std is exactly 0
        with pytest.raises(DegenerateEpochError):
            standardize(np.tile([0.0, 5e-324], EPOCH_SAMPLES // 2))

    def test_rows_scale_alone_bitwise(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(loc=rng.uniform(-50, 50, size=(40, 1)), size=(40, EPOCH_SAMPLES))
        rows = rows.astype(np.float32)
        want = np.stack([standardize(r) for r in rows])
        assert np.array_equal(standardize(rows), want)
        assert np.array_equal(standardize(rows[7:19]), want[7:19])

    def test_flat_row_rejected(self):
        rows = np.random.default_rng(4).normal(size=(3, EPOCH_SAMPLES))
        rows[1] = 5.0
        with pytest.raises(DegenerateEpochError):
            standardize(rows)

    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-4, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_zero_mean_unit_std(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = rng.normal(loc=rng.uniform(-10, 10), scale=scale, size=500)
        out = standardize(x)
        assert abs(out.mean()) <= 1e-6
        assert abs(out.std() - 1.0) <= 1e-5


class TestDistribution:
    def test_all_wake(self):
        epochs = make_synth_epochs(10, stage_of=lambda i: 0)
        dist = class_distribution(epochs)
        assert dist.counts[0] == 10 and dist.fractions[0] == 1.0

    def test_mixed_fractions(self):
        epochs = make_synth_epochs(4, stage_of=lambda i: 1 if i < 3 else 4)
        dist = class_distribution(epochs)
        assert dist.counts[SleepStage.N1] == 3
        assert dist.fractions[SleepStage.N1] == 0.75
        assert dist.fractions[SleepStage.REM] == 0.25

    def test_fractions_sum_to_one(self):
        dist = class_distribution(make_synth_epochs(137))
        assert sum(dist.counts) == dist.total == 137
        assert abs(sum(dist.fractions) - 1.0) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            class_distribution([])

    def test_stage_column_counts_like_records(self):
        epochs = make_synth_epochs(23, stage_of=lambda i: (i * 7) % 5 if i % 3 else 2)
        assert class_distribution(epochs.stage) == class_distribution(epochs)


# SLPE v1 written out independently of the package: a 16-byte header, then
# packed records.
RAW_HEADER = "<4sHHII"
RAW_RECORD = np.dtype(
    [("subject", "<u2"), ("night", "u1"), ("stage", "u1"), ("index", "<u4"), ("x", "<f4", 3000)]
)


def raw_store(path, n=3, seed=0, **fields):
    """Write n valid raw records, then set `fields` on record 1; returns them."""
    records = np.zeros(n, RAW_RECORD)
    records["stage"] = np.arange(n) % 5
    records["x"] = np.random.default_rng(seed).normal(size=(n, EPOCH_SAMPLES))
    for name, value in fields.items():
        records[name][1] = value
    path.write_bytes(struct.pack(RAW_HEADER, b"SLPE", 1, 100, 3000, n) + records.tobytes())
    return records


class TestStore:
    def test_largest_field_values_round_trip(self, tmp_path):
        path = tmp_path / "max.slpe"
        raw = raw_store(path, subject=65535, night=255, index=2**32 - 1)
        loaded = read_store(path)
        e = loaded[1]
        assert (e.subject_id, e.night, int(e.stage), e.epoch_index) == (65535, 255, 1, 2**32 - 1)
        assert np.array_equal(np.array([e.samples for e in loaded]), raw["x"])
        write_store(loaded, tmp_path / "again.slpe")
        assert (tmp_path / "again.slpe").read_bytes() == path.read_bytes()

    def test_stage_byte_5_rejected(self, tmp_path):
        path = tmp_path / "stage5.slpe"
        raw_store(path, stage=5)
        with pytest.raises(StoreError, match="invalid stage byte 5"):
            read_store(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, value):
        path = tmp_path / "nan.slpe"
        raw = raw_store(path)
        raw["x"][1, 2999] = value
        path.write_bytes(path.read_bytes()[:16] + raw.tobytes())
        with pytest.raises(PipelineError, match="non-finite"):
            read_store(path)

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.slpe"
        write_store(make_synth_epochs(0), path)
        assert path.read_bytes() == struct.pack(RAW_HEADER, b"SLPE", 1, 100, 3000, 0)
        assert len(read_store(path)) == 0

    def test_append_gives_the_bytes_of_one_write(self, tmp_path):
        a = make_synth_epochs(4, seed=12, subject_id=1)
        b = make_synth_epochs(3, seed=13, subject_id=2, night=2)
        appended, whole = tmp_path / "appended.slpe", tmp_path / "whole.slpe"
        write_store(a, appended)
        write_store(b, appended, append=True)
        write_store(join_epochs(a, b), whole)
        assert appended.read_bytes() == whole.read_bytes()

    def test_append_onto_a_corrupt_store_writes_nothing(self, tmp_path):
        path = tmp_path / "corrupt.slpe"
        write_store(make_synth_epochs(2), path)
        corrupt = path.read_bytes()[:-1]
        path.write_bytes(corrupt)
        with pytest.raises(StoreError, match="truncated"):
            write_store(make_synth_epochs(1), path, append=True)
        assert path.read_bytes() == corrupt

    def test_round_trip(self, tmp_path):
        epochs = make_synth_epochs(5, seed=11, subject_id=3, night=2)
        path = tmp_path / "five.slpe"
        write_store(epochs, path)
        loaded = read_store(path)
        assert len(loaded) == 5
        for a, b in zip(epochs, loaded):
            assert np.array_equal(a.samples, b.samples)
            assert (a.stage, a.subject_id, a.night, a.epoch_index) == (
                b.stage,
                b.subject_id,
                b.night,
                b.epoch_index,
            )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.slpe"
        write_store(make_synth_epochs(1), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="magic"):
            read_store(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.slpe"
        write_store(make_synth_epochs(1), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="version"):
            read_store(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "cut.slpe"
        write_store(make_synth_epochs(2), path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(StoreError, match="truncated"):
            read_store(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.slpe"
        write_store(make_synth_epochs(1), path)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(StoreError, match="trailing"):
            read_store(path)

    def test_several_stores_read_into_one_array_in_place(self, two_subject_stores):
        """Each store is read straight into its slice of the one array,
        with no per-store temporary."""
        tracemalloc.start()
        try:
            records = read_store(*two_subject_stores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * records.nbytes
        joined = join_epochs(*map(read_store, two_subject_stores))
        assert records.tobytes() == joined.tobytes()

    @pytest.mark.parametrize(
        "count, error",
        [
            (2**31, "truncated: header declares 2147483648 epochs"),
            (3, "truncated: header declares 3 epochs"),
            (1, "trailing"),
        ],
    )
    def test_header_count_against_file_size(self, tmp_path, count, error):
        path = tmp_path / "count.slpe"
        write_store(make_synth_epochs(2), path)
        raw = bytearray(path.read_bytes())
        raw[12:16] = count.to_bytes(4, "little")  # epoch_count, after magic/version/rate/len
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match=error):
            read_store(path)


class TestPipelineAgainstReference:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_filter(self, seed):
        rng = np.random.default_rng(seed)
        triples, total_seconds = random_annotation_sequence(rng)
        samples = np.random.default_rng(seed ^ 0xFF).normal(size=total_seconds * 100)
        annotations = [ann(o, d, t) for o, d, t in triples]
        night = segment_epochs(samples, annotations)
        if len(night.epochs):  # trim requires a nonempty night
            night = trim_wake(night)
        got = [(e.epoch_index, int(e.stage)) for e in night.epochs]
        assert got == reference_pipeline(triples)
