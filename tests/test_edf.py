import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep import edf as edf_mod
from edgesleep.edf import (
    EdfError,
    UnknownChannelError,
    parse_edf,
    physical_map,
    parse_tal,
    read_signal,
)

from helpers import allocation_peak, mutate
from edf_fixtures import SignalSpec, bookkeeping_tal, build_edf, hypnogram_edf, tal
from oracles import tal_text_field_count


def simple_signal(data, label="EEG Fpz-Cz", spr=10):
    return SignalSpec(label=label, samples_per_record=spr, data=np.asarray(data, dtype=np.int16))


@pytest.fixture(scope="module")
def edf_path(tmp_path_factory):
    """A path each test writes its file to before parsing it; module-scoped,
    so hypothesis examples may share it."""
    return tmp_path_factory.mktemp("edf") / "file.edf"


def parse(path, raw: bytes):
    """parse_edf of raw, written to path first."""
    path.write_bytes(raw)
    return parse_edf(path)


class TestHeader:
    def test_round_trip_small_file(self, edf_path):
        data = np.arange(20, dtype=np.int16) - 10
        raw = build_edf([simple_signal(data)], n_records=2)
        with parse(edf_path, raw) as edf:
            assert edf.header.signal_count == 1
            assert edf.header.n_records == 2
            assert edf.header.signals[0].samples_per_record == 10
            assert np.array_equal(edf.read_digital("EEG Fpz-Cz"), data)

    def test_start_date_and_time_kept(self, edf_path):
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1)
        assert raw[168:184] == b"01.01.0100.00.00"
        with parse(edf_path, raw) as edf:
            header = edf.header
        assert (header.start_date, header.start_time) == ("01.01.01", "00.00.00")

    def test_version_field_accepted(self, edf_path):
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1)
        assert raw[0:8] == b"0       "
        with parse(edf_path, raw) as edf:
            assert edf.header.n_records == 1

    def test_truncated_signal_headers(self, edf_path):
        # Claims two signals but carries header bytes for one.
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1)
        doctored = raw[:252] + b"2   " + raw[256 : 256 + 256]
        with pytest.raises(EdfError, match="truncated"):
            parse(edf_path, doctored)

    def test_truncated_fixed_header(self, edf_path):
        with pytest.raises(EdfError, match="truncated"):
            parse(edf_path, b"0       " + b" " * 100)

    def test_non_numeric_field(self, edf_path):
        raw = bytearray(build_edf([simple_signal(np.zeros(10))], n_records=1))
        raw[236:244] = b"notanum "
        with pytest.raises(EdfError, match="non-numeric"):
            parse(edf_path, bytes(raw))

    def test_record_size_inconsistent(self, edf_path):
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1)
        with pytest.raises(EdfError, match="data area"):
            parse(edf_path, raw + b"\x00\x00")

    def test_rejects_discontinuous(self, edf_path):
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1, reserved="EDF+D")
        with pytest.raises(EdfError, match="EDF\\+D"):
            parse(edf_path, raw)

    def test_declared_header_bytes_must_match(self, edf_path):
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1, header_bytes=768)
        with pytest.raises(EdfError, match="header size"):
            parse(edf_path, raw)

    def test_digital_range_invariant(self, edf_path):
        bad = SignalSpec(label="X", samples_per_record=10, dig_min=5, dig_max=5,
                         data=np.zeros(10, dtype=np.int16))
        with pytest.raises(EdfError, match="digital_min"):
            parse(edf_path, build_edf([bad], n_records=1))

    def test_signal_count_past_the_file_sizes_no_read(self, edf_path):
        """A buffered read allocates the bytes it asks for before it reads,
        so 9999 declared signals must be rejected before 2.5 MB of signal
        headers are asked of a 512-byte file."""
        raw = build_edf([simple_signal(np.zeros(10))], n_records=1)
        edf_path.write_bytes(raw[:252] + b"9999" + raw[256:512])
        with allocation_peak() as peak, pytest.raises(EdfError, match="truncated signal headers"):
            parse_edf(edf_path)
        assert peak[0] < 64 * 1024, peak


class TestReadSignal:
    def fixture_edf(self, path, data):
        return parse(path, build_edf([simple_signal(data)], n_records=2))

    def test_affine_endpoint(self, edf_path):
        with self.fixture_edf(edf_path, np.full(20, -2048)) as edf:
            assert read_signal(edf, "EEG Fpz-Cz")[0] == -200.0

    def test_affine_midpoint(self, edf_path):
        expected = (0 + 2048) * 400.0 / 4095.0 - 200.0  # ~0.04884
        with self.fixture_edf(edf_path, np.zeros(20)) as edf:
            assert read_signal(edf, "EEG Fpz-Cz")[0] == pytest.approx(expected, abs=1e-12)

    def test_unknown_channel(self, edf_path):
        with self.fixture_edf(edf_path, np.zeros(20)) as edf:
            with pytest.raises(UnknownChannelError, match="EEG Pz-Oz"):
                read_signal(edf, "EEG Pz-Oz")

    def test_duplicate_channel(self, edf_path):
        sig = simple_signal(np.zeros(10))
        raw = build_edf([sig, simple_signal(np.ones(10))], n_records=1)
        with parse(edf_path, raw) as edf:
            with pytest.raises(UnknownChannelError, match="duplicate"):
                read_signal(edf, "EEG Fpz-Cz")

    def test_physical_map_is_the_affine_formula_bitwise(self):
        digital = np.arange(-32768, 32768, dtype=np.int16)
        for dig_min, dig_max, phys_min, phys_max in [(-2048, 2047, -200.0, 200.0),
                                                     (-32768, 32767, 0.1, -37.3)]:
            gain = (phys_max - phys_min) / (dig_max - dig_min)
            expected = (digital.astype(np.float64) - dig_min) * gain + phys_min
            got = physical_map(dig_min, dig_max, phys_min, phys_max, "x")(digital)
            assert got.dtype == np.float64 and np.array_equal(got, expected)

    def test_physical_map_allocates_one_float64_array(self):
        digital = np.arange(-32768, 32768, dtype=np.int16).repeat(8)
        to_physical = physical_map(-2048, 2047, -200.0, 200.0, "x")
        tracemalloc.start()
        try:
            got = to_physical(digital)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # three temporaries would peak at about twice the result
        assert peak < 1.25 * got.nbytes, peak

    def test_value_past_float64_range_is_infinite_without_a_warning(self):
        # a gain of 1.6e308 takes the out-of-range digital value 2 past
        # float64's largest; warnings are errors under pytest
        got = physical_map(0, 1, -8e307, 8e307, "x")(np.array([0, 1, 2], dtype=np.int16))
        assert got.tolist() == [-8e307, 8e307, np.inf]

    @pytest.mark.parametrize(
        "phys_min, phys_max", [(5.0, 5.0), (np.nan, 1.0), (0.0, -np.inf), (-1e308, 1e308)]
    )
    def test_empty_or_non_finite_physical_range_rejected(self, phys_min, phys_max):
        with pytest.raises(EdfError, match="'EEG Fpz-Cz': physical range .* empty or not finite"):
            physical_map(-2048, 2047, phys_min, phys_max, "signal 'EEG Fpz-Cz'")

    @pytest.mark.parametrize("dig_min, dig_max", [(5, 5), (2047, -2048)], ids=["equal", "reversed"])
    def test_empty_or_reversed_digital_range_rejected(self, dig_min, dig_max):
        with pytest.raises(EdfError, match=f"^x: digital_min {dig_min} must be < digital_max"):
            physical_map(dig_min, dig_max, -200.0, 200.0, "x")

    def test_overflowing_digital_width_names_the_digital_range(self):
        with pytest.raises(EdfError, match=r"^x: digital range -1e\+308\.\.1e\+308 is wider "):
            physical_map(-1e308, 1e308, -200.0, 200.0, "x")

    @pytest.mark.parametrize(
        "dig_max, phys_min, phys_max", [(1e-320, -200.0, 200.0), (1e300, 0.0, 1e-300)],
        ids=["gain-overflows", "gain-underflows"],
    )
    def test_gain_past_float64_names_both_ranges(self, dig_max, phys_min, phys_max):
        with pytest.raises(EdfError) as exc:
            physical_map(0.0, dig_max, phys_min, phys_max, "x")
        assert str(exc.value) == (
            f"x: physical range {phys_min}..{phys_max} over digital range 0.0..{dig_max} "
            "gives a gain that is zero or not finite"
        )

    def test_label_trailing_space_trimmed(self, edf_path):
        with self.fixture_edf(edf_path, np.zeros(20)) as edf:
            assert edf.header.signals[0].label == "EEG Fpz-Cz"

    @given(
        digital=st.lists(st.integers(-2048, 2047), min_size=4, max_size=40).filter(
            lambda v: len(v) % 4 == 0
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_affine(self, edf_path, digital):
        data = np.asarray(digital, dtype=np.int16)
        spr = len(data) // 4
        raw = build_edf([simple_signal(data, spr=spr)], n_records=4)
        with parse(edf_path, raw) as edf:
            phys = read_signal(edf, "EEG Fpz-Cz")
        # phys_max > phys_min, so digital ordering must be preserved
        assert np.array_equal(np.argsort(data, kind="stable"), np.argsort(phys, kind="stable"))


class TestRangeRead:
    """read_signal and read_digital over a sample range [start, stop)."""

    # 3 records of 10 samples, a second signal between them in each record
    DATA = np.arange(30, dtype=np.int16) * 7 - 100

    @pytest.fixture
    def opened(self, edf_path, monkeypatch):
        """(the parsed file, a one-item list counting the bytes read from it)"""
        bytes_read = [0]
        read_exact = edf_mod._read_exact

        def counting(stream, n, what):
            data = read_exact(stream, n, what)
            bytes_read[0] += len(data)
            return data

        monkeypatch.setattr(edf_mod, "_read_exact", counting)
        other = SignalSpec(label="EMG", samples_per_record=4, data=np.zeros(12, np.int16))
        with parse(edf_path, build_edf([simple_signal(self.DATA), other], n_records=3)) as edf:
            yield edf, bytes_read

    def test_every_range_equals_the_slice_of_the_whole_read(self, opened):
        edf, _ = opened
        whole = read_signal(edf, "EEG Fpz-Cz")
        for start in range(31):
            for stop in range(start, 31):
                assert np.array_equal(edf.read_digital("EEG Fpz-Cz", start, stop),
                                      self.DATA[start:stop])
                assert np.array_equal(read_signal(edf, "EEG Fpz-Cz", start, stop),
                                      whole[start:stop])

    def test_full_range_equals_the_whole_read(self, opened):
        edf, _ = opened
        whole = read_signal(edf, "EEG Fpz-Cz")
        gain = 400.0 / 4095
        assert np.array_equal(whole, (self.DATA.astype(np.float64) + 2048) * gain - 200.0)
        assert np.array_equal(read_signal(edf, "EEG Fpz-Cz", 0, 30), whole)
        assert np.array_equal(read_signal(edf, "EEG Fpz-Cz", 0, None), whole)

    @pytest.mark.parametrize("at", [0, 15, 20, 30])
    def test_empty_range_is_an_empty_array_and_reads_nothing(self, opened, at):
        edf, bytes_read = opened
        before = bytes_read[0]
        got = read_signal(edf, "EEG Fpz-Cz", at, at)
        assert got.shape == (0,) and got.dtype == np.float64
        assert bytes_read[0] == before

    @pytest.mark.parametrize("start, stop", [(-1, 5), (5, 4), (0, 31), (31, 31), (31, 40)])
    def test_out_of_range_raises(self, opened, start, stop):
        edf, _ = opened
        with pytest.raises(EdfError, match=rf"sample range \[{start}, {stop}\) outside channel "
                                           r"'EEG Fpz-Cz' of 30 samples"):
            read_signal(edf, "EEG Fpz-Cz", start, stop)

    @pytest.mark.parametrize("start, stop, records", [(12, 18, 1), (9, 21, 3), (10, 20, 1)])
    def test_reads_only_the_records_that_hold_the_range(self, opened, start, stop, records):
        edf, bytes_read = opened
        before = bytes_read[0]
        edf.read_digital("EEG Fpz-Cz", start, stop)
        assert bytes_read[0] - before == records * 10 * 2


class TestRoundTripProperty:
    @given(
        n_records=st.integers(1, 4),
        spr=st.integers(1, 32),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_digital_recovery(self, edf_path, n_records, spr, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-2048, 2048, size=n_records * spr, dtype=np.int16)
        raw = build_edf([simple_signal(data, spr=spr)], n_records=n_records)
        with parse(edf_path, raw) as edf:
            assert np.array_equal(edf.read_digital("EEG Fpz-Cz"), data)
            chunks = list(edf.record_chunks(0))
        assert len(chunks) == n_records
        assert all(len(c) == 2 * spr for c in chunks)


class TestTal:
    def test_with_duration(self):
        out = parse_tal(tal(0, 30, "Sleep stage W"))
        assert [(a.onset, a.duration, a.text) for a in out] == [(0.0, 30.0, "Sleep stage W")]

    def test_without_duration(self):
        out = parse_tal(tal(120, None, "Sleep stage 2"))
        assert [(a.onset, a.duration, a.text) for a in out] == [(120.0, 0.0, "Sleep stage 2")]

    def test_missing_terminator(self):
        with pytest.raises(EdfError, match="terminator"):
            parse_tal(tal(0, 30, "Sleep stage W")[:-1])

    def test_unparseable_onset(self):
        with pytest.raises(EdfError, match="unparseable"):
            parse_tal(b"+abc\x14Sleep stage W\x14\x00")

    def test_non_finite_onset_rejected(self):
        with pytest.raises(EdfError, match="non-finite"):
            parse_tal(b"+inf\x14Sleep stage W\x14\x00")

    def test_negative_duration_rejected(self):
        with pytest.raises(EdfError, match="negative TAL duration"):
            parse_tal(b"+30\x15-30\x14Sleep stage W\x14\x00")

    def test_bookkeeping_skipped(self):
        assert parse_tal(bookkeeping_tal(0.0)) == []
        assert parse_tal(bookkeeping_tal(-1.5)) == []  # negative onset legal here

    def test_negative_onset_rejected_with_text(self):
        with pytest.raises(EdfError, match="negative onset"):
            parse_tal(b"-30\x1530\x14Sleep stage W\x14\x00")

    def test_multiple_texts_fan_out(self):
        out = parse_tal(tal(60, 30, "Sleep stage 1", "Lights off"))
        assert [(a.onset, a.text) for a in out] == [
            (60.0, "Sleep stage 1"),
            (60.0, "Lights off"),
        ]

    def test_multiple_tals_in_one_buffer(self):
        buf = bookkeeping_tal(0) + tal(0, 30, "Sleep stage W") + tal(30, 30, "Sleep stage 1")
        out = parse_tal(buf + b"\x00\x00\x00")  # trailing record padding
        assert [a.text for a in out] == ["Sleep stage W", "Sleep stage 1"]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_count_matches_bruteforce_splitter(self, seed):
        rng = np.random.default_rng(seed)
        buf = bookkeeping_tal(0)
        for _ in range(rng.integers(0, 6)):
            onset = float(rng.integers(0, 1000))
            duration = float(rng.integers(0, 100)) if rng.random() < 0.5 else None
            texts = [f"Sleep stage {rng.integers(0, 5)}" for _ in range(rng.integers(1, 4))]
            buf += tal(onset, duration, *texts)
        buf += b"\x00" * int(rng.integers(0, 5))
        assert len(parse_tal(buf)) == tal_text_field_count(buf)


class TestAnnotationsChannel:
    def test_annotations_across_records(self, edf_path):
        payloads = [
            bookkeeping_tal(0) + tal(0, 30, "Sleep stage W"),
            bookkeeping_tal(30) + tal(30, 60, "Sleep stage 2"),
        ]
        sig = SignalSpec(
            label="EDF Annotations",
            samples_per_record=64,
            dig_min=-32768,
            dig_max=32767,
            record_payloads=payloads,
        )
        with parse(edf_path, build_edf([sig], n_records=2, reserved="EDF+C")) as edf:
            anns = edf.annotations()
        assert [(a.onset, a.duration, a.text) for a in anns] == [
            (0.0, 30.0, "Sleep stage W"),
            (30.0, 60.0, "Sleep stage 2"),
        ]


@pytest.fixture(scope="module")
def edf_files():
    """{name: (file bytes, header bytes)} of a valid two-signal PSG and a
    valid EDF+ hypnogram."""
    rng = np.random.default_rng(96)
    psg = build_edf(
        [
            simple_signal(rng.integers(-2048, 2048, 300), spr=100),
            SignalSpec(label="EMG submental", samples_per_record=1, phys_min=-5.0, phys_max=5.0,
                       data=rng.integers(-2048, 2048, 3).astype(np.int16)),
        ],
        n_records=3,
        reserved="EDF+C",
    )
    hypnogram = hypnogram_edf(
        [(0.0, 30.0, "Sleep stage W"), (30.0, 60.0, "Sleep stage 2"), (90.0, 30.0, "Sleep stage R")]
    )
    return {"psg": (psg, 256 * 3), "hypnogram": (hypnogram, 256 * 2)}


class TestMutatedFiles:
    """Truncated, bit-flipped and spliced EDF files: each either raises
    EdfError or reads as the header states, with finite samples and
    annotations, and no allocation is sized by a header field alone."""

    # Reading a channel holds its int16 samples (at most the file's size)
    # and their float64 map, 4x those bytes; the check's finiteness mask
    # adds 1/8 of the float64.  Every other array a read makes is one
    # record, so a mutant's allocations stay within 6x its file's size.
    PEAK_PER_FILE_BYTE = 6
    # The open file's 8 KiB read buffer, the decoded header and the few
    # annotation objects of the fixture hypnogram, with room to spare.
    PEAK_ALLOWANCE = 64 * 1024

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejected_or_reads_finite_values(self, edf_files, edf_path, data):
        edf_path.write_bytes(mutate(data, edf_files))
        with allocation_peak() as peak:
            self.read_back(edf_path)
        size = edf_path.stat().st_size
        assert peak[0] <= self.PEAK_PER_FILE_BYTE * size + self.PEAK_ALLOWANCE, (peak, size)

    @staticmethod
    def read_back(path):
        try:
            edf = parse_edf(path)
        except EdfError:
            return
        with edf:
            n_records = edf.header.n_records
            for sig in edf.header.signals:
                if sig.label == "EDF Annotations":
                    continue
                try:
                    x = read_signal(edf, sig.label)
                except EdfError:
                    continue
                assert x.shape == (n_records * sig.samples_per_record,) and x.dtype == np.float64
                assert np.isfinite(x).all(), sig.label
            try:
                annotations = edf.annotations()
            except EdfError:
                return
        for a in annotations:
            assert math.isfinite(a.onset) and a.onset >= 0, a
            assert math.isfinite(a.duration) and a.duration >= 0, a
