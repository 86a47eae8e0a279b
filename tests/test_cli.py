import argparse
import contextlib
import importlib
import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesleep import budget as budget_mod
from edgesleep import cli
from edgesleep import edf as edf_mod
from edgesleep import epochs as ep
from edgesleep import model as model_mod
from edgesleep import streaming
from edgesleep.cli import main
from edgesleep.edf import UnknownChannelError, parse_edf
from edgesleep.metrics import counts_from_csv
from edgesleep.model import (
    CHUNK_ROWS, ArchConfig, init_params, load_model, predict, save_model, forward, write_slpm,
)
from edgesleep.quant import load_any_model, quantize_model, save_quant_model
from edgesleep.streaming import StageDecision, decision_line

from helpers import claim_tensor_length, join_epochs, make_synth_epochs
from edf_fixtures import SignalSpec, build_edf, hypnogram_edf
from oracles import edf_channel_reference, store_reference

HYPNOGRAM = [
    (0.0, 30.0, "Sleep stage W"),
    (30.0, 60.0, "Sleep stage 2"),
    (90.0, 30.0, "Sleep stage 4"),
    (120.0, 30.0, "Movement time"),
    (150.0, 30.0, "Sleep stage R"),
]


@pytest.fixture()
def psg_file(tmp_path):
    rng = np.random.default_rng(90)
    data = rng.integers(-2048, 2048, size=6 * 3000, dtype=np.int16)
    raw = build_edf(
        [SignalSpec(label="EEG Fpz-Cz", samples_per_record=3000, data=data)],
        n_records=6,
        record_duration=30.0,
        reserved="EDF+C",
    )
    path = tmp_path / "psg.edf"
    path.write_bytes(raw)
    return path


def hypnogram_file(tmp_path, annotations=HYPNOGRAM):
    """An EDF+ hypnogram of (onset, duration, label) annotations."""
    path = tmp_path / "hyp.edf"
    path.write_bytes(hypnogram_edf(annotations))
    return path


class TestConvert:
    def test_with_hypnogram_edf(self, tmp_path, psg_file, capsys):
        hyp = hypnogram_file(tmp_path)
        out = tmp_path / "night.slpe"
        code = main(
            [
                "convert", str(psg_file),
                "--hypnogram", str(hyp),
                "--channel", "EEG Fpz-Cz",
                "--subject", "1",
                "--night", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        stored = ep.read_store(out)
        assert [int(e.stage) for e in stored] == [0, 2, 2, 3, 4]  # movement dropped
        assert "wrote 5 epochs" in capsys.readouterr().out

    def test_with_hypnogram_edf_and_append(self, tmp_path, psg_file):
        out = tmp_path / "night.slpe"
        args = [
            "convert", str(psg_file),
            "--hypnogram", str(hypnogram_file(tmp_path)),
            "--subject", "2",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert main(args + ["--append"]) == 0
        stored = ep.read_store(out)
        assert len(stored) == 10

    def test_unknown_channel_exit_code(self, tmp_path, psg_file):
        hyp = hypnogram_file(tmp_path, [(0.0, 30.0, "Sleep stage W")])
        code = main(
            [
                "convert", str(psg_file),
                "--hypnogram", str(hyp),
                "--channel", "EEG Pz-Oz",
                "--subject", "1",
                "--out", str(tmp_path / "x.slpe"),
            ]
        )
        assert code == 3

    def test_short_psg_exits_3_and_is_closed(self, tmp_path, capsys):
        # an unclosed file would fail the test as a ResourceWarning
        psg = tmp_path / "short.edf"
        psg.write_bytes(bytes(108))
        hyp = hypnogram_file(tmp_path, [(0.0, 30.0, "Sleep stage W")])
        out = tmp_path / "x.slpe"
        code = main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                     "--out", str(out)])
        assert code == 3
        assert "truncated EDF header" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "phys_min, phys_max", [(5.0, 5.0), (float("nan"), 200.0), (-200.0, float("inf"))],
        ids=["empty", "nan-min", "inf-max"],
    )
    def test_bad_physical_range_exits_3(self, tmp_path, capsys, phys_min, phys_max):
        rng = np.random.default_rng(94)
        data = rng.integers(-2048, 2048, size=6 * 3000, dtype=np.int16)
        # only the channel read is checked: the other one's range is empty too
        signals = [
            SignalSpec(label=label, samples_per_record=3000, data=data,
                       phys_min=phys_min, phys_max=phys_max)
            for label in ("EEG Fpz-Cz", "EEG Pz-Oz")
        ]
        psg = tmp_path / "psg.edf"
        psg.write_bytes(build_edf(signals, n_records=6, record_duration=30.0, reserved="EDF+C"))
        hyp = hypnogram_file(tmp_path, [(0.0, 180.0, "Sleep stage 2")])
        out = tmp_path / "night.slpe"
        code = main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: signal 'EEG Fpz-Cz': physical range {phys_min}..{phys_max} "
            "is empty or not finite\n"
        )
        assert not out.exists()
        signals[0] = SignalSpec(label="EEG Fpz-Cz", samples_per_record=3000, data=data)
        psg.write_bytes(build_edf(signals, n_records=6, record_duration=30.0, reserved="EDF+C"))
        assert main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                     "--out", str(out)]) == 0

    def test_channel_not_at_100_hz_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        data = rng.integers(-2048, 2048, size=6 * 3000, dtype=np.int16)
        psg = tmp_path / "psg200.edf"
        psg.write_bytes(
            build_edf(
                [SignalSpec(label="EEG Fpz-Cz", samples_per_record=3000, data=data)],
                n_records=6,
                record_duration=15.0,  # 200 Hz
                reserved="EDF+C",
            )
        )
        hyp = hypnogram_file(tmp_path, [(0.0, 90.0, "Sleep stage 2")])
        out = tmp_path / "night.slpe"
        code = main(
            ["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1", "--out", str(out)]
        )
        assert code == 4
        assert "200 Hz" in capsys.readouterr().err
        assert not out.exists()


# 240 s of signal whose last entry runs 30 s past it, as the sleep-cassette
# hypnograms' last entries often do
OVERRUN_HYPNOGRAM = [
    (0.0, 60.0, "Sleep stage W"),
    (60.0, 90.0, "Sleep stage 2"),
    (150.0, 30.0, "Sleep stage R"),
    (180.0, 90.0, "Sleep stage ?"),
]


class TestConvertOverrun:
    @pytest.fixture()
    def convert(self, tmp_path):
        rng = np.random.default_rng(93)
        data = rng.integers(-2048, 2048, size=8 * 3000, dtype=np.int16)
        psg = tmp_path / "psg240.edf"
        psg.write_bytes(
            build_edf(
                [SignalSpec(label="EEG Fpz-Cz", samples_per_record=3000, data=data)],
                n_records=8,
                record_duration=30.0,
                reserved="EDF+C",
            )
        )

        def run(hypnogram, out):
            hyp = hypnogram_file(tmp_path, hypnogram)
            return main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                         "--out", str(out)])

        return run

    def test_overrunning_entry_is_cut(self, tmp_path, convert):
        out = tmp_path / "night.slpe"
        assert convert(OVERRUN_HYPNOGRAM, out) == 0
        stored = ep.read_store(out)
        assert stored.stage.tolist() == [0, 0, 2, 2, 2, 4]
        assert stored.epoch_index.tolist() == [0, 1, 2, 3, 4, 5]

    def test_onset_past_the_end_exits_4(self, tmp_path, convert, capsys):
        out = tmp_path / "night.slpe"
        hypnogram = OVERRUN_HYPNOGRAM[:3] + [(180.0, 60.0, "Sleep stage W"),
                                             (240.0, 30.0, "Sleep stage ?")]
        assert convert(hypnogram, out) == 4
        assert "[240.0, 270.0) starts past" in capsys.readouterr().err
        assert not out.exists()


class TestConvertAppend:
    @pytest.fixture()
    def convert(self, tmp_path, psg_file):
        hyp = hypnogram_file(tmp_path)

        def run(out, *flags):
            return main(["convert", str(psg_file), "--hypnogram", str(hyp),
                         "--out", str(out), *flags])

        return run

    @pytest.mark.parametrize("flags", [("--subject", "70000"), ("--subject", "1", "--night", "300")])
    def test_rejected_append_leaves_the_store_unchanged(self, tmp_path, convert, capsys, flags):
        store = tmp_path / "night.slpe"
        assert convert(store, "--subject", "1") == 0
        before = store.read_bytes()
        assert len(ep.read_store(store)) == 5
        assert convert(store, "--append", *flags) == 5
        assert "out of range" in capsys.readouterr().err
        assert store.read_bytes() == before

    def test_rejected_convert_leaves_an_existing_output_unchanged(self, tmp_path, convert):
        out = tmp_path / "existing.slpe"
        out.write_bytes(b"not a store")
        assert convert(out, "--subject", "70000") == 5
        assert out.read_bytes() == b"not a store"

    def test_append_onto_a_corrupt_store_exits_5_unchanged(self, tmp_path, convert):
        store = tmp_path / "night.slpe"
        assert convert(store, "--subject", "1") == 0
        store.write_bytes(store.read_bytes() + b"!")
        before = store.read_bytes()
        assert convert(store, "--subject", "2", "--append") == 5
        assert store.read_bytes() == before

    def test_two_appended_nights_equal_one_write_of_both(self, tmp_path, convert, capsys):
        first, second, appended = (tmp_path / f"{n}.slpe" for n in ("a", "b", "ab"))
        assert convert(first, "--subject", "1") == 0
        assert convert(second, "--subject", "2", "--night", "2") == 0
        assert convert(appended, "--subject", "1") == 0
        capsys.readouterr()
        assert convert(appended, "--subject", "2", "--night", "2", "--append") == 0
        out = capsys.readouterr().out
        assert "wrote 10 epochs" in out
        assert "N2           4  40.00%" in out  # the counts cover both nights
        whole = tmp_path / "whole.slpe"
        ep.write_store(join_epochs(ep.read_store(first), ep.read_store(second)), whole)
        assert appended.read_bytes() == whole.read_bytes()


class TestConvertStartTime:
    """A hypnogram must start when its recording does (EDF header bytes
    168-175 hold the start date, 176-183 the start time)."""

    @pytest.mark.parametrize(
        "offset, value", [(168, b"02.01.01"), (176, b"00.00.30")], ids=["date", "time"]
    )
    def test_mismatch_exits_4_and_leaves_the_output_unchanged(
        self, tmp_path, psg_file, capsys, offset, value
    ):
        store = tmp_path / "night.slpe"
        hyp = hypnogram_file(tmp_path)
        argv = ["convert", str(psg_file), "--hypnogram", str(hyp), "--subject", "1",
                "--out", str(store)]
        assert main(argv) == 0
        before = store.read_bytes()
        raw = bytearray(hyp.read_bytes())
        raw[offset : offset + 8] = value
        hyp.write_bytes(bytes(raw))
        capsys.readouterr()
        for flags in ([], ["--append"]):
            assert main(argv + flags) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: hypnogram starts ") and value.decode() in err
            assert store.read_bytes() == before


def night_files(tmp_path, runs, spr, digital=None, phys=(-200.0, 200.0), seed=97):
    """A one-channel PSG in records of spr samples (spr / 100 seconds), whose
    hypnogram tiles its windows with runs of (window count, label), and
    the annotations; the signal ends mid-window when spr does not divide
    the night.  Returns (psg path, hypnogram path, annotations, digital)."""
    annotations, onset = [], 0.0
    for count, label in runs:
        annotations.append((onset, 30.0 * count, label))
        onset += 30.0 * count
    n_records = -(-int(onset) * 100 // spr)
    if digital is None:
        rng = np.random.default_rng(seed)
        digital = rng.integers(-2048, 2048, size=n_records * spr, dtype=np.int16)
    psg = tmp_path / "psg.edf"
    psg.write_bytes(build_edf(
        [SignalSpec(label="EEG Fpz-Cz", samples_per_record=spr, data=digital,
                    phys_min=phys[0], phys_max=phys[1])],
        n_records=n_records, record_duration=spr / 100, reserved="EDF+C",
    ))
    return psg, hypnogram_file(tmp_path, annotations), annotations, digital


# 150 wake windows lead and 170 trail the sleep period, so the trim keeps
# windows 110 to 324; the discarded windows inside it are read but not stored
LONG_WAKE_NIGHT = [
    (150, "Sleep stage W"), (3, "Movement time"), (20, "Sleep stage W"), (40, "Sleep stage 2"),
    (2, "Sleep stage ?"), (30, "Sleep stage R"), (20, "Sleep stage 1"), (170, "Sleep stage W"),
    (5, "Sleep stage ?"),
]


class TestConvertReadsTheKeptSpan:
    """convert labels and trims the night from the hypnogram, then reads
    only the records from the first kept window to the last."""

    @pytest.mark.parametrize("spr", [100, 700, 3000])
    def test_store_equals_the_reference_from_the_whole_channel(self, tmp_path, spr):
        # 1 s and 30 s records start a window on a record boundary; 7 s
        # records put the span's first and last samples mid-record
        psg, hyp, annotations, digital = night_files(tmp_path, LONG_WAKE_NIGHT, spr)
        store = tmp_path / "night.slpe"
        assert main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "3",
                     "--night", "2", "--out", str(store)]) == 0
        want = store_reference(annotations, digital, (-2048, 2047, -200.0, 200.0), 3, 2)
        assert store.read_bytes() == want
        kept = ep.read_store(store).epoch_index
        assert (kept[0], kept[-1]) == (110, 324)
        if spr == 700:
            assert (110 * 3000) % spr and (325 * 3000) % spr

    @pytest.mark.parametrize("window, code", [(5, 0), (200, 4)], ids=["trimmed", "kept"])
    def test_non_finite_value_fails_only_in_a_kept_window(self, tmp_path, capsys, window, code):
        # phys +-1e38 keeps the digital range finite in float32, but the
        # out-of-range digital value 32767 maps past float32's largest
        rng = np.random.default_rng(98)
        digital = rng.integers(-2048, 2048, size=440 * 3000, dtype=np.int16)
        digital[window * 3000 + 17] = 32767
        psg, hyp, annotations, _ = night_files(
            tmp_path, LONG_WAKE_NIGHT, 3000, digital=digital, phys=(-1e38, 1e38)
        )
        store = tmp_path / "night.slpe"
        assert main(["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                     "--out", str(store)]) == code
        if code:
            assert capsys.readouterr().err == "error: epoch contains non-finite samples\n"
            assert not store.exists()
        else:
            want = store_reference(annotations, digital, (-2048, 2047, -1e38, 1e38), 1, 1)
            assert store.read_bytes() == want

    def test_peak_memory_follows_the_kept_span(self, tmp_path, capsys):
        # 180 of 1,060 windows are kept; the whole channel as float64 is 25 MB
        runs = [(500, "Sleep stage W"), (60, "Sleep stage 2"), (500, "Sleep stage W")]
        psg, hyp, _, digital = night_files(tmp_path, runs, 3000)
        store = tmp_path / "night.slpe"
        argv = ["convert", str(psg), "--hypnogram", str(hyp), "--subject", "1",
                "--out", str(store)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ep.read_store(store)) == 180
        assert peak < digital.size * 8 / 2, peak

    def test_one_channel_read_and_one_store_write_per_night(self, tmp_path, psg_file):
        """The benchmark's tracer wraps edf.read_signal and
        epochs.write_store at every binding in the package, counts one call
        of each per night, and reads the size of read_signal's result as a
        1-D array."""
        calls = {"read_signal": [], "write_store": 0}
        real_read, real_write = edf_mod.read_signal, ep.write_store

        def read_signal(*args, **kwargs):
            result = real_read(*args, **kwargs)
            calls["read_signal"].append(result)
            return result

        def write_store(*args, **kwargs):
            calls["write_store"] += 1
            return real_write(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "edgesleep":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is real_read:
                        mp.setattr(module, attr, read_signal)
                    elif value is real_write:
                        mp.setattr(module, attr, write_store)
            argv = ["convert", str(psg_file), "--hypnogram", str(hypnogram_file(tmp_path)),
                    "--subject", "1", "--out", str(tmp_path / "night.slpe")]
            assert main(argv) == 0
            assert main(argv + ["--append"]) == 0
        assert calls["write_store"] == 2
        assert len(calls["read_signal"]) == 2
        for result in calls["read_signal"]:
            assert isinstance(result, np.ndarray) and result.ndim == 1
            assert result.size == 6 * 3000


# The fixed header's version, patient and recording fields, and each
# signal's transducer, physical dimension, prefiltering and reserved field,
# for two signals: the header bytes `convert` never reads.
UNREAD_HEADER_BYTES = frozenset(
    [*range(0, 168), *range(256 + 16 * 2, 256 + 104 * 2), *range(256 + 136 * 2, 256 + 216 * 2),
     *range(256 + 224 * 2, 256 + 256 * 2)]
)
HEADER_EDIT = st.tuples(
    st.integers(0, 256 * 3 - 1),
    st.one_of(st.integers(0, 7).map(lambda bit: ("flip", bit)),
              st.sampled_from(b"0123456789 +-.eE").map(lambda byte: ("set", byte))),
)


@pytest.fixture(scope="module")
def mutable_night(tmp_path_factory):
    """(PSG path, hypnogram path, annotations, mutant PSG path, store path):
    eight windows of an EEG channel in 10 s records beside a 1 Hz EMG
    channel, all of them kept."""
    tmp = tmp_path_factory.mktemp("mutated_header")
    rng = np.random.default_rng(99)
    psg = tmp / "psg.edf"
    psg.write_bytes(build_edf(
        [SignalSpec(label="EEG Fpz-Cz", samples_per_record=1000,
                    data=rng.integers(-2048, 2048, 24_000, dtype=np.int16)),
         SignalSpec(label="EMG submental", samples_per_record=10, phys_min=-5.0, phys_max=5.0,
                    data=rng.integers(-2048, 2048, 240, dtype=np.int16))],
        n_records=24, record_duration=10.0, reserved="EDF+C",
    ))
    annotations = [(0.0, 60.0, "Sleep stage W"), (60.0, 90.0, "Sleep stage 2"),
                   (150.0, 30.0, "Sleep stage 3"), (180.0, 60.0, "Sleep stage R")]
    hyp = tmp / "hyp.edf"
    hyp.write_bytes(hypnogram_edf(annotations))
    return psg, hyp, annotations, tmp / "mutant.edf", tmp / "night.slpe"


class TestConvertMutatedHeader:
    """A PSG whose header bytes are edited converts only as its header
    states: on exit 0 the store holds float32 of the digital values that an
    independent decoding of the edited header locates and scales, or the
    edits lie in fields `convert` does not read."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepted_header_gives_its_own_scaling_and_layout(self, mutable_night, data):
        psg_path, hyp, annotations, path, store = mutable_night
        psg = psg_path.read_bytes()
        mutant = bytearray(psg)
        for at, (kind, value) in data.draw(st.lists(HEADER_EDIT, min_size=1, max_size=4)):
            mutant[at] = mutant[at] ^ (1 << value) if kind == "flip" else value
        path.write_bytes(bytes(mutant))
        store.unlink(missing_ok=True)
        argv = ["convert", str(path), "--hypnogram", str(hyp), "--subject", "4", "--night", "2",
                "--out", str(store)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                return
        try:
            digital, scaling = edf_channel_reference(bytes(mutant), "EEG Fpz-Cz")
        except ValueError:
            want = None
        else:
            end = len(digital) // ep.EPOCH_SAMPLES * 30.0
            cut = [(onset, min(onset + length, end) - onset, label)
                   for onset, length, label in annotations]
            want = store_reference(cut, digital, scaling, 4, 2)
        changed = {i for i, (a, b) in enumerate(zip(psg, mutant)) if a != b}
        assert store.read_bytes() == want or changed <= UNREAD_HEADER_BYTES, sorted(changed)


@pytest.fixture(scope="module")
def trained_setup(tmp_path_factory):
    """Store with 4 subjects, a trained small model, and a quantized copy."""
    tmp = tmp_path_factory.mktemp("cli_flow")
    store_path = tmp / "cohort.slpe"
    all_epochs = join_epochs(
        *(make_synth_epochs(15, seed=91 + subject, subject_id=subject) for subject in range(4))
    )
    ep.write_store(all_epochs, store_path)
    model_dir = tmp / "models"
    code = main(
        [
            "train",
            "--store", str(store_path),
            "--out-dir", str(model_dir),
            "--folds", "2",
            "--fold", "0",
            "--seed", "1",
            "--max-epochs", "2",
            "--batch-size", "16",
            "--width-multiplier", "0.25",
        ]
    )
    assert code == 0
    model_path = model_dir / "model_fold0.slpm"
    quant_path = tmp / "model_int8.slpm"
    assert main(
        ["quantize", "--model", str(model_path), "--out", str(quant_path)]
    ) == 0
    return store_path, model_path, quant_path, model_dir


class TestTrainEvalFlow:
    def test_artifacts_written(self, trained_setup):
        store_path, model_path, quant_path, model_dir = trained_setup
        assert model_path.exists()
        history = (model_dir / "history_fold0.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(history) == 3  # header + 2 epochs
        assert (model_dir / "folds.txt").read_text().startswith("fold0:")

    def test_eval_writes_reports(self, trained_setup, tmp_path, capsys):
        store_path, model_path, _, _ = trained_setup
        prefix = tmp_path / "reports" / "run1"
        code = main(
            ["eval", "--store", str(store_path), "--model", str(model_path),
             "--out-prefix", str(prefix)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        counts = counts_from_csv((tmp_path / "reports" / "run1_counts.csv").read_text())
        assert counts.sum() == 60

    @pytest.mark.parametrize("quantized", [False, True])
    def test_eval_counts_equal_per_epoch_reference(self, trained_setup, tmp_path, quantized):
        store_path, model_path, quant_path, _ = trained_setup
        path = quant_path if quantized else model_path
        prefix = tmp_path / "ref"
        assert main(["eval", "--store", str(store_path), "--model", str(path),
                     "--out-prefix", str(prefix)]) == 0
        if quantized:
            _, qm, config = load_any_model(quant_path)
            params = qm.dequantize()
        else:
            params, config = load_model(model_path)
        stored = ep.read_store(store_path)
        assert len(stored) % CHUNK_ROWS != 0
        want = np.zeros((5, 5), dtype=np.int64)
        for e in stored:
            probs, _ = forward(params, ep.standardize(e.samples), config)
            want[int(e.stage), int(np.argmax(probs))] += 1
        got = counts_from_csv(Path(f"{prefix}_counts.csv").read_text())
        np.testing.assert_array_equal(got, want)

    def test_eval_flat_epoch_exits_4(self, trained_setup, tmp_path, capsys):
        store_path, model_path, _, _ = trained_setup
        stored = ep.read_store(store_path)
        stored.samples[40] = 3.0
        flat_store = tmp_path / "flat.slpe"
        ep.write_store(stored, flat_store)
        assert main(["eval", "--store", str(flat_store), "--model", str(model_path)]) == 4
        assert "flat epoch" in capsys.readouterr().err

    def test_train_flat_epoch_exits_4(self, tmp_path, capsys):
        stored = join_epochs(
            *(make_synth_epochs(6, seed=95 + subject, subject_id=subject) for subject in range(3))
        )
        stored.samples[[2, 8, 14]] = 3.0  # one per subject, so every fold's pool holds one
        flat_store = tmp_path / "flat.slpe"
        ep.write_store(stored, flat_store)
        code = main(["train", "--store", str(flat_store), "--out-dir", str(tmp_path / "runs"),
                     "--folds", "3", "--fold", "0", "--max-epochs", "1",
                     "--width-multiplier", "0.25"])
        assert code == 4
        assert "flat epoch" in capsys.readouterr().err

    def test_eval_on_quant_model(self, trained_setup, capsys):
        store_path, _, quant_path, _ = trained_setup
        assert main(["eval", "--store", str(store_path), "--model", str(quant_path)]) == 0
        assert "Accuracy" in capsys.readouterr().out

    def test_eval_subject_filter(self, trained_setup, tmp_path, capsys):
        store_path, model_path, _, _ = trained_setup
        prefix = tmp_path / "filtered"
        code = main(
            ["eval", "--store", str(store_path), "--model", str(model_path),
             "--subjects", "0,2", "--out-prefix", str(prefix)]
        )
        assert code == 0
        counts = counts_from_csv(Path(f"{prefix}_counts.csv").read_text())
        assert counts.sum() == 30  # two of the four 15-epoch subjects

    @pytest.mark.parametrize("subjects", ["1,x", "1,,2", ""])
    def test_eval_bad_subject_list_is_a_usage_error(self, trained_setup, subjects, capsys):
        store_path, model_path, _, _ = trained_setup
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--store", str(store_path), "--model", str(model_path),
                  "--subjects", subjects])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --subjects: expected comma-separated subject ids" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--folds", "0"),
            ("--batch-size", "0"),
            ("--width-multiplier", "0"),
            ("--width-multiplier", "nan"),
            ("--max-epochs", "0"),
        ],
    )
    def test_train_nonpositive_size_is_a_usage_error(
        self, trained_setup, tmp_path, capsys, flag, value
    ):
        out_dir = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--store", str(trained_setup[0]), "--out-dir", str(out_dir),
                  flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive number, got '{value}'" in err
        assert not out_dir.exists()

    def test_train_fold_out_of_range_writes_nothing(self, trained_setup, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["train", "--store", str(trained_setup[0]), "--out-dir", str(out_dir),
                     "--folds", "3", "--fold", "7"])
        assert code == 8
        assert "--fold 7 out of range for 3 folds" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_adapt_logs_split_sizes(self, trained_setup, tmp_path, capsys):
        store_path, model_path, _, _ = trained_setup
        adapted = tmp_path / "adapted.slpm"
        code = main(
            [
                "adapt",
                "--store", str(store_path),
                "--model", str(model_path),
                "--subject", "3",
                "--fraction", "0.1",
                "--epochs", "2",
                "--out", str(adapted),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 adaptation epochs (13%), 13 holdout" in out or "(10%)" in out
        assert "holdout accuracy before" in out
        assert adapted.exists()

    def test_adapt_stratified_flag(self, trained_setup, capsys):
        store_path, model_path, _, _ = trained_setup
        code = main(
            [
                "adapt",
                "--store", str(store_path),
                "--model", str(model_path),
                "--subject", "2",
                "--fraction", "0.2",
                "--stratified",
                "--epochs", "1",
            ]
        )
        assert code == 0

    def test_budget_human_output(self, trained_setup, capsys):
        _, _, quant_path, _ = trained_setup
        assert main(["budget", "--model", str(quant_path)]) == 0
        out = capsys.readouterr().out
        assert "fits: flash yes, ram yes" in out

    def test_budget_reads_the_model_once(self, trained_setup, capsys, monkeypatch):
        _, model_path, quant_path, _ = trained_setup
        read_slpm = model_mod.read_slpm
        calls = []

        def counting_read_slpm(*args, **kwargs):
            calls.append(args)
            return read_slpm(*args, **kwargs)

        monkeypatch.setattr(model_mod, "read_slpm", counting_read_slpm)
        # budget no longer imports read_slpm; the patch still covers it if it ever does
        monkeypatch.setattr(budget_mod, "read_slpm", counting_read_slpm, raising=False)
        for path in (model_path, quant_path):
            calls.clear()
            assert main(["budget", "--model", str(path)]) == 0
            assert len(calls) == 1, path

    def test_budget_kv_output(self, trained_setup, capsys):
        _, model_path, _, _ = trained_setup
        assert main(["budget", "--model", str(model_path), "--kv"]) == 0
        kv = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert kv["profile"] == "nano33ble"
        assert kv["fits_ram"] == "true"

    def test_report_renders_counts(self, trained_setup, tmp_path, capsys):
        store_path, model_path, _, _ = trained_setup
        prefix = tmp_path / "rep"
        main(["eval", "--store", str(store_path), "--model", str(model_path),
              "--out-prefix", str(prefix)])
        capsys.readouterr()
        code = main(["report", "--counts", f"{prefix}_counts.csv", "--style", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("confusion_row,")

    @pytest.mark.parametrize(
        "wake_row, message",
        [
            ("5,-3,0,0,0", "negative count"),
            (f"{2**63 - 1},{2**63 - 1},0,0,0", "does not fit int64"),
            ("x,0,0,0,0", "non-integer count"),
            ("99999999999999999999999,0,0,0,0", "does not fit int64"),
        ],
        ids=["negative", "int64-total-overflow", "not-a-number", "cell-past-int64"],
    )
    def test_report_rejects_bad_counts(self, tmp_path, capsys, wake_row, message):
        path = tmp_path / "counts.csv"
        path.write_text(
            "actual,Wake,N1,N2,N3,REM\n"
            f"Wake,{wake_row}\nN1,0,1,0,0,0\nN2,0,0,1,0,0\nN3,0,0,0,1,0\nREM,0,0,0,0,1\n"
        )
        assert main(["report", "--counts", str(path)]) == 11
        out, err = capsys.readouterr()
        assert out == "" and message in err


@pytest.fixture(scope="module")
def night_stores(tmp_path_factory):
    """Two night stores of four subjects each, one store of both nights in
    the same order, and an untrained width-0.25 model."""
    tmp = tmp_path_factory.mktemp("nights")
    nights = [
        join_epochs(
            *(make_synth_epochs(9, seed=40 + 4 * night + s, subject_id=s, night=night)
              for s in range(4))
        )
        for night in (1, 2)
    ]
    paths = [tmp / "night1.slpe", tmp / "night2.slpe"]
    for records, path in zip(nights, paths):
        ep.write_store(records, path)
    both = tmp / "both.slpe"
    ep.write_store(join_epochs(*nights), both)
    config = ArchConfig(width_multiplier=0.25)
    model_path = tmp / "m.slpm"
    save_model(init_params(config, 5), config, model_path)
    return paths, both, model_path


def adapt_argv(stores, model_path, *flags):
    return ["adapt", "--store", *map(str, stores), "--model", str(model_path),
            "--subject", "2", "--fraction", "0.25", "--epochs", "2", "--seed", "3", *flags]


@pytest.mark.parametrize("command", ["train", "adapt"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    """--seed -1 exits 2 naming the flag, before the store is read (it does
    not exist here) and before anything is written."""
    store, out = tmp_path / "absent.slpe", tmp_path / "out"
    argv = {
        "train": ["train", "--store", str(store), "--out-dir", str(out)],
        "adapt": ["adapt", "--store", str(store), "--model", str(tmp_path / "absent.slpm"),
                  "--subject", "1", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative number, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestAdaptArguments:
    def test_negative_epochs_is_a_usage_error(self, night_stores, tmp_path, capsys):
        """--epochs -3 exits 2 and writes nothing; --epochs 0 writes the
        model unadapted."""
        paths, _, model_path = night_stores
        out = tmp_path / "adapted.slpm"
        with pytest.raises(SystemExit) as exc:
            main(adapt_argv(paths, model_path, "--epochs", "-3", "--out", str(out)))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --epochs: expected a non-negative number, got '-3'" in err
        assert not out.exists()
        assert main(adapt_argv(paths, model_path, "--epochs", "0", "--out", str(out))) == 0
        (before, _), (after, _) = load_model(model_path), load_model(out)
        assert all(np.array_equal(before[n], after[n]) for n in before.names())

    @pytest.mark.parametrize("flags", [(), ("--stratified",)], ids=["uniform", "stratified"])
    def test_split_without_holdout_exits_8(self, night_stores, tmp_path, capsys, flags):
        """--fraction 0.99 of subject 2's 18 epochs picks all 18: exit 8,
        nothing on stdout and no --out file."""
        paths, _, model_path = night_stores
        out = tmp_path / "adapted.slpm"
        argv = adapt_argv(paths, model_path, "--fraction", "0.99", "--out", str(out), *flags)
        assert main(argv) == 8
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fraction 0.99 leaves no holdout epochs from 18\n"
        assert not out.exists()

    def test_overflowing_gradient_exits_8(self, night_stores, tmp_path, capsys):
        """A finite model whose conv4 bias is 1e36 gives gradients whose
        square overflows float32: exit 8 with one stderr line naming the
        tensor, no warning and no --out file (it used to warn, freeze those
        weights and exit 0)."""
        paths, _, model_path = night_stores
        params, config = load_model(model_path)
        params.tensors["conv4_b"] = np.full_like(params["conv4_b"], 1e36)
        huge = tmp_path / "huge.slpm"
        save_model(params, config, huge)
        out = tmp_path / "adapted.slpm"
        assert main(adapt_argv(paths, huge, "--out", str(out))) == 8
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: Adam's second moment of \w+ is not finite\n", err), err
        assert not out.exists()

    def test_adapt_holds_the_store_once(self, two_subject_stores, tmp_path, capsys):
        """Subject, adaptation and holdout epochs are rows of the store, so
        the peak above the store stays below one subject's records."""
        config = ArchConfig(width_multiplier=0.25)
        model_path = tmp_path / "m.slpm"
        save_model(init_params(config, 5), config, model_path)
        store_bytes = sum(p.stat().st_size for p in two_subject_stores)
        subject_bytes = 1000 * ep.STORE_RECORD.itemsize
        tracemalloc.start()
        try:  # a small --fraction keeps the one training epoch short; copies would not shrink
            code = main(["adapt", "--store", *map(str, two_subject_stores), "--model",
                         str(model_path), "--subject", "1", "--epochs", "1", "--fraction", "0.05"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - store_bytes < subject_bytes


class TestSeveralStores:
    """train and adapt read several --store paths as one store holding
    their records in the order given."""

    def test_train_over_two_stores_equals_train_over_their_join(self, night_stores, tmp_path):
        paths, both, _ = night_stores
        flags = ["--folds", "2", "--fold", "0", "--seed", "1", "--max-epochs", "1",
                 "--batch-size", "16", "--width-multiplier", "0.25"]
        for name, stores in (("split", paths), ("joined", [both])):
            argv = ["train", "--store", *map(str, stores), "--out-dir", str(tmp_path / name)]
            assert main(argv + flags) == 0
        for artifact in ("model_fold0.slpm", "history_fold0.csv", "folds.txt"):
            split = (tmp_path / "split" / artifact).read_bytes()
            assert split == (tmp_path / "joined" / artifact).read_bytes(), artifact

    def test_adapt_over_two_stores_equals_adapt_over_their_join(
        self, night_stores, tmp_path, capsys
    ):
        paths, both, model_path = night_stores
        outputs = {}
        for name, stores in (("split", paths), ("joined", [both])):
            prefix, adapted = tmp_path / name, tmp_path / f"{name}.slpm"
            argv = adapt_argv(stores, model_path, "--out-prefix", str(prefix), "--out", str(adapted))
            assert main(argv) == 0
            outputs[name] = (
                capsys.readouterr().out.replace(str(adapted), "ADAPTED"),
                Path(f"{prefix}_before_counts.csv").read_text(),
                Path(f"{prefix}_after_counts.csv").read_text(),
                adapted.read_bytes(),
            )
        assert outputs["split"] == outputs["joined"]

    def test_adapt_counts_match_the_printed_split_and_accuracies(
        self, night_stores, tmp_path, capsys
    ):
        paths, _, model_path = night_stores
        prefix = tmp_path / "counts" / "s2"
        assert main(adapt_argv(paths, model_path, "--out-prefix", str(prefix))) == 0
        out = capsys.readouterr().out
        holdout = int(re.search(r"(\d+) holdout", out).group(1))
        before, after = map(float, re.search(r"before ([\d.]+) -> after ([\d.]+)", out).groups())
        for tag, accuracy in (("before", before), ("after", after)):
            cm = counts_from_csv(Path(f"{prefix}_{tag}_counts.csv").read_text())
            assert cm.sum() == holdout
            assert f"{np.trace(cm) / holdout:.3f}" == f"{accuracy:.3f}"

    @pytest.mark.parametrize("command", ["train", "adapt"])
    def test_bad_second_store_exits_as_a_single_one(self, night_stores, tmp_path, command):
        paths, _, model_path = night_stores
        corrupt = tmp_path / "corrupt.slpe"
        corrupt.write_bytes(paths[1].read_bytes() + b"!")
        missing = tmp_path / "missing.slpe"

        def run(*stores):
            if command == "adapt":
                return main(adapt_argv(stores, model_path))
            return main(["train", "--store", *map(str, stores), "--out-dir",
                         str(tmp_path / "runs"), "--folds", "2", "--max-epochs", "1"])

        for bad, code in ((missing, 13), (corrupt, 5)):
            assert run(bad) == code
            assert run(paths[0], bad) == code
        assert not (tmp_path / "runs").exists()


class TestStreamCommand:
    def test_float32_feed_matches_batch(self, trained_setup, capsys, monkeypatch):
        store_path, model_path, _, _ = trained_setup
        stored = ep.read_store(store_path)[:3]
        feed = np.concatenate([e.samples for e in stored]).astype("<f4").tobytes()

        class FakeStdin:
            buffer = io.BytesIO(feed)

        monkeypatch.setattr("sys.stdin", FakeStdin)
        assert main(["stream", "--model", str(model_path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        params, config = load_model(model_path)
        for e, line in zip(stored, lines):
            probs, _ = forward(params, ep.standardize(e.samples), config)
            fields = line.split("\t")
            assert fields[1] == ep.STAGE_NAMES[int(np.argmax(probs))]
            assert fields[2:] == [f"{p:.6f}" for p in probs]

    def test_int16_feed(self, trained_setup, capsys, monkeypatch):
        _, model_path, _, _ = trained_setup
        rng = np.random.default_rng(99)
        feed = rng.integers(-2048, 2048, size=3000, dtype="<i2").tobytes()

        class FakeStdin:
            buffer = io.BytesIO(feed)

        monkeypatch.setattr("sys.stdin", FakeStdin)
        code = main(
            ["stream", "--model", str(model_path), "--int16", "-2048", "2047", "-200", "200"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_int16_feed_gives_the_stored_epochs_bits(
        self, trained_setup, tmp_path, psg_file, capsys, monkeypatch
    ):
        """The Fpz-Cz digital samples of a PSG, streamed as int16 with the
        header's scaling, decide each window from the bits `convert` stored
        for it: the probabilities equal `predict` on that row exactly."""
        _, model_path, _, _ = trained_setup
        store = tmp_path / "night.slpe"
        assert main(["convert", str(psg_file), "--hypnogram", str(hypnogram_file(tmp_path)),
                     "--subject", "1", "--out", str(store)]) == 0
        with parse_edf(psg_file) as psg:
            sig = psg.header.signals[psg.signal_index("EEG Fpz-Cz")]
            feed = psg.read_digital("EEG Fpz-Cz").astype("<i2").tobytes()
        decisions = []

        def record(decision):
            decisions.append(decision)
            return decision_line(decision)

        monkeypatch.setattr(streaming, "decision_line", record)
        # the physical bounds in exponent form, each as a separate argument
        code, _, _ = run_stream(
            monkeypatch, capsys, model_path, PipeStdin(feed, 401), "--int16",
            str(sig.digital_min), str(sig.digital_max),
            f"{sig.physical_min:e}", f"{sig.physical_max:e}",
        )
        assert code == 0
        stored = ep.read_store(store)
        params, config = load_model(model_path)
        want = dict(zip(stored.epoch_index.tolist(),
                        predict(params, config, stored.samples, np.arange(len(stored)))))
        # window 4 is movement time, so it has no row
        assert [d.epoch_index for d in decisions] == list(range(6))
        assert sorted(want) == [0, 1, 2, 3, 5]
        for d in decisions:
            if d.epoch_index in want:
                assert np.array_equal(d.probs, want[d.epoch_index]), d.epoch_index

    @pytest.mark.parametrize("value, parsed", [("-3.2768e3", -3276.8), ("-inf", None)])
    def test_negative_bound_as_a_separate_argument(self, capsys, value, parsed):
        """A negative number, in exponent form too, is one of the option's
        values; -inf is not a number by that rule, so it reads as an option."""
        argv = ["stream", "--model", "m.slpm", "--int16", "-32768", "32767", value, "3276.7"]
        if parsed is None:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "argument --int16: expected 4 arguments" in capsys.readouterr().err
        else:
            args = cli.build_parser().parse_args(argv)
            assert (args.int16[0], args.int16[2]) == (-32768, parsed)

    def test_rate_is_a_usage_error(self, trained_setup, capsys):
        _, model_path, _, _ = trained_setup
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--model", str(model_path), "--rate", "100"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rate 100" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phys_min, phys_max", [("5", "5"), ("nan", "200"), ("-200", "inf"), ("-1e308", "1e308")],
        ids=["empty", "nan-min", "inf-max", "overflowing-width"],
    )
    def test_int16_bad_physical_range_exits_10(
        self, trained_setup, capsys, monkeypatch, phys_min, phys_max
    ):
        _, model_path, _, _ = trained_setup
        feed = np.arange(ep.EPOCH_SAMPLES, dtype="<i2").tobytes()
        code, out, err = run_stream(
            monkeypatch, capsys, model_path, PipeStdin(feed, len(feed)),
            "--int16", "-2048", "2047", phys_min, phys_max,
        )
        assert (code, out) == (10, "")
        assert err == (
            f"error: --int16: physical range {float(phys_min)}..{float(phys_max)} "
            "is empty or not finite"
        )

    def test_int16_equal_digital_range_exits_10(self, trained_setup, capsys, monkeypatch):
        _, model_path, _, _ = trained_setup
        feed = np.arange(10, dtype="<i2").tobytes()
        code, out, err = run_stream(
            monkeypatch, capsys, model_path, PipeStdin(feed, len(feed)),
            "--int16", "5", "5", "0", "1",
        )
        assert (code, out) == (10, "")
        assert err == "error: --int16: digital_min 5.0 must be < digital_max 5.0"

    def test_int16_reversed_digital_range_exits_10_before_reading(
        self, trained_setup, capsys, monkeypatch
    ):
        _, model_path, _, _ = trained_setup
        stdin = PipeStdin(np.arange(ep.EPOCH_SAMPLES, dtype="<i2").tobytes(), 401)
        code, out, err = run_stream(
            monkeypatch, capsys, model_path, stdin, "--int16", "2047", "-2048", "-200", "200"
        )
        assert (code, out) == (10, "")
        assert err == "error: --int16: digital_min 2047.0 must be < digital_max -2048.0"
        assert stdin.reads == 0

    def test_int16_requires_scaling_flags(self, trained_setup, capsys, monkeypatch):
        """--int16 takes all four bounds: three are a usage error."""
        _, model_path, _, _ = trained_setup
        stdin = PipeStdin(np.arange(10, dtype="<i2").tobytes(), 20)
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--model", str(model_path), "--int16", "-2048", "2047", "-200"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert stdin.reads == 0


class PipeStdin:
    """Binary stdin over a pipe whose writer sends `chunk` bytes at a time.

    `read1` returns the next chunk as it arrives; `read(n)` waits for n bytes
    or EOF, as `BufferedReader.read` does on a pipe.  `reads` counts the
    chunks handed out so far."""

    def __init__(self, data: bytes, chunk: int):
        self.chunks = [data[i : i + chunk] for i in range(0, len(data), chunk)]
        self.reads = 0

    def read1(self, n: int = -1) -> bytes:
        if self.reads == len(self.chunks):
            return b""
        self.reads += 1
        return self.chunks[self.reads - 1]

    def read(self, n: int = -1) -> bytes:
        out = b""
        while (n < 0 or len(out) < n) and self.reads < len(self.chunks):
            out += self.read1()
        return out


class ReadOnlyStdin:
    """Binary stdin with `read` alone, serving one chunk per call."""

    def __init__(self, data: bytes, chunk: int):
        self.pipe = PipeStdin(data, chunk)

    def read(self, n: int = -1) -> bytes:
        return self.pipe.read1(n)


def run_stream(monkeypatch, capsys, model_path, stdin, *flags):
    """(exit code, stdout, first stderr line) of one `stream` run."""
    monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
    code = main(["stream", "--model", str(model_path), *flags])
    out, err = capsys.readouterr()
    return code, out, err.partition("\n")[0]


INT16_FLAGS = ("--int16", "-2048", "2047", "-200", "200")


class TestStreamFeed:
    def test_non_finite_window_is_unscorable_and_the_feed_goes_on(
        self, trained_setup, capsys, monkeypatch
    ):
        store_path, model_path, _, _ = trained_setup
        stored = ep.read_store(store_path)[:3]
        feed = np.concatenate([e.samples for e in stored]).astype("<f4")
        assert len(feed) == 9000
        feed[3000 + 1700] = np.nan
        code, out, _ = run_stream(monkeypatch, capsys, model_path, PipeStdin(feed.tobytes(), 400))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert [line.split("\t")[1] == "unscorable" for line in lines] == [False, True, False]
        params, config = load_model(model_path)
        probs, _ = forward(params, ep.standardize(stored[2].samples), config)
        assert lines[2].split("\t")[2:] == [f"{p:.6f}" for p in probs]

    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000], ids=["signaling", "quiet"])
    def test_nan_sample_is_unscorable_without_a_warning(
        self, trained_setup, capsys, monkeypatch, bits
    ):
        store_path, model_path, _, _ = trained_setup
        stored = ep.read_store(store_path)[:2]
        feed = np.concatenate([e.samples for e in stored]).astype("<f4")
        feed.view("<u4")[1700] = bits
        stdin = PipeStdin(feed.tobytes(), 400)
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["stream", "--model", str(model_path)])
        out, err = capsys.readouterr()
        assert code == 0
        assert [line.split("\t")[1] == "unscorable" for line in out.splitlines()] == [True, False]
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0] == "stream ended: 2 decisions, 0 samples buffered"
        assert lines[1].startswith("latency_ms count=1 ")

    def test_decision_printed_before_next_read(self, trained_setup, monkeypatch):
        store_path, model_path, _, _ = trained_setup
        stored = ep.read_store(store_path)[:3]
        # 400 B = 100 float32 samples = 1 s at 100 Hz; a window is 30 reads
        stdin = PipeStdin(np.concatenate([e.samples for e in stored]).astype("<f4").tobytes(), 400)
        reads_at_line = []

        class Stdout(io.StringIO):
            def write(self, text):
                if text.endswith("\n"):
                    reads_at_line.append(stdin.reads)
                return super().write(text)

        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
        monkeypatch.setattr("sys.stdout", Stdout())
        assert main(["stream", "--model", str(model_path)]) == 0
        assert reads_at_line == [30, 60, 90]

    def test_read_only_stdin_gives_same_output(self, trained_setup, capsys, monkeypatch):
        store_path, model_path, _, _ = trained_setup
        samples = np.concatenate([e.samples for e in ep.read_store(store_path)[:2]])
        # 3-byte reads end mid-sample in both formats
        for flags, feed in [((), samples.astype("<f4")),
                            (INT16_FLAGS, np.round(samples * 40).astype("<i2"))]:
            feed = feed.tobytes()
            piped = run_stream(monkeypatch, capsys, model_path, PipeStdin(feed, 400), *flags)
            read_only = run_stream(monkeypatch, capsys, model_path, ReadOnlyStdin(feed, 3), *flags)
            assert read_only == piped
            assert piped[0] == 0 and len(piped[1].splitlines()) == 2

    def test_stdout_bytes_and_stderr_summary(self, trained_setup, capsys, monkeypatch):
        store_path, _, quant_path, _ = trained_setup
        stored = ep.read_store(store_path)[:2]
        windows = [stored[0].samples, np.full(ep.EPOCH_SAMPLES, 3.0, np.float32), stored[1].samples]
        feed = np.concatenate(windows + [np.ones(5, np.float32)]).astype("<f4").tobytes()
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": PipeStdin(feed, 400)}))
        assert main(["stream", "--model", str(quant_path)]) == 0
        out, err = capsys.readouterr()
        _, qm, _ = load_any_model(quant_path)
        expected = []
        for k, window in enumerate(windows):
            if k == 1:
                decision = StageDecision(k, None, None, 0.0)
            else:
                probs, _ = forward(qm.dequantize(), ep.standardize(window), qm.config)
                decision = StageDecision(k, ep.SleepStage(int(np.argmax(probs))), probs, 0.0)
            expected.append(decision_line(decision) + "\n")
        assert out == "".join(expected)
        ended, summary = err.splitlines()
        assert ended == "stream ended: 3 decisions, 5 samples buffered"
        name, *pairs = summary.split(" ")
        fields = dict(pair.split("=") for pair in pairs)
        assert name == "latency_ms" and list(fields) == ["count", "p50", "p99", "max"]
        assert fields["count"] == "2"
        assert 0 < float(fields["p50"]) <= float(fields["p99"]) <= float(fields["max"])

    def test_int16_sample_split_across_reads(self, trained_setup, capsys, monkeypatch):
        _, model_path, _, _ = trained_setup
        rng = np.random.default_rng(98)
        feed = rng.integers(-2048, 2048, size=2 * ep.EPOCH_SAMPLES + 9, dtype="<i2").tobytes()
        whole = run_stream(monkeypatch, capsys, model_path, PipeStdin(feed, len(feed)), *INT16_FLAGS)
        split = run_stream(monkeypatch, capsys, model_path, PipeStdin(feed, 401), *INT16_FLAGS)
        assert split == whole
        assert whole[0] == 0 and len(whole[1].splitlines()) == 2
        assert whole[2] == "stream ended: 2 decisions, 9 samples buffered"

    def test_int16_constant_level_is_unscorable(self, trained_setup, capsys, monkeypatch):
        # level -2041 scales to a float64 constant whose mean is inexact
        _, model_path, _, _ = trained_setup
        feed = np.full(ep.EPOCH_SAMPLES, -2041, dtype="<i2").tobytes()
        code, out, _ = run_stream(monkeypatch, capsys, model_path, PipeStdin(feed, 401), *INT16_FLAGS)
        assert code == 0
        assert out.split("\t")[:2] == ["0", "unscorable"]

    def test_odd_trailing_byte_exits_10(self, trained_setup, capsys, monkeypatch):
        _, model_path, _, _ = trained_setup
        feed = np.zeros(ep.EPOCH_SAMPLES + 2, dtype="<i2").tobytes() + b"\x01"
        for stdin in PipeStdin(feed, 401), ReadOnlyStdin(feed, 3):
            code, out, err = run_stream(monkeypatch, capsys, model_path, stdin, *INT16_FLAGS)
            assert code == 10
            assert out.split("\t")[:2] == ["0", "unscorable"]
            assert "1 trailing bytes" in err


# Byte offsets in the SLPM architecture block of a four-conv model: magic
# and version/flags take 8 bytes, the conv count 4, then (kernel, stride,
# channels) per conv and d_model, heads, ffn_dim, n_classes, width.
CONV1_KERNEL, CONV1_STRIDE = 12, 16
HEADS, WIDTH = 64, 76


class TestBadArchitectureBlock:
    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (HEADS, "<I", 0),
            (CONV1_STRIDE, "<I", 0),
            (CONV1_KERNEL, "<I", 0),
            (CONV1_KERNEL, "<I", ep.EPOCH_SAMPLES + 1),
            (WIDTH, "<f", float("nan")),
        ],
        ids=["heads-0", "conv1-stride-0", "conv1-kernel-0", "conv1-kernel-too-long", "width-nan"],
    )
    def test_budget_and_eval_exit_6(self, tmp_path, capsys, offset, fmt, value):
        config = ArchConfig(width_multiplier=0.25)
        model_path = tmp_path / "m.slpm"
        save_model(init_params(config, 0), config, model_path)
        raw = bytearray(model_path.read_bytes())
        assert struct.unpack_from("<3I", raw, CONV1_KERNEL) == (50, 6, 32)
        assert struct.unpack_from("<4If", raw, HEADS - 4) == (128, 4, 256, 5, 0.25)
        struct.pack_into(fmt, raw, offset, value)
        model_path.write_bytes(bytes(raw))
        store_path = tmp_path / "s.slpe"
        ep.write_store(make_synth_epochs(2, seed=99), store_path)
        assert main(["budget", "--model", str(model_path)]) == 6
        assert "invalid architecture block" in capsys.readouterr().err
        assert main(["eval", "--store", str(store_path), "--model", str(model_path)]) == 6
        assert "invalid architecture block" in capsys.readouterr().err


FLAGS = 6  # byte offset of the SLPM header's u16 flags


def _float_entries(config):
    return [(n, a, None) for n, a in init_params(config, 0).astype(np.float32).tensors.items()]


def _write_float(config, path, edit):
    write_slpm(path, config, edit(_float_entries(config)))


def _patch_flags(save, flags):
    def build(config, path):
        save(init_params(config, 0), config, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, FLAGS, flags)
        path.write_bytes(bytes(raw))

    return build


def _save_int8(params, config, path):
    save_quant_model(quantize_model(params, config), path)


EXTRA = ("extra_w", np.zeros(2, np.float32), None)


def _non_ascii_name(config, path):
    _write_float(config, path, lambda e: e + [EXTRA])
    path.write_bytes(path.read_bytes().replace(b"extra_w", b"extra\xffw"))


def _float_inf_weight(config, path):
    params = init_params(config, 0)
    params.tensors["conv2_w"][1, 2, 3] = np.inf
    save_model(params, config, path)


def _int8_conv1_scale(scale):
    def build(config, path):
        qm = quantize_model(init_params(config, 0), config)
        entries = [(n, qt.values, scale if n == "conv1_w" else qt.scale)
                   for n, qt in qm.quantized.items()]
        write_slpm(path, config, entries + [(n, a, None) for n, a in qm.retained.items()])
    return build


def _heads_8(config, path):
    # a block the program cannot write: the tensors' shapes are those of 4 heads
    save_model(init_params(config, 0), config, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, HEADS, 8)
    path.write_bytes(bytes(raw))


CRAFTED_MODELS = {
    "heads-8": (_heads_8, "invalid architecture block: heads 8, the network has 4"),
    "unexpected": (
        lambda c, p: _write_float(c, p, lambda e: e + [EXTRA]), "unexpected tensor 'extra_w'"
    ),
    "non-ascii-name": (_non_ascii_name, "unexpected tensor 'extra\ufffdw'"),
    "duplicated": (
        lambda c, p: _write_float(c, p, lambda e: e + e[-1:]), "duplicated tensor 'cls_b'"
    ),
    "missing": (lambda c, p: _write_float(c, p, lambda e: e[:-1]), r"missing tensors: \['cls_b'\]"),
    "wrong-shape": (
        lambda c, p: _write_float(c, p, lambda e: e[:-1] + [("cls_b", e[-1][1][:1], None)]),
        r"tensor cls_b: shape \(1,\) != expected \(5,\)",
    ),
    "int8-flag-cleared": (
        _patch_flags(_save_int8, 0), "header flag says float32, but some tensor is int8"
    ),
    "float-flag-set": (_patch_flags(save_model, 1), "header flag says int8, but no tensor is int8"),
    "float-inf-weight": (_float_inf_weight, "tensor conv2_w holds non-finite values"),
    "int8-nan-scale": (_int8_conv1_scale(float("nan")), "tensor conv1_w: int8 scale nan is not positive"),
    # 127 * 1e37 is past float32's largest value
    "int8-huge-scale": (
        _int8_conv1_scale(1e37),
        r"tensor conv1_w: int8 scale 9\.99\d*e\+36 overflows float32 when dequantized",
    ),
}


class TestCraftedModelFile:
    """Every command that opens a model file rejects a malformed one with
    ModelFormatError (exit 6) before it prints anything."""

    @pytest.mark.parametrize("craft", list(CRAFTED_MODELS))
    def test_every_command_exits_6(self, tmp_path, capsys, monkeypatch, craft):
        build, message = CRAFTED_MODELS[craft]
        config = ArchConfig(width_multiplier=0.25)
        model_path = tmp_path / "m.slpm"
        build(config, model_path)
        store_path = tmp_path / "s.slpe"
        ep.write_store(make_synth_epochs(10, seed=97), store_path)
        feed = PipeStdin(np.zeros(ep.EPOCH_SAMPLES, "<f4").tobytes(), 400)
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": feed}))
        model = ["--model", str(model_path)]
        commands = {
            "budget": ["budget", *model],
            "eval": ["eval", "--store", str(store_path), *model],
            "quantize": ["quantize", *model, "--out", str(tmp_path / "q.slpm")],
            "adapt": ["adapt", "--store", str(store_path), *model, "--subject", "0"],
            "stream": ["stream", *model],
        }
        for name, argv in commands.items():
            assert main(argv) == 6, name
            out, err = capsys.readouterr()
            assert out == "", name
            assert re.search(message, err), (name, err)
        assert not (tmp_path / "q.slpm").exists()


class TestRemovedFlags:
    """The text hypnogram, the device-profile flags, the fine-tune scope,
    the learning rate and stream's separate scaling flags (--int16 takes the
    four bounds) are gone: each is a usage error that writes nothing."""

    @pytest.mark.parametrize(
        "flag", ["--hypnogram-txt", "--scope", "--profile", "--profiles-file", "--learning-rate",
                 "--dig-min", "--dig-max", "--phys-min", "--phys-max"]
    )
    def test_is_a_usage_error(self, night_stores, psg_file, tmp_path, capsys, flag):
        paths, _, model_path = night_stores
        sidecar = tmp_path / "hyp.txt"
        sidecar.write_text("0,180,Sleep stage 2\n")
        profiles = tmp_path / "boards.profiles"
        profiles.write_text("nano33ble 1048576 262144 64000000\n")
        out = tmp_path / "out"
        argv = {
            "--hypnogram-txt": ["convert", str(psg_file), "--hypnogram",
                                str(hypnogram_file(tmp_path)), "--hypnogram-txt", str(sidecar),
                                "--subject", "1", "--out", str(out)],
            "--scope": adapt_argv(paths, model_path, "--scope", "all", "--out", str(out)),
            "--profile": ["budget", "--model", str(model_path), "--profile", "nano33ble"],
            "--profiles-file": ["budget", "--model", str(model_path),
                                "--profiles-file", str(profiles)],
            "--learning-rate": ["train", "--store", str(paths[0]), "--out-dir", str(out),
                                "--learning-rate", "1e-3"],
        }.get(flag, ["stream", "--model", str(model_path), flag, "5"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} " in captured.err
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[list[str]]:
    """The arguments of each `edgesleep ...` line of the README's CLI block,
    `\\` continuations joined and shell redirections dropped."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [
        shlex.split(re.sub(r"\s[<>]+\s*\S+", "", line))[1:]
        for line in lines
        if line.startswith("edgesleep ")
    ]


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in readme_cli_examples()} == {
            "convert", "train", "eval", "adapt", "quantize", "budget", "stream", "report"
        }

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
    def test_example_parses(self, argv):
        cli.build_parser().parse_args(argv)  # a usage error raises SystemExit

    def test_cli_section_names_every_option(self):
        """The CLI section names every option the parser defines, and any
        other `--flag` only as absent, in the form "no `--x` option"."""
        section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        absent = set(re.findall(r"no `(--[a-z][a-z0-9-]*)` option", section))
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        defined = {
            option
            for command in commands.choices.values()
            for action in command._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert defined - named == set()
        assert named - defined == absent

    def test_every_python_api_name_resolves(self):
        paragraph = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
        names = set(re.findall(r"\bedgesleep\.\w+(?:\.\w+)*", paragraph))
        assert "edgesleep.model.predict" in names
        for name in sorted(names):
            _, module, *attrs = name.split(".")
            value = importlib.import_module(f"edgesleep.{module}")
            for attr in attrs:
                value = getattr(value, attr)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestPackageRoot:
    def test_root_loads_its_modules_and_binds_no_function(self):
        result = run_python("-c", (
            "import json, sys, types, edgesleep\n"
            "print(json.dumps({\n"
            "    'loaded': sorted(n for n in sys.modules if n.startswith('edgesleep.')),\n"
            "    'bound': sorted(n for n, v in vars(edgesleep).items()\n"
            "                    if not n.startswith('__') and not isinstance(v, types.ModuleType)),\n"
            "}))"
        ))
        assert result.returncode == 0 and result.stderr == "", result.stderr
        got = json.loads(result.stdout)
        traced = {"kernels", "model", "training", "streaming", "edf", "epochs", "quant", "metrics"}
        assert {f"edgesleep.{m}" for m in traced} <= set(got["loaded"])
        # loading cli here would make `python -m edgesleep.cli` warn on every run
        assert "edgesleep.cli" not in got["loaded"]
        assert got["bound"] == []

    def test_module_entry_point_runs_without_a_warning(self):
        result = run_python("-m", "edgesleep.cli", "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage:")


EXIT_CASES = [(exc_type("boom"), code) for exc_type, code in cli.EXIT_CODES] + [
    (ep.DegenerateEpochError("boom"), 4),
    (UnknownChannelError("boom"), 3),
    (FileNotFoundError("boom"), 13),
    (RuntimeError("boom"), 1),
]


class TestErrorSurface:
    @pytest.mark.parametrize(
        "exc, code", EXIT_CASES, ids=[type(exc).__name__ for exc, _ in EXIT_CASES]
    )
    def test_exit_code_table(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_report", fail)
        assert main(["report", "--counts", "unused.csv"]) == code
        assert capsys.readouterr() == ("", "error: boom\n")

    def test_missing_file_is_oserror_code(self, tmp_path):
        assert main(["eval", "--store", str(tmp_path / "nope.slpe"),
                     "--model", str(tmp_path / "nope.slpm")]) == 13

    @pytest.mark.parametrize(
        "offset, value, code, message",
        [
            (16 + 12008 + 3, b"\x05", 5, "invalid stage byte 5"),  # record 1's stage byte
            (16 + 8 + 4 * 17, struct.pack("<f", float("nan")), 4, "non-finite"),  # a sample
        ],
        ids=["stage-5", "nan-sample"],
    )
    def test_bad_store_content_code(self, tmp_path, capsys, offset, value, code, message):
        store = tmp_path / "s.slpe"
        ep.write_store(make_synth_epochs(3, seed=98), store)
        raw = bytearray(store.read_bytes())
        raw[offset : offset + len(value)] = value
        store.write_bytes(bytes(raw))
        model_path = tmp_path / "m.slpm"
        config = ArchConfig(width_multiplier=0.25)
        save_model(init_params(config, 0), config, model_path)
        assert main(["eval", "--store", str(store), "--model", str(model_path)]) == code
        assert message in capsys.readouterr().err

    def test_bad_store_magic_code(self, tmp_path):
        bad = tmp_path / "bad.slpe"
        bad.write_bytes(b"XXXX" + bytes(32))
        model_path = tmp_path / "m.slpm"
        config = ArchConfig(width_multiplier=0.25)
        save_model(init_params(config, 0).astype(np.float32), config, model_path)
        assert main(["eval", "--store", str(bad), "--model", str(model_path)]) == 5

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "stream"])
    def test_overflowing_model_prints_one_line(self, tmp_path, capsys, monkeypatch, command):
        """A finite conv4 bias of 1e38 overflows layer_norm's sum: the
        typed error is the only line on stderr, with no numpy warning."""
        config = ArchConfig(width_multiplier=0.25)
        params = init_params(config, 0)
        params.tensors["conv4_b"][:] = 1e38
        model_path = tmp_path / "m.slpm"
        save_model(params, config, model_path)
        store = tmp_path / "s.slpe"
        ep.write_store(make_synth_epochs(3, seed=96), store)
        feed = np.random.default_rng(96).normal(size=ep.EPOCH_SAMPLES).astype("<f4")
        stdin = PipeStdin(feed.tobytes(), 400)
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
        argv = {"eval": ["eval", "--store", str(store)], "stream": ["stream"]}[command]
        assert main([*argv, "--model", str(model_path)]) == 12
        assert capsys.readouterr() == ("", "error: layer_norm produced non-finite values\n")

    def test_int16_scaling_past_float32_is_unscorable(self, tmp_path, capsys, monkeypatch):
        """Samples scaled past float32's range make the window unscorable;
        stderr holds only the two summary lines."""
        config = ArchConfig(width_multiplier=0.25)
        model_path = tmp_path / "m.slpm"
        save_model(init_params(config, 0), config, model_path)
        feed = np.random.default_rng(95).integers(-2048, 2048, ep.EPOCH_SAMPLES, dtype="<i2")
        stdin = PipeStdin(feed.tobytes(), 401)
        monkeypatch.setattr("sys.stdin", type("Stdin", (), {"buffer": stdin}))
        code = main(["stream", "--model", str(model_path), "--int16", "-2048", "2047",
                     "-1e300", "1e300"])
        assert code == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and out.split("\t")[:2] == ["0", "unscorable"]
        assert err.splitlines() == [
            "stream ended: 1 decisions, 0 samples buffered",
            "latency_ms count=0 p50=nan p99=nan max=nan",
        ]

    def test_model_length_beyond_file_code(self, tmp_path, capsys):
        config = ArchConfig(width_multiplier=0.25)
        model_path = tmp_path / "m.slpm"
        save_model(init_params(config, 0).astype(np.float32), config, model_path)
        model_path.write_bytes(claim_tensor_length(model_path.read_bytes(), "cls_w", 2**40))
        assert main(["budget", "--model", str(model_path)]) == 6
        assert "truncated" in capsys.readouterr().err
