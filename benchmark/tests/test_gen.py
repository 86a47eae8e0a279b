"""The generator is deterministic per seed and its ground truth matches what
the program makes of its files."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import gen
from edgesleep import cli, epochs, model, quant

SMALL = gen.Sizes(
    train_epochs_per_subject=4,
    score_nights=2,
    score_night_windows=400,
    stream_windows=20,
    stream_flat_windows=3,
)


def generate(workload: str, seed: int, out: Path) -> dict:
    return gen.generate(workload, seed, out, SMALL)


def files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.mark.parametrize("workload", sorted(gen.MAKERS))
def test_same_seed_same_bytes(tmp_path, workload):
    a = generate(workload, 5, tmp_path / "a")
    b = generate(workload, 5, tmp_path / "b")
    c = generate(workload, 6, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert a["main"] == b["main"]
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_night_size_does_not_depend_on_seed():
    kept = {
        sum(gen.expected_counts(gen.night_windows(np.random.default_rng(seed), 1600)))
        for seed in range(8)
    }
    assert len(kept) == 1


def test_convert_writes_the_ground_truth(tmp_path):
    manifest = generate("score", 3, tmp_path)
    store = tmp_path / "store.slpe"
    for night in manifest["main"]["nights"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "convert", str(tmp_path / night["psg"]),
                "--hypnogram", str(tmp_path / night["hypnogram"]),
                "--subject", str(night["subject"]), "--out", str(store), "--append",
            ])
        assert code == 0
        stored = epochs.read_store(store)
        assert list(epochs.class_distribution(stored).counts) == night["store_counts"]
        mine = [e for e in stored if e.subject_id == night["subject"]]
        assert [e.epoch_index for e in mine] == night["kept"]
        assert [int(e.stage) for e in mine] == night["stages"]
        fpz = gen.read_fpz(tmp_path / night["psg"])[night["kept"]]
        assert np.abs(np.array([e.samples for e in mine]) - fpz).max() < 1e-3
    assert [int(e.subject_id) for e in stored[:1]] == [1]
    assert list(epochs.class_distribution(stored).counts) == manifest["main"]["counts"]


def test_flat_windows_are_the_unscorable_ones(tmp_path):
    spec = generate("stream", 4, tmp_path)["main"]
    feed = np.fromfile(tmp_path / spec["feed"], dtype="<f4").astype(np.float64)
    assert len(feed) == spec["windows"] * 3000 + spec["partial_samples"]
    unscorable = []
    for k in range(spec["windows"]):
        try:
            epochs.standardize(feed[k * 3000 : (k + 1) * 3000])
        except epochs.DegenerateEpochError:
            unscorable.append(k)
    assert unscorable == spec["flat_windows"] and len(unscorable) == SMALL.stream_flat_windows


def test_cohort_store_and_models_load(tmp_path):
    spec = generate("train", 1, tmp_path)["main"]
    store = epochs.read_store(tmp_path / spec["store"])
    assert len(store) == SMALL.train_subjects * SMALL.train_epochs_per_subject
    assert sorted({e.subject_id for e in store}) == list(range(1, SMALL.train_subjects + 1))

    generate("score", 1, tmp_path / "score")
    generate("stream", 1, tmp_path / "stream")
    kind, params, _ = quant.load_any_model(tmp_path / "score" / "float.slpm")
    assert kind == "float" and model.param_count(params) == 277_669
    kind, qmodel, _ = quant.load_any_model(tmp_path / "stream" / "int8.slpm")
    assert kind == "quant" and model.param_count(qmodel.dequantize()) == 277_669
