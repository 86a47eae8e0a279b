"""Desk-scale smoke test of scripts/reproduce.py on synthetic recordings.

Runs every stage (convert, verify, train, evaluate) over four tiny fake
recording pairs named like the real archive.  The class-count verification
is expected to report a mismatch (these are not the real 153 recordings);
the script must press on and produce all artifacts anyway.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edf_fixtures import SignalSpec, build_edf, hypnogram_edf

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "reproduce.py"

# 240 s of signal; the last annotation overruns on purpose (the archive's
# hypnograms do this) and must be clamped, then discarded by its label.
ANNOTATIONS = [
    (0.0, 60.0, "Sleep stage W"),
    (60.0, 90.0, "Sleep stage 2"),
    (150.0, 30.0, "Sleep stage R"),
    (180.0, 90.0, "Sleep stage ?"),
]


def write_pair(data_dir: Path, subject: int, night: int, seed: int):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-2048, 2048, size=8 * 3000, dtype=np.int16)
    psg = build_edf(
        [SignalSpec(label="EEG Fpz-Cz", samples_per_record=3000, data=samples)],
        n_records=8,
        record_duration=30.0,
        reserved="EDF+C",
    )
    (data_dir / f"SC4{subject:02d}{night}E0-PSG.edf").write_bytes(psg)
    (data_dir / f"SC4{subject:02d}{night}EC-Hypnogram.edf").write_bytes(
        hypnogram_edf(ANNOTATIONS)
    )


def test_all_stages_run_on_synthetic_pairs(tmp_path):
    data_dir = tmp_path / "data"
    work_dir = tmp_path / "work"
    data_dir.mkdir()
    for subject in range(4):
        write_pair(data_dir, subject, night=1, seed=300 + subject)

    result = subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--data", str(data_dir),
            "--work", str(work_dir),
            "--folds", "2",
            "--max-epochs", "1",
            "--seed", "1",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    out = result.stdout

    # convert: 4 stores, 6 epochs each (W,W,N2,N2,N2,REM; '?' clamped+dropped)
    stores = sorted((work_dir / "stores").glob("*.slpe"))
    assert len(stores) == 4
    from edgesleep.epochs import read_store

    stages = [int(e.stage) for e in read_store(stores[0])]
    assert stages == [0, 0, 2, 2, 2, 4]

    # verify: counts are nowhere near the full archive, must flag and continue
    assert "MISMATCH" in out
    assert "will not be an exact reproduction" in out

    # train: both fold models + histories
    assert (work_dir / "model_fold0.slpm").exists()
    assert (work_dir / "model_fold1.slpm").exists()
    assert (work_dir / "history_fold1.csv").read_text().startswith("epoch,")

    # evaluate: pooled before/after reports and the quantized artifact
    for tag in ("before", "after"):
        assert (work_dir / f"confusion_{tag}.csv").exists()
        assert "Accuracy" in (work_dir / f"metrics_{tag}.txt").read_text()
    assert "accuracy before adaptation" in out
    assert "accuracy after adaptation" in out
    assert (work_dir / "model_fold0_int8.slpm").exists()


def run_script(data_dir, work_dir):
    result = subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--data", str(data_dir),
            "--work", str(work_dir),
            "--folds", "2",
            "--max-epochs", "1",
            "--seed", "1",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_second_run_keeps_stores_and_models(tmp_path):
    data_dir = tmp_path / "data"
    work_dir = tmp_path / "work"
    data_dir.mkdir()
    for subject in range(4):
        write_pair(data_dir, subject, night=1, seed=300 + subject)
    run_script(data_dir, work_dir)
    kept = sorted((work_dir / "stores").glob("*.slpe")) + sorted(work_dir.glob("*.slpm"))
    assert len(kept) == 7  # four stores, two fold models, the int8 model
    first = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept}
    confusion = {tag: (work_dir / f"confusion_{tag}.csv").read_text() for tag in ("before", "after")}
    (work_dir / "confusion_before.csv").unlink()

    run_script(data_dir, work_dir)
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept} == first
    for tag, text in confusion.items():
        assert (work_dir / f"confusion_{tag}.csv").read_text() == text


def test_killed_convert_leaves_no_store_that_resume_skips(tmp_path, monkeypatch):
    from edgesleep import epochs

    data_dir = tmp_path / "data"
    work_dir = tmp_path / "work"
    data_dir.mkdir()
    for subject in range(4):
        write_pair(data_dir, subject, night=1, seed=300 + subject)
    spec = importlib.util.spec_from_file_location("reproduce", SCRIPT)
    reproduce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce)
    argv = ["reproduce.py", "--data", str(data_dir), "--work", str(work_dir), "--stage", "convert"]
    monkeypatch.setattr(sys, "argv", argv)

    write_store = epochs.write_store
    written = []

    def killed_on_third_night(records, path, append=False):
        if len(written) == 2:  # half the records reach the disk, then the process dies
            write_store(records, path, append)
            lost = (len(records) - len(records) // 2) * epochs.STORE_RECORD.itemsize
            Path(path).write_bytes(Path(path).read_bytes()[:-lost])
            raise KeyboardInterrupt
        written.append(path)
        write_store(records, path, append)

    monkeypatch.setattr(epochs, "write_store", killed_on_third_night)
    with pytest.raises(KeyboardInterrupt):
        reproduce.main()
    stores = work_dir / "stores"
    assert sorted(p.name for p in stores.glob("*.slpe")) == ["SC4001.slpe", "SC4011.slpe"]
    assert (stores / "SC4021.slpe.part").exists()
    done = {p: p.stat().st_mtime_ns for p in stores.glob("*.slpe")}

    monkeypatch.setattr(epochs, "write_store", write_store)
    reproduce.main()
    final = sorted(stores.glob("*.slpe"))
    assert [p.name for p in final] == ["SC4001.slpe", "SC4011.slpe", "SC4021.slpe", "SC4031.slpe"]
    assert all(len(epochs.read_store(p)) == 6 for p in final)
    assert {p: p.stat().st_mtime_ns for p in done} == done
    assert not list(stores.glob("*.part"))
