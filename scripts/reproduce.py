#!/usr/bin/env python3
"""Full-scale run on the Sleep-EDF expanded sleep-cassette recordings.

This is the long-running counterpart to the desk-scale test suite: it
converts every SC4* recording pair, checks the preprocessed class counts
against the expected distribution, trains the 5-fold cross-validated model
from scratch, evaluates before and after subject-specific adaptation, and
renders the final tables.

Expected inputs: a directory holding the sleep-cassette files, named like

    SC4001E0-PSG.edf        (20-hour polysomnogram, has "EEG Fpz-Cz")
    SC4001EC-Hypnogram.edf  (EDF+ annotations: "Sleep stage W", ...)

Get them from the public Sleep-EDF Database Expanded (version 1, 2013,
sleep-cassette subset; 153 recording pairs, ~8 GB).

Resource expectations, measured on one core of a desktop CPU:
  - conversion: ~20 minutes, writes ~1.8 GB of epoch stores
  - training: several hours PER FOLD at default settings (reduce
    --max-epochs or train single folds with --fold to iterate faster)
  - RAM: the training and evaluation stages hold every epoch once, as one
    array of 12,008-byte store records with no per-epoch Python objects:
    about 1.8 GB (arithmetic, not measured: 148,471 epochs x 12,008
    bytes).  On top of that come one night's store while it is read into
    place (~12 MB), one subject's records in evaluation (copied by mask,
    then split into adaptation and holdout copies: ~45 MB for ~1,900
    epochs), one 64-epoch training batch (768 KB) and tens of MB of
    per-chunk working memory; training selects by row index, standardizes
    each chunk as it goes and keeps no float64 copy of the data

Reproduction targets:
  - preprocessed epoch counts: Wake 44752, N1 15793, N2 54682, N3 12268,
    REM 20976, total 148471 (exact)
  - pooled test accuracy ~0.775 before adaptation and ~0.795 after,
    matched to within +-0.03

Usage:
    python3 scripts/reproduce.py --data /path/to/sleep-cassette --work runs/full
    python3 scripts/reproduce.py --data ... --work ... --stage convert
    python3 scripts/reproduce.py --data ... --work ... --stage train --fold 0
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgesleep import epochs as ep  # noqa: E402
from edgesleep.adapt import ADAPT_DEFAULT_EPOCHS, fine_tune, split_adapt  # noqa: E402
from edgesleep.edf import RawAnnotation, parse_edf, read_signal  # noqa: E402
from edgesleep.metrics import class_metrics, confusion, counts_to_csv, render_report  # noqa: E402
from edgesleep.model import ArchConfig, load_model, predict, save_model  # noqa: E402
from edgesleep.quant import quantize_model, save_quant_model  # noqa: E402
from edgesleep.training import (  # noqa: E402
    TrainConfig,
    history_to_csv,
    make_folds,
    train_fold,
)

EXPECTED_COUNTS = {"Wake": 44752, "N1": 15793, "N2": 54682, "N3": 12268, "REM": 20976}
EXPECTED_TOTAL = 148471
TARGET_ACCURACY_BEFORE = 0.775
TARGET_ACCURACY_AFTER = 0.795
ACCURACY_TOLERANCE = 0.03

CHANNEL = "EEG Fpz-Cz"
PSG_PATTERN = re.compile(r"^SC4(\d\d)(\d)\w0-PSG\.edf$")


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def recording_pairs(data_dir: Path) -> list[tuple[int, int, Path, Path]]:
    """(subject, night, psg_path, hypnogram_path) for every SC4 pair found."""
    pairs = []
    for psg in sorted(data_dir.glob("*-PSG.edf")):
        m = PSG_PATTERN.match(psg.name)
        if not m:
            continue
        subject, night = int(m.group(1)), int(m.group(2))
        prefix = psg.name[:6]  # SC4ssN
        hyps = sorted(data_dir.glob(f"{prefix}*-Hypnogram.edf"))
        if not hyps:
            log(f"WARNING: no hypnogram for {psg.name}, skipping")
            continue
        pairs.append((subject, night, psg, hyps[0]))
    return pairs


def clamp_to_signal(
    annotations: list[RawAnnotation], signal_seconds: float
) -> list[RawAnnotation]:
    """Trim annotations to the signal extent on the 30 s grid.

    The archive's final hypnogram entry regularly overruns the PSG signal;
    clamping (rather than erroring) matches how the recordings are meant to
    be read.
    """
    grid_end = 30 * int(signal_seconds // 30)
    out = []
    for ann in annotations:
        if ann.onset >= grid_end:
            continue
        end = min(ann.onset + ann.duration, grid_end)
        duration = end - ann.onset
        if duration <= 0:
            continue
        out.append(RawAnnotation(onset=ann.onset, duration=duration, text=ann.text))
    return out


def stage_convert(args) -> None:
    store_dir = args.work / "stores"
    store_dir.mkdir(parents=True, exist_ok=True)
    pairs = recording_pairs(args.data)
    if not pairs:
        sys.exit(f"no SC4*-PSG.edf recordings under {args.data}")
    log(f"converting {len(pairs)} recordings")
    for subject, night, psg_path, hyp_path in pairs:
        out = store_dir / f"SC4{subject:02d}{night}.slpe"
        if out.exists():
            continue
        with parse_edf(psg_path) as psg:
            ep.check_sample_rate(psg, CHANNEL)
            signal = read_signal(psg, CHANNEL)
        with parse_edf(hyp_path) as hyp:
            annotations = hyp.annotations()
        annotations = clamp_to_signal(annotations, len(signal) / ep.SAMPLE_RATE)
        night_epochs = ep.trim_wake(
            ep.segment_epochs(signal, annotations, subject_id=subject, night=night)
        )
        ep.write_store(night_epochs.epochs, out)
        log(f"  {out.name}: {len(night_epochs.epochs)} epochs")


def iter_stores(args):
    for store in sorted((args.work / "stores").glob("*.slpe")):
        yield store


def stage_verify(args) -> bool:
    counts = Counter()
    for store in iter_stores(args):
        dist = ep.class_distribution(ep.read_store(store))
        counts.update(dict(zip(ep.STAGE_NAMES, dist.counts)))
    total = sum(counts.values())
    ok = True
    log("preprocessed class counts vs expected:")
    for name, expected in EXPECTED_COUNTS.items():
        got = counts.get(name, 0)
        match = "OK" if got == expected else "MISMATCH"
        ok &= got == expected
        log(f"  {name:5s} {got:7d} expected {expected:7d}  {match}")
    log(f"  total {total:7d} expected {EXPECTED_TOTAL:7d}  "
        f"{'OK' if total == EXPECTED_TOTAL else 'MISMATCH'}")
    return ok and total == EXPECTED_TOTAL


def load_all_epochs(args) -> np.recarray:
    """Every converted night in one record array.  Each store is read into
    its own slice, so the cohort is held once; a store's size gives its
    epoch count, which read_store checks against the header."""
    stores = list(iter_stores(args))
    record = ep.STORE_RECORD.itemsize
    sizes = [(s.stat().st_size - ep.STORE_HEADER_BYTES) // record for s in stores]
    if not sum(sizes):
        sys.exit("no converted stores found; run --stage convert first")
    epochs = np.recarray(sum(sizes), dtype=ep.STORE_RECORD)
    for store, end, n in zip(stores, np.cumsum(sizes), sizes):
        epochs[end - n : end] = ep.read_store(store)
    return epochs


def stage_train(args) -> None:
    epochs = load_all_epochs(args)
    subjects = sorted(set(epochs.subject_id.tolist()))
    log(f"{len(epochs)} epochs across {len(subjects)} subjects")
    plan = make_folds(subjects, k=args.folds, seed=args.seed)
    arch = ArchConfig()
    tc = TrainConfig(max_epochs=args.max_epochs, seed=args.seed)
    fold_ids = [args.fold] if args.fold is not None else list(range(args.folds))
    for i in fold_ids:
        model_path = args.work / f"model_fold{i}.slpm"
        if model_path.exists():
            log(f"fold {i}: model exists, skipping")
            continue
        log(f"fold {i}: training on {len(subjects) - len(plan.folds[i])} subjects")
        params, history = train_fold(epochs, plan.test_subjects(i), arch, tc)
        save_model(params, arch, model_path)
        (args.work / f"history_fold{i}.csv").write_text(history_to_csv(history))
        log(f"fold {i}: done, val_acc {history[-1].val_acc:.3f}")
    (args.work / "folds.txt").write_text(
        "\n".join(f"fold{i}: {','.join(map(str, f))}" for i, f in enumerate(plan.folds)) + "\n"
    )


def classify(params, config, epochs):
    return np.argmax(predict(params, config, epochs.samples), axis=-1).tolist()


def stage_evaluate(args) -> None:
    """Pooled test-fold evaluation before and after per-subject adaptation."""
    epochs = load_all_epochs(args)
    subjects = sorted(set(epochs.subject_id.tolist()))
    plan = make_folds(subjects, k=args.folds, seed=args.seed)
    before_pred, before_true = [], []
    after_pred, after_true = [], []
    adapt_tc = TrainConfig(max_epochs=ADAPT_DEFAULT_EPOCHS, seed=args.seed)
    for i in range(args.folds):
        model_path = args.work / f"model_fold{i}.slpm"
        if not model_path.exists():
            sys.exit(f"missing {model_path}; run --stage train")
        params, config = load_model(model_path)
        for subject in plan.folds[i]:
            subject_epochs = epochs[epochs.subject_id == subject]
            adapt_set, holdout = split_adapt(
                subject_epochs,
                fraction=args.fraction,
                stratified=args.stratified,
                seed=args.seed,
            )
            labels = holdout.stage.tolist()
            before = classify(params, config, holdout)
            before_pred += before
            before_true += labels
            tuned = fine_tune(params, config, adapt_set, adapt_tc)
            after_pred += classify(tuned, config, holdout)
            after_true += labels
        log(f"fold {i}: evaluated {len(plan.folds[i])} subjects")

    for tag, pred, true, target in (
        ("before", before_pred, before_true, TARGET_ACCURACY_BEFORE),
        ("after", after_pred, after_true, TARGET_ACCURACY_AFTER),
    ):
        cm = confusion(pred, true)
        report = class_metrics(cm)
        (args.work / f"confusion_{tag}.csv").write_text(counts_to_csv(cm))
        (args.work / f"metrics_{tag}.txt").write_text(render_report(report, "text"))
        (args.work / f"metrics_{tag}.csv").write_text(render_report(report, "csv"))
        delta = abs(report.accuracy - target)
        verdict = "WITHIN" if delta <= ACCURACY_TOLERANCE else "OUTSIDE"
        log(
            f"accuracy {tag} adaptation: {report.accuracy:.3f} "
            f"(target {target:.3f} +-{ACCURACY_TOLERANCE}): {verdict}"
        )
    # deployment artifact: quantized copy of fold-0 for the budget check
    params, config = load_model(args.work / "model_fold0.slpm")
    save_quant_model(quantize_model(params, config), args.work / "model_fold0_int8.slpm")
    log("wrote quantized fold-0 model; check it with: "
        f"edgesleep budget --model {args.work / 'model_fold0_int8.slpm'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, required=True,
                        help="directory with SC4*-PSG.edf / SC4*-Hypnogram.edf")
    parser.add_argument("--work", type=Path, required=True, help="output directory")
    parser.add_argument("--stage", choices=("convert", "verify", "train", "evaluate", "all"),
                        default="all")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--fold", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-epochs", type=int, default=30)
    parser.add_argument("--fraction", type=float, default=0.10)
    parser.add_argument("--stratified", action="store_true")
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    if args.stage in ("convert", "all"):
        stage_convert(args)
    if args.stage in ("verify", "all"):
        counts_ok = stage_verify(args)
        if not counts_ok:
            log("class counts deviate from the expected distribution; "
                "continuing, but the run will not be an exact reproduction")
    if args.stage in ("train", "all"):
        stage_train(args)
    if args.stage in ("evaluate", "all"):
        stage_evaluate(args)


if __name__ == "__main__":
    main()
