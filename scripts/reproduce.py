#!/usr/bin/env python3
"""Full-scale run on the Sleep-EDF expanded sleep-cassette recordings.

This is the long-running counterpart to the desk-scale test suite: it
converts every SC4* recording pair, checks the preprocessed class counts
against the expected distribution, trains the 5-fold cross-validated model
from scratch, evaluates before and after subject-specific adaptation, and
renders the final tables.  Each step is an `edgesleep` command run through
`cli.main`, so the full-scale run goes through the code the CLI tests run:

  - convert: `convert` per night into stores/SC4ssN.slpe, written under a
    `.part` name and renamed once complete; a night whose store exists is
    skipped
  - train: `train --fold i --store stores/*.slpe` per fold without a model
  - evaluate: `adapt --store <the subject's stores> --out-prefix
    adapt/subjectSS` per held-out subject of folds.txt, at adapt's default
    split (a uniform 10%, the split the accuracy targets are set for), with
    the count CSVs pooled into the before/after tables; then `quantize` of
    fold 0

Expected inputs: a directory holding the sleep-cassette files, named like

    SC4001E0-PSG.edf        (20-hour polysomnogram, has "EEG Fpz-Cz")
    SC4001EC-Hypnogram.edf  (EDF+ annotations: "Sleep stage W", ...)

Get them from the public Sleep-EDF Database Expanded (version 1, 2013,
sleep-cassette subset; 153 recording pairs, ~8 GB).

Resource expectations, measured on one core of a desktop CPU unless marked:
  - conversion: ~20 minutes, writes ~1.8 GB of epoch stores
  - training: about 1.4 h per fold at default settings (arithmetic, not
    measured: 1.57 ms per sample, as one 64-sample float32 batch at width
    1.0 took on a 2-core x86 VM, x ~107k training epochs x 30 epochs;
    reduce --max-epochs or train single folds with --fold to iterate
    faster)
  - RAM: training holds every epoch once, as one array of 12,008-byte
    store records with no per-epoch Python objects, each store read
    straight into its slice: about 1.8 GB (arithmetic, not measured:
    148,471 epochs x 12,008 bytes).  Training selects by row index and
    gathers one 8-row chunk at a time, standardized as float64 (192 KB,
    arithmetic: 8 x 3000 x 8 bytes), plus tens of MB of per-chunk working
    memory; it keeps no float64 copy of the data.  Evaluation reads one
    subject's stores per `adapt`, about 23 MB (arithmetic: ~1,900 epochs
    x 12,008 bytes), not the whole cohort, and selects the adaptation and
    holdout epochs from it by row index, without copying them

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgesleep import cli  # noqa: E402
from edgesleep import epochs as ep  # noqa: E402
from edgesleep.metrics import class_metrics, counts_from_csv, counts_to_csv, render_report  # noqa: E402

EXPECTED_COUNTS = {"Wake": 44752, "N1": 15793, "N2": 54682, "N3": 12268, "REM": 20976}
EXPECTED_TOTAL = 148471
TARGET_ACCURACY_BEFORE = 0.775
TARGET_ACCURACY_AFTER = 0.795
ACCURACY_TOLERANCE = 0.03

PSG_PATTERN = re.compile(r"^SC4(\d\d)(\d)\w0-PSG\.edf$")


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def edgesleep(*argv) -> None:
    """Run one edgesleep command; a failure ends the script with its exit code."""
    argv = [str(arg) for arg in argv]
    code = cli.main(argv)
    if code:
        log(f"edgesleep {argv[0]} exited {code}; stopping")
        sys.exit(code)


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
        # a run killed mid-write leaves only the .part file, which the
        # *.slpe glob and the skip above ignore
        part = store_dir / f"{out.name}.part"
        edgesleep("convert", psg_path, "--hypnogram", hyp_path,
                  "--subject", subject, "--night", night, "--out", part)
        part.replace(out)


def stores(args, subject: int | None = None) -> list[Path]:
    """The converted night stores, all or one subject's, in name order."""
    pattern = "*.slpe" if subject is None else f"SC4{subject:02d}?.slpe"
    return sorted((args.work / "stores").glob(pattern))


def stage_verify(args) -> bool:
    counts = Counter()
    for store in stores(args):
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


def stage_train(args) -> None:
    cohort = stores(args)
    if not cohort:
        sys.exit("no converted stores found; run --stage convert first")
    fold_ids = [args.fold] if args.fold is not None else list(range(args.folds))
    for i in fold_ids:
        if (args.work / f"model_fold{i}.slpm").exists():
            log(f"fold {i}: model exists, skipping")
            continue
        log(f"fold {i}: training on {len(cohort)} night stores")
        edgesleep("train", "--store", *cohort, "--out-dir", args.work, "--folds", args.folds,
                  "--fold", i, "--seed", args.seed, "--max-epochs", args.max_epochs)


def held_out_subjects(args) -> list[list[int]]:
    """Each fold's test subjects, as `train` wrote them to folds.txt."""
    path = args.work / "folds.txt"
    if not path.exists():
        sys.exit(f"missing {path}; run --stage train")
    return [
        [int(s) for s in line.split(":", 1)[1].split(",")]
        for line in path.read_text().splitlines()
    ]


def stage_evaluate(args) -> None:
    """Pooled test-fold evaluation before and after per-subject adaptation."""
    pooled = {"before": 0, "after": 0}
    for i, subjects in enumerate(held_out_subjects(args)):
        model_path = args.work / f"model_fold{i}.slpm"
        if not model_path.exists():
            sys.exit(f"missing {model_path}; run --stage train")
        for subject in subjects:
            prefix = args.work / "adapt" / f"subject{subject:02d}"
            edgesleep("adapt", "--store", *stores(args, subject), "--model", model_path,
                      "--subject", subject, "--seed", args.seed, "--out-prefix", prefix)
            for tag in pooled:
                pooled[tag] += counts_from_csv(Path(f"{prefix}_{tag}_counts.csv").read_text())
        log(f"fold {i}: evaluated {len(subjects)} subjects")

    for tag, target in (("before", TARGET_ACCURACY_BEFORE), ("after", TARGET_ACCURACY_AFTER)):
        report = class_metrics(pooled[tag])
        (args.work / f"confusion_{tag}.csv").write_text(counts_to_csv(report.confusion))
        (args.work / f"metrics_{tag}.txt").write_text(render_report(report, "text"))
        (args.work / f"metrics_{tag}.csv").write_text(render_report(report, "csv"))
        delta = abs(report.accuracy - target)
        verdict = "WITHIN" if delta <= ACCURACY_TOLERANCE else "OUTSIDE"
        log(
            f"accuracy {tag} adaptation: {report.accuracy:.3f} "
            f"(target {target:.3f} +-{ACCURACY_TOLERANCE}): {verdict}"
        )
    # deployment artifact: quantized copy of fold-0 for the budget check,
    # rewritten only when fold 0's model is newer
    fold0 = args.work / "model_fold0.slpm"
    int8 = args.work / "model_fold0_int8.slpm"
    if not int8.exists() or int8.stat().st_mtime < fold0.stat().st_mtime:
        edgesleep("quantize", "--model", fold0, "--out", int8)
    log(f"quantized fold-0 model; check it with: edgesleep budget --model {int8}")


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
