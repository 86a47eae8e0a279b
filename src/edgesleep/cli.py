"""Command-line surface: convert, train, eval, adapt, quantize, budget,
stream, report.

Every module error surfaces as a one-line diagnostic on stderr with its own
exit code (see EXIT_CODES); scores themselves are data, so `eval` exits 0
regardless of how good the model is.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import adapt as adapt_mod
from . import budget as budget_mod
from . import edf, epochs, kernels, metrics, model, quant, streaming, training

EXIT_CODES = [
    (edf.EdfError, 3),
    (epochs.StoreError, 5),
    (epochs.PipelineError, 4),
    (model.ModelFormatError, 6),
    (training.TrainingError, 8),
    (streaming.StreamGapError, 10),
    (metrics.MetricsError, 11),
    (kernels.KernelError, 12),
    (OSError, 13),
]


def cmd_convert(args) -> int:
    with edf.parse_edf(args.psg) as psg:
        epochs.check_sample_rate(psg, args.channel)
        signal = edf.read_signal(psg, args.channel)
    with edf.parse_edf(args.hypnogram) as hyp:
        annotations = hyp.annotations()
    night = epochs.segment_epochs(
        signal, annotations, subject_id=args.subject, night=args.night
    )
    new = epochs.trim_wake(night).epochs
    append = args.append and Path(args.out).exists()
    # an append reads the whole store first, so that a corrupt one fails
    # before any write and the class counts cover every epoch in it
    stages = new.stage
    if append:
        stages = np.concatenate([epochs.read_store(args.out).stage, stages])
    epochs.write_store(new, args.out, append=append)
    dist = epochs.class_distribution(stages)
    print(f"wrote {len(stages)} epochs to {args.out}")
    for name, count, frac in zip(epochs.STAGE_NAMES, dist.counts, dist.fractions):
        print(f"  {name:5s} {count:8d}  {frac:.2%}")
    return 0


def cmd_train(args) -> int:
    store = epochs.read_store(*args.store)
    if not len(store):
        raise training.TrainingError("store holds no epochs")
    arch = model.ArchConfig(width_multiplier=args.width_multiplier)
    tc = training.TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        seed=args.seed,
    )
    subjects = sorted(set(store.subject_id.tolist()))
    folds = training.make_folds(subjects, k=args.folds, seed=args.seed)
    if args.fold is not None and not 0 <= args.fold < len(folds):
        raise training.TrainingError(f"--fold {args.fold} out of range for {len(folds)} folds")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "folds.txt").write_text(
        "\n".join(
            f"fold{i}: {','.join(str(s) for s in fold)}" for i, fold in enumerate(folds)
        )
        + "\n"
    )
    fold_ids = [args.fold] if args.fold is not None else range(len(folds))
    for i in fold_ids:
        params, history = training.train_fold(store, set(folds[i]), arch, tc)
        model.save_model(params, arch, out_dir / f"model_fold{i}.slpm")
        (out_dir / f"history_fold{i}.csv").write_text(training.history_to_csv(history))
        last = history[-1]
        print(
            f"fold {i}: {len(history)} epochs trained, "
            f"final val_acc {last.val_acc:.3f} -> model_fold{i}.slpm"
        )
    return 0


def _load_float_model(path):
    """(float parameters, config) of a model file; an int8 one dequantized once."""
    kind, obj, config = quant.load_any_model(path)
    return (obj.dequantize() if kind == "quant" else obj), config


def _evaluate_store(params, config, store, rows):
    probs = model.predict(params, config, store.samples, rows)
    return metrics.class_metrics(metrics.confusion(np.argmax(probs, axis=-1), store.stage[rows]))


def cmd_eval(args) -> int:
    store = epochs.read_store(args.store)
    rows = np.arange(len(store))
    if args.subjects is not None:
        rows = rows[np.isin(store.subject_id, args.subjects)]
    if not len(rows):
        raise epochs.StoreError("no epochs selected for evaluation")
    params, config = _load_float_model(args.model)
    report = _evaluate_store(params, config, store, rows)
    text = metrics.render_report(report, "text")
    print(text, end="")
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.txt").write_text(text)
        Path(f"{prefix}.csv").write_text(metrics.render_report(report, "csv"))
        Path(f"{prefix}_counts.csv").write_text(metrics.counts_to_csv(report.confusion))
    return 0


def cmd_adapt(args) -> int:
    store = epochs.read_store(*args.store)
    subject = np.flatnonzero(store.subject_id == args.subject)
    if not len(subject):
        raise training.TrainingError(f"store has no epochs for subject {args.subject}")
    params, config = model.load_model(args.model)
    adapt_rows, holdout = adapt_mod.split_adapt(
        store, subject, fraction=args.fraction, stratified=args.stratified, seed=args.seed
    )
    print(
        f"subject {args.subject}: {len(adapt_rows)} adaptation epochs "
        f"({len(adapt_rows) / len(subject):.0%}), {len(holdout)} holdout"
    )
    before = _evaluate_store(params, config, store, holdout)
    tc = training.TrainConfig(max_epochs=args.epochs, seed=args.seed)
    tuned = adapt_mod.fine_tune(params, config, store, adapt_rows, tc)
    after = _evaluate_store(tuned, config, store, holdout)
    print(f"holdout accuracy before {before.accuracy:.3f} -> after {after.accuracy:.3f}")
    print(metrics.render_report(after, "text"), end="")
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for tag, report in (("before", before), ("after", after)):
            Path(f"{prefix}_{tag}_counts.csv").write_text(metrics.counts_to_csv(report.confusion))
    if args.out:
        model.save_model(tuned, config, args.out)
        print(f"adapted model written to {args.out}")
    return 0


def cmd_quantize(args) -> int:
    params, config = model.load_model(args.model)
    qm = quant.quantize_model(params, config)
    quant.save_quant_model(qm, args.out)
    before = Path(args.model).stat().st_size
    after = Path(args.out).stat().st_size
    print(f"quantized {before} B -> {after} B ({after / before:.1%})")
    return 0


def cmd_budget(args) -> int:
    config, _ = model.read_slpm(args.model)
    report = budget_mod.check_fit(args.model, config)
    if args.kv:
        print(budget_mod.render_report_kv(report), end="")
    else:
        print(budget_mod.render_report_text(report), end="")
        print(
            f"fits: flash {'yes' if report.fits_flash else 'no'}, "
            f"ram {'yes' if report.fits_ram else 'no'}"
        )
    return 0


def _stdin_samples(raw, args):
    """Yield one float32 block per read of a binary feed (float32 LE, or int16
    with an explicit digital->physical scaling, rounded to float32 as
    `convert` stores a sample, so a window holds the stored epoch's bits).

    Reads with `read1` where the stream has it, which returns what a pipe
    holds instead of waiting for a full buffer, so a live feed's decisions
    are not held back."""
    if args.int16:
        for flag in ("dig_min", "dig_max", "phys_min", "phys_max"):
            if getattr(args, flag) is None:
                raise streaming.StreamGapError(f"--int16 requires --{flag.replace('_', '-')}")
        if args.dig_max == args.dig_min:
            raise streaming.StreamGapError(
                f"--dig-max must differ from --dig-min (both {args.dig_min})"
            )
        try:
            to_physical = edf.physical_map(
                args.dig_min, args.dig_max, args.phys_min, args.phys_max, "--phys-min/--phys-max"
            )
        except edf.EdfError as exc:
            raise streaming.StreamGapError(str(exc)) from None
        dtype = np.dtype("<i2")
        convert = lambda arr: to_physical(arr).astype(np.float32)
    else:
        dtype = np.dtype("<f4")
        convert = lambda arr: arr
    read = getattr(raw, "read1", raw.read)
    carry = b""
    while True:
        chunk = read(65536)
        if not chunk:
            break
        carry += chunk
        usable = len(carry) - len(carry) % dtype.itemsize
        if usable:
            yield convert(np.frombuffer(carry[:usable], dtype=dtype))
            carry = carry[usable:]
    if carry:
        raise streaming.StreamGapError(f"{len(carry)} trailing bytes are not a whole sample")


def cmd_stream(args) -> int:
    params, config = _load_float_model(args.model)
    predict = streaming.make_predictor(params, config)
    latencies = []

    def sink(decision):
        print(streaming.decision_line(decision), flush=True)
        if not decision.unscorable:
            latencies.append(decision.latency_s)

    blocks = _stdin_samples(sys.stdin.buffer, args)
    decisions, leftover = streaming.stream_classify(blocks, predict, sink)
    print(f"stream ended: {decisions} decisions, {leftover} samples buffered", file=sys.stderr)
    print(streaming.latency_line(latencies), file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    cm = metrics.counts_from_csv(Path(args.counts).read_text())
    report = metrics.class_metrics(cm)
    print(metrics.render_report(report, args.style), end="")
    return 0


def _subject_list(text: str) -> list[int]:
    """argparse type of --subjects: comma-separated integer subject ids.
    An empty item ("1,,2", "") is a usage error, not a wildcard."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated subject ids, got {text!r}"
        ) from None


def _positive(convert, zero_ok=False):
    """argparse type of a count or size: convert(text), finite and > 0, or
    >= 0 with zero_ok."""
    wanted = "non-negative" if zero_ok else "positive"

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            raise argparse.ArgumentTypeError(f"expected a {wanted} number, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesleep",
        description="EEG sleep staging: dataset conversion, training, "
        "adaptation, quantization, deployment budgeting, and streaming inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="EDF + hypnogram -> epoch store")
    p.add_argument("psg", help="EDF recording with the EEG channel")
    p.add_argument("--hypnogram", required=True, help="EDF+ file carrying the stage annotations")
    p.add_argument("--channel", default="EEG Fpz-Cz")
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--night", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true", help="extend an existing store")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="k-fold training over one or more stores")
    p.add_argument("--store", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--folds", type=_positive(int), default=5)
    p.add_argument("--fold", type=int, default=None, help="train only this fold index")
    p.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    p.add_argument("--max-epochs", type=_positive(int), default=30)
    p.add_argument("--batch-size", type=_positive(int), default=64)
    p.add_argument("--learning-rate", type=_positive(float), default=1e-3)
    p.add_argument("--width-multiplier", type=_positive(float), default=1.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="model + store -> metrics report")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--subjects", type=_subject_list, default=None, help="comma-separated subject filter"
    )
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("adapt", help="subject-specific fine-tuning")
    p.add_argument("--store", nargs="+", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--subject", type=int, required=True)
    p.add_argument("--fraction", type=float, default=0.10)
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    p.add_argument(
        "--epochs", type=_positive(int, zero_ok=True), default=adapt_mod.ADAPT_DEFAULT_EPOCHS
    )
    p.add_argument("--out", default=None, help="write the adapted model here")
    p.add_argument(
        "--out-prefix", default=None, help="write P_before_counts.csv and P_after_counts.csv"
    )
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("quantize", help="float model -> int8 model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("budget", help="flash/RAM/latency feasibility report on the nano33ble")
    p.add_argument("--model", required=True)
    p.add_argument("--kv", action="store_true", help="machine-readable key=value block")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("stream", help="classify a raw sample feed from stdin")
    # a bound such as -3.2768e3 is a value, not an option (Python 3.13's rule)
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--model", required=True)
    p.add_argument("--int16", action="store_true", help="feed is int16 digital samples")
    p.add_argument("--dig-min", type=int, default=None)
    p.add_argument("--dig-max", type=int, default=None)
    p.add_argument("--phys-min", type=float, default=None)
    p.add_argument("--phys-max", type=float, default=None)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("report", help="render a stored confusion-count CSV")
    p.add_argument("--counts", required=True)
    p.add_argument("--style", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single surface for exit codes
        for exc_type, code in EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
