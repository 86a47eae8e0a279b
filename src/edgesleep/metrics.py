"""Confusion matrices, per-class precision/recall/F1, and table rendering.

Conventions: confusion rows are the actual stage, columns the predicted
stage; PR = TP/(TP+FP), RE = TP/(TP+FN), F1 = 2TP/(2TP+FN+FP).  A vanishing
denominator reports 0 and the affected metric is flagged in the text output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epochs import STAGE_NAMES

N_CLASSES = len(STAGE_NAMES)


class MetricsError(ValueError):
    pass


def confusion(predictions, labels) -> np.ndarray:
    """Count (actual, predicted) pairs into a 5x5 integer matrix."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise MetricsError(
            f"length mismatch: {predictions.shape} predictions vs {labels.shape} labels"
        )
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (labels, predictions), 1)
    return cm


@dataclass(frozen=True)
class MetricsReport:
    confusion: np.ndarray  # raw counts
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    accuracy: float
    row_normalized: np.ndarray
    undefined: tuple[str, ...]  # e.g. "precision[N3]" where a denominator vanished


def class_metrics(cm: np.ndarray) -> MetricsReport:
    """Per-class metrics and overall accuracy from a count matrix."""
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (N_CLASSES, N_CLASSES):
        raise MetricsError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise MetricsError("empty confusion matrix")
    precision, recall, f1 = [], [], []
    undefined: list[str] = []
    for c in range(N_CLASSES):
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum()) - tp
        fn = int(cm[c, :].sum()) - tp
        if tp + fp == 0:
            undefined.append(f"precision[{STAGE_NAMES[c]}]")
        if tp + fn == 0:
            undefined.append(f"recall[{STAGE_NAMES[c]}]")
        if 2 * tp + fn + fp == 0:
            undefined.append(f"f1[{STAGE_NAMES[c]}]")
        precision.append(tp / (tp + fp) if tp + fp else 0.0)
        recall.append(tp / (tp + fn) if tp + fn else 0.0)
        f1.append(2 * tp / (2 * tp + fn + fp) if 2 * tp + fn + fp else 0.0)
    row_sums = cm.sum(axis=1, keepdims=True)
    row_normalized = np.divide(
        cm, row_sums, out=np.zeros(cm.shape, dtype=np.float64), where=row_sums > 0
    )
    return MetricsReport(
        confusion=cm,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        accuracy=float(np.trace(cm)) / total,
        row_normalized=row_normalized,
        undefined=tuple(undefined),
    )


def _text_tables(report: MetricsReport) -> str:
    width = 8
    header = "Actual/Predict".ljust(16) + "".join(n.rjust(width) for n in STAGE_NAMES)
    lines = [header]
    for c in range(N_CLASSES):
        cells = "".join(f"{report.row_normalized[c, p]:.2f}".rjust(width) for p in range(N_CLASSES))
        lines.append(STAGE_NAMES[c].ljust(16) + cells)
    lines.append("")
    lines.append("".ljust(16) + "".join(n.rjust(width) for n in STAGE_NAMES))
    for label, values in (
        ("Precision", report.precision),
        ("Recall", report.recall),
        ("F1-Score", report.f1),
    ):
        lines.append(label.ljust(16) + "".join(f"{v:.2f}".rjust(width) for v in values))
    lines.append("Accuracy".ljust(16) + f"{report.accuracy:.3f}".rjust(width))
    for item in report.undefined:
        lines.append(f"# {item} has an empty denominator; reported as 0")
    return "\n".join(lines) + "\n"


def _csv_tables(report: MetricsReport) -> str:
    lines = ["confusion_row," + ",".join(STAGE_NAMES)]
    for c in range(N_CLASSES):
        lines.append(
            STAGE_NAMES[c] + "," + ",".join(repr(float(v)) for v in report.row_normalized[c])
        )
    lines.append("metric," + ",".join(STAGE_NAMES))
    for label, values in (
        ("precision", report.precision),
        ("recall", report.recall),
        ("f1", report.f1),
    ):
        lines.append(label + "," + ",".join(repr(float(v)) for v in values))
    lines.append(f"accuracy,{report.accuracy!r}")
    return "\n".join(lines) + "\n"


def render_report(report: MetricsReport, style: str = "text") -> str:
    """Render the row-normalized confusion table and metrics table.

    style="text" gives aligned 2-decimal tables; style="csv" keeps full
    precision (repr round-trips exactly).
    """
    if style == "text":
        return _text_tables(report)
    if style == "csv":
        return _csv_tables(report)
    raise MetricsError(f"unknown report style {style!r}")


def counts_to_csv(cm: np.ndarray) -> str:
    """Raw confusion counts as CSV (row label + 5 integer columns)."""
    lines = ["actual," + ",".join(STAGE_NAMES)]
    for c in range(N_CLASSES):
        lines.append(STAGE_NAMES[c] + "," + ",".join(str(int(v)) for v in cm[c]))
    return "\n".join(lines) + "\n"


def counts_from_csv(text: str) -> np.ndarray:
    """Parse the counts_to_csv format back into a matrix.

    Every count must be a non-negative integer, and their total must fit
    int64, so that no sum taken over the matrix can wrap (MetricsError).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("actual,"):
        raise MetricsError("confusion counts CSV must start with an 'actual,...' header")
    if len(lines) != N_CLASSES + 1:
        raise MetricsError(f"expected {N_CLASSES} data rows")
    rows = []
    for c, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != N_CLASSES + 1 or parts[0] != STAGE_NAMES[c]:
            raise MetricsError(f"bad confusion row {line!r}")
        try:
            counts = [int(p) for p in parts[1:]]
        except ValueError:
            raise MetricsError(f"non-integer count in confusion row {line!r}") from None
        if min(counts) < 0:
            raise MetricsError(f"negative count in confusion row {line!r}")
        rows.append(counts)
    total = sum(map(sum, rows))
    if total > np.iinfo(np.int64).max:
        raise MetricsError(f"confusion counts total {total} does not fit int64")
    return np.array(rows, dtype=np.int64)
