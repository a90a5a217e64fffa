"""Thresholded confusion reports, baseline precision, R², and histograms.

A material counts as positive when its Tc is strictly greater than the
threshold, on both the predicted and the true side - a predicted 0 K is a
negative at the 0 K threshold. Ratios whose denominator is zero are
reported as None (rendered "--" in tables), never coerced to 0 or NaN,
since a fake zero poisons averages across runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import write_csv
from .errors import LengthMismatchError


class DegenerateTargetError(ValueError):
    pass


UNDEFINED_TEXT = "--"


@dataclass(frozen=True)
class EvalReport:
    threshold_kelvin: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float
    baseline_precision: float | None = None

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def confusion_counts(
    predicted_positive: Sequence[bool],
    true_positive: Sequence[bool],
    threshold_kelvin: float,
    baseline_precision: float | None = None,
) -> EvalReport:
    """Build an EvalReport from boolean decisions (the shared core for
    thresholded regression and probability-thresholded classification)."""
    p = np.asarray(predicted_positive, dtype=bool)
    t = np.asarray(true_positive, dtype=bool)
    if p.shape != t.shape or p.ndim != 1:
        raise LengthMismatchError(f"shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise LengthMismatchError("need at least one pair")
    tp = int(np.sum(p & t))
    fp = int(np.sum(p & ~t))
    tn = int(np.sum(~p & ~t))
    fn = int(np.sum(~p & t))
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    accuracy = (tp + tn) / p.size
    return EvalReport(
        threshold_kelvin=float(threshold_kelvin),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        baseline_precision=baseline_precision,
    )


def confusion_at_threshold(
    predicted_tc: Sequence[float],
    true_tc: Sequence[float],
    threshold: float,
) -> EvalReport:
    """Confusion metrics counting value > threshold as positive on both sides."""
    pred = np.asarray(predicted_tc, dtype=np.float64)
    true = np.asarray(true_tc, dtype=np.float64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise LengthMismatchError(f"shapes differ: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise LengthMismatchError("need at least one pair")
    return confusion_counts(
        pred > threshold, true > threshold, threshold, baseline_precision(true, threshold)
    )


def baseline_precision(true_tc: Sequence[float], threshold: float) -> float:
    """Precision of picking at random: the fraction of truly positive rows."""
    true = np.asarray(true_tc, dtype=np.float64)
    if true.size == 0:
        raise LengthMismatchError("need at least one value")
    return float(np.mean(true > threshold))


def r_squared(predicted: Sequence[float], true: Sequence[float]) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot."""
    pred = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(true, dtype=np.float64)
    if pred.shape != t.shape or pred.ndim != 1:
        raise LengthMismatchError(f"shapes differ: {pred.shape} vs {t.shape}")
    if t.size < 2:
        raise LengthMismatchError("need at least two pairs")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTargetError("true values are all identical")
    ss_res = float(np.sum((t - pred) ** 2))
    return 1.0 - ss_res / ss_tot


class Histogram(NamedTuple):
    counts: np.ndarray  # integer counts per bin
    edges: np.ndarray  # len(counts) + 1 bin edges


def positive_count_histogram(runs: Sequence[int]) -> Histogram:
    """Histogram of per-run predicted-positive counts in unit-width integer
    bins spanning the observed range. An empty run list yields a single
    empty bin, [0, 1]."""
    values = np.asarray(list(runs), dtype=np.float64)
    if values.size == 0:
        return Histogram(np.zeros(1, dtype=np.int64), np.array([0.0, 1.0]))
    if np.any(values < 0):
        raise ValueError("counts must be >= 0")
    lo, hi = int(values.min()), int(values.max())
    counts, edges = np.histogram(values, bins=np.arange(lo, hi + 2) - 0.5)
    return Histogram(counts.astype(np.int64), edges)


def _fmt(value: float | None, digits: int = 3) -> str:
    return UNDEFINED_TEXT if value is None else f"{value:.{digits}f}"


def report_table_text(reports: Sequence[EvalReport], labels: Sequence[str] | None = None) -> str:
    """Render reports as a fixed-width text table, one row per report."""
    if labels is None:
        labels = [f"{r.threshold_kelvin:g} K" for r in reports]
    header = f"{'':20s} {'Precision':>10s} {'Recall':>10s} {'f1 score':>10s} {'Accuracy':>10s} {'Baseline':>10s}"
    lines = [header]
    for label, r in zip(labels, reports):
        lines.append(
            f"{label:20s} {_fmt(r.precision):>10s} {_fmt(r.recall):>10s} "
            f"{_fmt(r.f1):>10s} {_fmt(r.accuracy):>10s} {_fmt(r.baseline_precision):>10s}"
        )
    return "\n".join(lines)


def write_reports_csv(reports: Sequence[EvalReport], path) -> None:
    """One row per report; the columns follow EvalReport's fields."""
    header = ["threshold_K", "tp", "fp", "tn", "fn", "precision", "recall", "f1",
              "accuracy", "baseline_precision"]
    write_csv(path, header, (
        [UNDEFINED_TEXT if v is None else v for v in dataclasses.astuple(r)] for r in reports
    ))


def write_histogram_csv(hist: Histogram, path) -> None:
    write_csv(path, ["bin_left", "bin_right", "count"],
              zip(hist.edges[:-1], hist.edges[1:], hist.counts))
