"""Evaluation metrics for marked event sequences.

- otd: minimum-cost order-preserving alignment (same-mark matches pay the
  absolute arrival-time gap, unmatched events pay a deletion cost)
- rmse_x: root mean squared error of inter-event times by position
- rmse_y: root mean squared error of per-type event counts (default), or of
  position-wise label mismatch behind mode="position"
- smape: symmetric mean absolute percentage error, bounded in [0, 200]

Arrival times restart at 0 at the window boundary: prediction files carry
only the forecast horizon, so both streams are aligned from the cut point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import Config, ValidationError
from .events import EventSequence


@dataclass(frozen=True)
class OtdConfig(Config, section="otd"):
    delete_cost: float = 1.0

    def validate(self):
        if not self.delete_cost > 0:
            raise ValidationError(
                f"delete_cost must be positive, got {self.delete_cost}"
            )


def otd(pred: EventSequence, truth: EventSequence,
        cfg: OtdConfig = OtdConfig()) -> float:
    """Minimum alignment cost between two event streams."""
    if pred.vocab_size != truth.vocab_size:
        raise ValidationError(
            f"vocab_size mismatch: {pred.vocab_size} vs {truth.vocab_size}"
        )
    return float(
        kernels.otd_align(
            pred.arrival_times(), pred.marks,
            truth.arrival_times(), truth.marks,
            cfg.delete_cost,
        )
    )


def _paired_dts(pred: EventSequence, truth: EventSequence) -> tuple:
    if len(pred) != len(truth):
        raise ValidationError(
            f"length mismatch: pred has {len(pred)} events, truth {len(truth)}"
        )
    if len(pred) == 0:
        raise ValidationError("cannot score empty sequences position-wise")
    return pred.inter_times, truth.inter_times


def rmse_x(pred: EventSequence, truth: EventSequence) -> float:
    a, b = _paired_dts(pred, truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def rmse_y(pred: EventSequence, truth: EventSequence, mode: str = "counts") -> float:
    """Mark error. "counts" compares per-type totals over the horizon;
    "position" is the square root of the label mismatch rate."""
    if pred.vocab_size != truth.vocab_size:
        raise ValidationError(
            f"vocab_size mismatch: {pred.vocab_size} vs {truth.vocab_size}"
        )
    if mode == "counts":
        m = pred.vocab_size
        cp = np.bincount(pred.marks, minlength=m).astype(np.float64)
        ct = np.bincount(truth.marks, minlength=m).astype(np.float64)
        return float(np.sqrt(np.mean((cp - ct) ** 2)))
    if mode == "position":
        if len(pred) != len(truth):
            raise ValidationError(
                f"length mismatch: pred has {len(pred)} events, truth {len(truth)}"
            )
        if len(pred) == 0:
            raise ValidationError("cannot score empty sequences position-wise")
        return float(np.sqrt(np.mean(pred.marks != truth.marks)))
    raise ValidationError(f"unknown rmse_y mode {mode!r}")


def smape(pred: EventSequence, truth: EventSequence) -> float:
    a, b = _paired_dts(pred, truth)
    return float(100.0 * np.mean(2.0 * np.abs(a - b) / (np.abs(a) + np.abs(b))))


@dataclass
class MetricReport:
    per_window: dict
    aggregate: dict
    window_count: int
    rmse_y_mode: str

    def to_dict(self) -> dict:
        return {
            "window_count": self.window_count,
            "aggregate": self.aggregate,
            "per_window": self.per_window,
        }


def evaluate_windows(preds, truths, otd_cfg: OtdConfig = OtdConfig(),
                     rmse_y_mode: str = "counts") -> MetricReport:
    """All four metrics per (pred, truth) pair plus mean and s.d. columns.

    The aggregate is order-invariant: it depends only on the multiset of
    per-window values.
    """
    if len(preds) != len(truths):
        raise ValidationError(
            f"window count mismatch: {len(preds)} predictions, {len(truths)} truths"
        )
    if not preds:
        raise ValidationError("nothing to evaluate")
    per = {"otd": [], "rmse_x": [], "rmse_y": [], "smape": []}
    for p, t in zip(preds, truths):
        per["otd"].append(otd(p, t, otd_cfg))
        per["rmse_x"].append(rmse_x(p, t))
        per["rmse_y"].append(rmse_y(p, t, rmse_y_mode))
        per["smape"].append(smape(p, t))
    table = np.array(list(per.values()))
    aggregate = {
        name: {"mean": float(mean), "sd": float(sd)}
        for name, mean, sd in zip(per, table.mean(axis=1), table.std(axis=1))
    }
    return MetricReport(per_window=per, aggregate=aggregate,
                        window_count=len(preds), rmse_y_mode=rmse_y_mode)


# inter-time bins of the histograms below, and the default of `flowtpp hist`
HIST_BINS = 50


def _time_bins(reference: np.ndarray, bins: int, samples) -> tuple:
    """Edges of bins equal-width inter-time bins over [0, p99 of reference],
    and per sample its counts in each bin, then above the top edge."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    hi = float(np.percentile(reference, 99.0))
    if hi <= 0:
        hi = float(reference.max()) or 1.0
    edges = np.linspace(0.0, hi, bins + 1)
    return edges, [np.append(np.histogram(d[d <= hi], bins=edges)[0], (d > hi).sum())
                   for d in samples]


@dataclass
class DistributionSummary:
    bin_edges: np.ndarray
    time_counts: np.ndarray
    overflow: int
    mark_counts: np.ndarray

    @property
    def time_freqs(self) -> np.ndarray:
        total = self.time_counts.sum() + self.overflow
        return self.time_counts / max(total, 1)

    @property
    def mark_freqs(self) -> np.ndarray:
        return self.mark_counts / max(self.mark_counts.sum(), 1)


def distribution_summary(sequences, bins: int = HIST_BINS) -> DistributionSummary:
    """Histogram of all inter-event times over [0, p99] with one overflow
    bin, plus relative mark frequencies."""
    if not sequences:
        raise ValidationError("distribution_summary needs at least one sequence")
    dts = np.concatenate([s.inter_times for s in sequences])
    vocab = sequences[0].vocab_size
    marks = np.concatenate([s.marks for s in sequences])
    if dts.size == 0:
        raise ValidationError("no events to summarize")
    edges, (counts,) = _time_bins(dts, bins, [dts])
    return DistributionSummary(
        bin_edges=edges,
        time_counts=counts[:-1],
        overflow=int(counts[-1]),
        mark_counts=np.bincount(marks, minlength=vocab),
    )


def histogram_tv(pred_dts: np.ndarray, truth_dts: np.ndarray,
                 bins: int = HIST_BINS) -> float:
    """Total-variation distance between binned inter-time distributions.

    Bin edges come from the truth (0 to its 99th percentile); everything
    above the top edge lands in a shared overflow bin.
    """
    pred_dts = np.asarray(pred_dts, dtype=np.float64)
    truth_dts = np.asarray(truth_dts, dtype=np.float64)
    if pred_dts.size == 0 or truth_dts.size == 0:
        raise ValidationError("histogram_tv needs nonempty samples")
    _, (pred, truth) = _time_bins(truth_dts, bins, [pred_dts, truth_dts])
    return float(0.5 * np.abs(pred / pred_dts.size - truth / truth_dts.size).sum())


def write_time_histogram_csv(path, summary: DistributionSummary,
                             seed=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# version=1 seed={'' if seed is None else seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count", "freq"])
        freqs = summary.time_freqs
        total = summary.time_counts.sum() + summary.overflow
        for lo, hi, c, f in zip(summary.bin_edges[:-1], summary.bin_edges[1:],
                                summary.time_counts, freqs):
            writer.writerow([repr(float(lo)), repr(float(hi)), int(c), repr(float(f))])
        writer.writerow(["overflow", "inf", summary.overflow,
                         repr(float(summary.overflow / max(total, 1)))])


def write_mark_frequency_csv(path, summary: DistributionSummary, seed=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# version=1 seed={'' if seed is None else seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["mark", "count", "freq"])
        for k, (c, f) in enumerate(zip(summary.mark_counts, summary.mark_freqs)):
            writer.writerow([k, int(c), repr(float(f))])
