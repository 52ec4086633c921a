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

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import Config, NumericalError, ValidationError, check_memory
from .events import EventSequence


@dataclass(frozen=True)
class OtdConfig(Config, section="otd"):
    delete_cost: float = 1.0

    def validate(self):
        self.require(self.delete_cost > 0, "delete_cost", "> 0")


RMSE_Y_MODES = ("counts", "position")


@dataclass(frozen=True)
class EvaluateConfig(Config, section="evaluate"):
    """Settings of `flowtpp evaluate`; seed is only recorded in the report."""

    rmse_y_mode: str = "counts"
    seed: int = 0

    def validate(self):
        self.require(self.rmse_y_mode in RMSE_Y_MODES, "rmse_y_mode",
                     f"one of {RMSE_Y_MODES}")


def _vocab(pred: EventSequence, truth: EventSequence) -> int:
    """The vocab_size both sequences share."""
    if pred.vocab_size != truth.vocab_size:
        raise ValidationError(
            f"vocab_size mismatch: {pred.vocab_size} vs {truth.vocab_size}"
        )
    return pred.vocab_size


def otd(pred: EventSequence, truth: EventSequence,
        cfg: OtdConfig = OtdConfig()) -> float:
    """Minimum alignment cost between two event streams."""
    _vocab(pred, truth)
    return float(
        kernels.otd_align(
            pred.arrival_times(), pred.marks,
            truth.arrival_times(), truth.marks,
            cfg.delete_cost,
        )
    )


def _paired(pred: EventSequence, truth: EventSequence, field: str) -> tuple:
    """field of two non-empty sequences of equal length, position by position."""
    if len(pred) != len(truth):
        raise ValidationError(
            f"length mismatch: pred has {len(pred)} events, truth {len(truth)}"
        )
    if len(pred) == 0:
        raise ValidationError("cannot score empty sequences position-wise")
    return getattr(pred, field), getattr(truth, field)


def rmse_x(pred: EventSequence, truth: EventSequence) -> float:
    a, b = _paired(pred, truth, "inter_times")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def rmse_y(pred: EventSequence, truth: EventSequence,
           mode: str = EvaluateConfig.rmse_y_mode) -> float:
    """Mark error. "counts" compares per-type totals over the horizon;
    "position" is the square root of the label mismatch rate."""
    m = _vocab(pred, truth)
    if mode == "counts":
        cp = np.bincount(pred.marks, minlength=m).astype(np.float64)
        ct = np.bincount(truth.marks, minlength=m).astype(np.float64)
        return float(np.sqrt(np.mean((cp - ct) ** 2)))
    if mode == "position":
        a, b = _paired(pred, truth, "marks")
        return float(np.sqrt(np.mean(a != b)))
    raise ValidationError(f"rmse_y mode must be one of {RMSE_Y_MODES}, got {mode!r}")


def smape(pred: EventSequence, truth: EventSequence) -> float:
    a, b = _paired(pred, truth, "inter_times")
    # the halves keep the sum finite up to the largest float; the floor
    # only acts when a == b == 5e-324, whose halves round to 0
    half_sum = np.maximum(0.5 * np.abs(a) + 0.5 * np.abs(b), 5e-324)
    return float(100.0 * np.mean(np.abs(a - b) / half_sum))


def aggregate(columns: dict) -> dict:
    """{name: {"mean", "sd"}} over each column of values, as one array
    operation; the result depends only on the multiset of each column."""
    table = np.array(list(columns.values()))
    return {
        name: {"mean": float(mean), "sd": float(sd)}
        for name, mean, sd in zip(columns, table.mean(axis=1), table.std(axis=1))
    }


@dataclass
class MetricReport:
    per_window: dict
    aggregate: dict
    window_count: int

    def to_dict(self) -> dict:
        return {
            "window_count": self.window_count,
            "aggregate": self.aggregate,
            "per_window": self.per_window,
        }


def evaluate_windows(preds, truths, otd_cfg: OtdConfig = OtdConfig(),
                     rmse_y_mode: str = EvaluateConfig.rmse_y_mode) -> MetricReport:
    """All four metrics per (pred, truth) pair plus mean and s.d. columns.
    A non-finite value raises NumericalError naming the metric and window."""
    if len(preds) != len(truths):
        raise ValidationError(
            f"window count mismatch: {len(preds)} predictions, {len(truths)} truths"
        )
    if not preds:
        raise ValidationError("nothing to evaluate")
    per = {"otd": [], "rmse_x": [], "rmse_y": [], "smape": []}
    for i, (p, t) in enumerate(zip(preds, truths)):
        scores = (otd(p, t, otd_cfg), rmse_x(p, t), rmse_y(p, t, rmse_y_mode),
                  smape(p, t))
        for (name, column), value in zip(per.items(), scores):
            if not math.isfinite(value):
                raise NumericalError(f"non-finite {name} in window {i}: {value}")
            column.append(value)
    return MetricReport(per_window=per, aggregate=aggregate(per),
                        window_count=len(preds))


# inter-time bins of the histograms below, and the default of `flowtpp hist`
HIST_BINS = 50


def _time_bins(reference: np.ndarray, bins: int, samples) -> tuple:
    """Edges of bins equal-width inter-time bins over [0, p99 of reference],
    and per sample its counts in each bin, then above the top edge."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    # the edges and one sample's counts
    check_memory(2 * 8 * (bins + 1), "histogram", f"bins={bins}")
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


def write_csv(path, seed: int, header, rows):
    """A CSV artifact: the comment "# version=1 seed=S", the header, then
    one line per row, each value as str() and every line ending in \n."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# version=1 seed={seed}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in [header, *rows])


def write_time_histogram_csv(path, summary: DistributionSummary, seed: int):
    edges = summary.bin_edges.tolist()
    total = summary.time_counts.sum() + summary.overflow
    write_csv(path, seed, ("bin_lo", "bin_hi", "count", "freq"), [
        *zip(edges[:-1], edges[1:], summary.time_counts.tolist(),
             summary.time_freqs.tolist()),
        ("overflow", "inf", summary.overflow, float(summary.overflow / max(total, 1)))])


def write_mark_frequency_csv(path, summary: DistributionSummary, seed: int):
    counts = summary.mark_counts.tolist()
    write_csv(path, seed, ("mark", "count", "freq"),
              zip(range(len(counts)), counts, summary.mark_freqs.tolist()))
