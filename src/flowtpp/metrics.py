"""Evaluation metrics for marked event sequences.

- otd: minimum-cost order-preserving alignment (same-mark matches pay the
  absolute arrival-time gap, unmatched events pay a deletion cost)
- rmse_x: root mean squared error of inter-event times by position
- rmse_y: root mean squared error of per-type event counts over the horizon,
  the RMSE_e of long-horizon forecasting (Xue et al., HYPRO, 2022)
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


def _vocab(pred: EventSequence, truth: EventSequence):
    """Raise unless both sequences have one vocab_size."""
    if pred.vocab_size != truth.vocab_size:
        raise ValidationError(f"vocab_size mismatch: {pred.vocab_size} vs {truth.vocab_size}")


def _paired(pred: EventSequence, truth: EventSequence) -> int:
    """The length of two non-empty sequences scored position by position."""
    n = len(pred)
    if n != len(truth):
        raise ValidationError(f"length mismatch: pred has {n} events, truth {len(truth)}")
    if n == 0:
        raise ValidationError("cannot score empty sequences position-wise")
    return n


# Each mean below is np.add.reduce(x) / n, the operations np.mean runs on a
# 1-d float array, so every value has np.mean's bits.

def _rmse_x(diff: np.ndarray, n: int) -> float:
    return math.sqrt(np.add.reduce(diff * diff) / n)


def _rmse_y(pred: EventSequence, truth: EventSequence) -> float:
    # exact integer sums. Types past the largest mark present count 0 on both
    # sides, so the counts stop there and vocab_size is only the divisor
    cp, ct = np.bincount(pred.marks), np.bincount(truth.marks)
    if len(cp) != len(ct):  # recount both at the longer length
        k = max(len(cp), len(ct))
        cp, ct = np.bincount(pred.marks, minlength=k), np.bincount(truth.marks, minlength=k)
    delta = cp - ct
    return math.sqrt(int(delta @ delta) / pred.vocab_size)


def _smape(pred: EventSequence, truth: EventSequence, diff: np.ndarray, n: int) -> float:
    # the times a and b are positive, so |a| is a. The halves keep the sum
    # finite; the floor acts only when a == b == 5e-324, whose halves round to 0
    half_sum = np.maximum(0.5 * pred.inter_times + 0.5 * truth.inter_times, 5e-324)
    return 100.0 * (float(np.add.reduce(np.abs(diff) / half_sum)) / n)


def otd(pred: EventSequence, truth: EventSequence,
        cfg: OtdConfig = OtdConfig()) -> float:
    """Minimum alignment cost between two event streams."""
    _vocab(pred, truth)
    return kernels.otd_align(pred.arrival_times(), pred.marks,
                             truth.arrival_times(), truth.marks, cfg.delete_cost)


def rmse_x(pred: EventSequence, truth: EventSequence) -> float:
    return _rmse_x(pred.inter_times - truth.inter_times, _paired(pred, truth))


def rmse_y(pred: EventSequence, truth: EventSequence) -> float:
    """Mark error: per-type totals over the horizon, over all vocab_size types."""
    _vocab(pred, truth)
    return _rmse_y(pred, truth)


def smape(pred: EventSequence, truth: EventSequence) -> float:
    return _smape(pred, truth, pred.inter_times - truth.inter_times, _paired(pred, truth))


def aggregate(columns: dict) -> dict:
    """{name: {"mean", "sd"}} over each column of values: the ufuncs that
    np.mean and np.std run, in their order, on all columns at once."""
    table = np.array(list(columns.values()))
    n = table.shape[1]
    means = np.add.reduce(table, axis=1, keepdims=True) / n
    dev = table - means
    sds = np.sqrt(np.add.reduce(dev * dev, axis=1) / n)
    return {name: {"mean": mean, "sd": sd}
            for name, mean, sd in zip(columns, means[:, 0].tolist(), sds.tolist())}


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


def evaluate_windows(preds, truths, otd_cfg: OtdConfig = OtdConfig()) -> MetricReport:
    """All four metrics per pair, each with its own function's bits, plus mean
    and s.d. columns. A mismatch or a non-finite value names its window."""
    if len(preds) != len(truths):
        raise ValidationError(
            f"window count mismatch: {len(preds)} predictions, {len(truths)} truths"
        )
    if not preds:
        raise ValidationError("nothing to evaluate")
    per = {"otd": [], "rmse_x": [], "rmse_y": [], "smape": []}
    for i, (p, t) in enumerate(zip(preds, truths)):
        try:
            cost = otd(p, t, otd_cfg)  # checks the vocabularies
            n = _paired(p, t)
        except ValidationError as exc:
            raise ValidationError(f"window {i}: {exc}") from None
        diff = p.inter_times - t.inter_times
        scores = (cost, _rmse_x(diff, n), _rmse_y(p, t), _smape(p, t, diff, n))
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
