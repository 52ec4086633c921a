"""Event-sequence data model, context/target windowing, and JSONL datasets.

Sequences are stored as inter-event times (strictly positive floats) plus
integer marks in ``[0, vocab_size)``. All containers are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, parse_json, read_text

log = logging.getLogger(__name__)

FORMAT_VERSION = 1


def _is_real(value) -> bool:
    """A real number that is not a bool: 2.5, 3 or np.float32(2.5)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (array dtype kinds accepted whole, test of one item, what an item must be)
_NUMBER = ("iuf", lambda v: type(v) is float or _is_real(v), "a number")
_INTEGER = ("iu", lambda v: type(v) is int or _is_real(v) and float(v).is_integer(),
            "an integer")


def _check_items(values, name: str, kind) -> None:
    """Raise unless every item of ``values`` is of ``kind``.

    A numpy array whose dtype kind is accepted passes whole. Anything else
    is checked item by item: numpy reads the JSON list [1, true] as numbers
    and ["2.5"] as 2.5.
    """
    kinds, ok, need = kind
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return
    items = values.tolist() if isinstance(values, np.ndarray) else values
    bad = next((i for i, v in enumerate(items) if not ok(v)), None)
    if bad is not None:
        raise ValidationError(f"{name} at index {bad} is not {need}: {items[bad]!r}")


@dataclass(frozen=True)
class EventSequence:
    """Ordered (inter-event time, mark) pairs over a vocabulary of size M."""

    inter_times: np.ndarray
    marks: np.ndarray
    vocab_size: int

    def __post_init__(self):
        dts = np.ascontiguousarray(self.inter_times, dtype=np.float64)
        marks = np.asarray(self.marks)
        if dts.ndim != 1 or marks.ndim != 1:
            raise ValidationError("inter_times and marks must be 1-d")
        _check_items(self.inter_times, "inter-event time", _NUMBER)
        _check_items(self.marks, "mark", _INTEGER)
        marks = np.ascontiguousarray(marks, dtype=np.int64)
        if dts.shape[0] != marks.shape[0]:
            raise ValidationError(
                f"length mismatch: {dts.shape[0]} inter_times vs {marks.shape[0]} marks"
            )
        if self.vocab_size < 1:
            raise ValidationError(f"vocab_size must be positive, got {self.vocab_size}")
        if not np.all(np.isfinite(dts)):
            raise ValidationError("non-finite inter-event time")
        if dts.size and dts.min() <= 0.0:
            idx = int(np.argmin(dts))
            raise ValidationError(
                f"inter-event times must be strictly positive (index {idx}: {dts[idx]})"
            )
        if marks.size and (marks.min() < 0 or marks.max() >= self.vocab_size):
            bad = int(np.argmax((marks < 0) | (marks >= self.vocab_size)))
            raise ValidationError(
                f"mark out of range [0, {self.vocab_size}) at index {bad}: {marks[bad]}"
            )
        dts.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "inter_times", dts)
        object.__setattr__(self, "marks", marks)

    def __len__(self):
        return self.inter_times.shape[0]

    def arrival_times(self) -> np.ndarray:
        """Cumulative sum of inter-event times, starting from t_0 = 0."""
        return np.cumsum(self.inter_times)


@dataclass(frozen=True)
class ForecastWindow:
    """A context prefix and a fixed-length target suffix of one sequence."""

    context: EventSequence
    target: EventSequence

    def __post_init__(self):
        if self.context.vocab_size != self.target.vocab_size:
            raise ValidationError("context and target vocab_size differ")
        if len(self.context) < 1:
            raise ValidationError("context must contain at least one event")
        if len(self.target) < 1:
            raise ValidationError("target must contain at least one event")

    @property
    def vocab_size(self) -> int:
        return self.context.vocab_size

    @property
    def horizon(self) -> int:
        return len(self.target)


def to_inter_event(timestamps) -> np.ndarray:
    """Convert strictly increasing absolute timestamps to inter-event times.

    Uses the convention t_0 = 0, so the first gap equals the first timestamp.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1:
        raise ValidationError("timestamps must be 1-d")
    _check_items(timestamps, "timestamp", _NUMBER)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("non-finite timestamp")
    dts = np.diff(ts, prepend=0.0)
    if ts.size and dts.min() <= 0.0:
        idx = int(np.argmin(dts))
        raise ValidationError(
            f"timestamps must be strictly increasing (violated at index {idx})"
        )
    return dts


def split_window(seq: EventSequence, horizon: int) -> ForecastWindow | None:
    """Split off the last ``horizon`` events as the target, rest as context.

    A sequence too short to leave any context gives None.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if len(seq) <= horizon:
        return None
    cut = len(seq) - horizon
    context = EventSequence(seq.inter_times[:cut], seq.marks[:cut], seq.vocab_size)
    target = EventSequence(seq.inter_times[cut:], seq.marks[cut:], seq.vocab_size)
    return ForecastWindow(context, target)


def make_windows(sequences, horizon: int) -> list[ForecastWindow]:
    """split_window over a dataset, dropping sequences that are too short
    with one warning for all of them."""
    splits = [split_window(seq, horizon) for seq in sequences]
    windows = [win for win in splits if win is not None]
    if len(windows) < len(splits):
        log.warning("skipped %d of %d sequences with at most %d events",
                    len(splits) - len(windows), len(splits), horizon)
    return windows


def _header_vocab_size(line: str, where: str) -> int:
    """M of the header line {"meta": {"vocab_size": M, ...}}."""
    obj = parse_json(line, where)
    meta = obj.get("meta") if isinstance(obj, dict) else None
    if not isinstance(meta, dict) or "vocab_size" not in meta:
        raise ValidationError(f'{where}: expected header {{"meta":{{"vocab_size":M}}}}')
    vocab = meta["vocab_size"]
    if not isinstance(vocab, int) or isinstance(vocab, bool) or vocab < 1:
        raise ValidationError(f"{where}: vocab_size must be a positive integer, got {vocab!r}")
    return vocab


def load_jsonl(path, vocab_size: int | None = None,
               skip_invalid: bool = True) -> list[EventSequence]:
    """Load an event dataset from JSON Lines.

    The first line must declare the mark vocabulary
    (``{"meta":{"vocab_size":M}}``); data lines carry ``dts`` (inter-event
    times) or ``ts`` (absolute timestamps, converted on load) plus ``marks``.
    Malformed lines are hard errors naming the file and line number; lines
    violating the domain invariants (mark range, positivity) are rejected
    per-line with a logged warning, or, with ``skip_invalid=False``, are
    hard errors too. If ``vocab_size`` is given it must match the header.
    """
    lines = read_text(path).splitlines()
    if not lines:
        return []
    declared = _header_vocab_size(lines[0], f"{path} line 1")
    if vocab_size is not None and vocab_size != declared:
        raise ValidationError(f"{path}: vocab_size mismatch: header declares "
                              f"{declared}, caller expects {vocab_size}")

    sequences = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        where = f"{path} line {lineno}"
        obj = parse_json(raw, where)
        if not isinstance(obj, dict) or "marks" not in obj or not ("dts" in obj or "ts" in obj):
            raise ValidationError(f'{where}: expected {{"dts"|"ts":[...],"marks":[...]}}')
        try:
            dts = obj["dts"] if "dts" in obj else to_inter_event(obj["ts"])
            seq = EventSequence(dts, obj["marks"], declared)
        except (ValidationError, TypeError, ValueError, OverflowError) as exc:
            if not skip_invalid:
                raise ValidationError(f"{where} rejected: {exc}") from exc
            log.warning("%s rejected: %s", where, exc)
            continue
        sequences.append(seq)
    return sequences


def save_jsonl(path, sequences, vocab_size: int, seed: int | None = None) -> None:
    """Write sequences in the JSONL dataset format (header first)."""
    meta = {"vocab_size": vocab_size, "version": FORMAT_VERSION}
    if seed is not None:
        meta["seed"] = int(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for seq in sequences:
            if seq.vocab_size != vocab_size:
                raise ValidationError("sequence vocab_size differs from dataset header")
            row = {"dts": seq.inter_times.tolist(), "marks": seq.marks.tolist()}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
