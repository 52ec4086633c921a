"""Span tracer that wraps flowtpp's public functions at their lookup sites.

Nothing in ``src/`` is changed: ``Tracer.installed()`` replaces module and
class attributes with timing wrappers and puts every original back on exit,
even when the traced code raises. A wrapper returns the wrapped function's
result object untouched, so traced and untraced runs compute the same
values.

Spans are ``[name, start, end, parent, op]`` rows kept in memory; ``parent``
is the index of the enclosing span (or -1) and ``op`` names the benchmark
operation that caused it. A span's self time is its duration minus the time
covered by its direct children (spans nest, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import time
from collections import defaultdict

import numpy as np

import flowtpp.cli
import flowtpp.events
import flowtpp.kernels
import flowtpp.metrics
import flowtpp.model
import flowtpp.nn
import flowtpp.sampler
import flowtpp.synthgen

# stages of a pass; garbage-collector activity is counted per stage
STAGES = ("simulate", "train", "sample", "evaluate", "pipeline")


def tape_nodes(root) -> int:
    """Tensors reachable from ``root`` through ``_parents`` (root included)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class NullTracer:
    """Stand-in used for untraced runs: stage and operation marks do nothing."""

    def stage(self, name):
        return contextlib.nullcontext()

    def operation(self, op):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._op = None
        self._stage = None
        self._gc_start = None
        self._t0 = time.perf_counter()

    # ---- spans -------------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name):
        if name not in STAGES:
            raise ValueError(f"unknown stage {name!r}")
        self._stage = name
        idx = self._open(f"stage.{name}")
        try:
            yield
        finally:
            self._close(idx)
            self._stage = None

    @contextlib.contextmanager
    def operation(self, op):
        self._op = op
        try:
            yield
        finally:
            self._op = None

    def wrap(self, fn, name, after=None, span=True):
        """Timing wrapper around ``fn``; ``after(args, result)`` updates counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # ---- counters at the layer boundaries ----------------------------------

    def _thinning(self, args, result):
        emitted, consumed = result
        self.counts["thinning.emitted"] += emitted
        # a rejected candidate consumes 2 uniforms, an accepted one 3
        self.counts["thinning.candidates"] += (consumed - emitted) / 2

    def _otd(self, args, result):
        self.counts["otd.cells"] += args[0].shape[0] * args[2].shape[0]

    def _encode(self, args, result):
        lens = [len(c) for c in args[1]]
        self.counts["encode.rows"] += len(lens)
        self.counts["encode.useful_steps"] += sum(lens)
        self.counts["encode.computed_steps"] += len(lens) * max(lens)

    def _predict(self, args, result):
        self.counts["predict.rows"] += result[0].shape[0]

    def _loss(self, args, result):
        self.counts["loss.batches"] += 1
        self.counts["loss.tape_nodes"] += tape_nodes(result[0])

    def _matmul(self, args, result):
        self.counts["matmul.calls"] += 1
        self.counts["matmul.flop"] += 2.0 * result.data.size * args[0].data.shape[-1]

    def _bytes(self, key):
        def after(args, result):
            self.counts[key] += os.path.getsize(args[0])

        return after

    def _targets(self):
        """(owner, attribute, span name, counter hook, record a span)."""
        cli, nn, model = flowtpp.cli, flowtpp.nn, flowtpp.model.Model
        sampler, kernels = flowtpp.sampler, flowtpp.kernels
        return [
            (flowtpp.synthgen, "simulate_hawkes", "synthgen.simulate_hawkes", None, True),
            (cli, "simulate_hawkes", "synthgen.simulate_hawkes", None, True),
            (kernels, "hawkes_thinning", "kernels.hawkes_thinning", self._thinning, True),
            (kernels, "otd_align", "kernels.otd_align", self._otd, True),
            (model, "encode_contexts", "model.encode_contexts", self._encode, True),
            (model, "build_flow_batch", "model.build_flow_batch", None, True),
            (model, "loss_total", "model.loss_total", self._loss, True),
            (model, "predict", "model.predict", self._predict, True),
            (nn, "backward", "nn.backward", None, True),
            (nn, "adam_step", "nn.adam_step", None, True),
            (nn, "mlp_forward", "nn.mlp_forward", None, True),
            (nn, "gru_step", "nn.gru_step", None, True),
            (nn.Tensor, "__matmul__", "nn.matmul", self._matmul, False),
            (nn, "save_checkpoint", "nn.save_checkpoint",
             self._bytes("nn.save_checkpoint.bytes"), True),
            (nn, "load_checkpoint", "nn.load_checkpoint",
             self._bytes("nn.load_checkpoint.bytes"), True),
            (sampler, "generate", "sampler.generate", None, True),
            (cli, "generate", "sampler.generate", None, True),
            (sampler, "mark_probs", "sampler.mark_probs", None, True),
            (sampler, "categorical_rows", "sampler.categorical_rows", None, True),
            (flowtpp.metrics, "evaluate_windows", "metrics.evaluate_windows", None, True),
            (cli, "evaluate_windows", "metrics.evaluate_windows", None, True),
            (flowtpp.events, "save_jsonl", "events.save_jsonl",
             self._bytes("events.save_jsonl.bytes"), True),
            (cli, "save_jsonl", "events.save_jsonl",
             self._bytes("events.save_jsonl.bytes"), True),
            (flowtpp.events, "load_jsonl", "events.load_jsonl",
             self._bytes("events.load_jsonl.bytes"), True),
            (cli, "load_jsonl", "events.load_jsonl",
             self._bytes("events.load_jsonl.bytes"), True),
            (cli, "cmd_train", "cli.cmd_train", None, True),
            (cli, "cmd_sample", "cli.cmd_sample", None, True),
            (cli, "cmd_evaluate", "cli.cmd_evaluate", None, True),
        ]

    # ---- garbage collector ---------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._stage is None or self._gc_start is None:
            return
        prefix = f"gc.{self._stage}"
        self.counts[f"{prefix}.pause_s"] += time.perf_counter() - self._gc_start
        self.counts[f"{prefix}.collected"] += info["collected"]
        if info["generation"] == 2:
            self.counts[f"{prefix}.collections_gen2"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr, name, after, span in self._targets():
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, after, span))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ---- results -------------------------------------------------------------

    def span_totals(self) -> dict:
        """{name: (calls, self seconds)} over all closed spans."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child[i])
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - self._t0, end - self._t0,
                                     parent, op]) + "\n")
