"""One workload in one process, so that its peak RSS is its own.

Started by ``run.py`` with BLAS threads pinned before numpy is imported.
Prints one JSON object as its last line of standard output.

    --setup-only   time set-up alone and exit
    --trace 0      timed pass: stage samples for the end-to-end metrics
    --trace 1      pairs of fixed passes, one untraced and one traced, until
                   --seconds is used; per-layer metrics and the tracing overhead
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flowtpp  # noqa: E402
from flowtpp import accel, sampler  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = np.sort(values)
    n = ordered.size
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def best_of(rows) -> tuple:
    """``{item: (work, fastest seconds)}`` over ``(rep, item, work, seconds)``
    rows, and the fewest repetitions any item had. Host noise only ever adds
    time, and an item of a few milliseconds repeated through the run meets
    quiet moments of the host, so its best time is its own cost."""
    times, work = defaultdict(list), {}
    for _, item, w, dt in rows:
        times[item].append(dt)
        work[item] = w
    best = {item: (work[item], min(t)) for item, t in times.items()}
    return best, min(len(t) for t in times.values())


def end_to_end(p: workloads.Pass) -> dict:
    """{name: (value, sample count, note)} from one timed pass.

    Simulation, evaluation and requests are timed item by item (one
    sequence, one scored pair, one forecast window) and repeated through
    the run, so they report each item's best repetition; the latency tail
    is taken over every request. Training epochs, ``generate`` calls and CLI
    pipelines last about a second, too long to fall inside a quiet moment
    of the host, so they report medians."""
    s = p.samples
    out = {}
    for name, stage in (("simulate_events_per_s", "simulate"),
                        ("eval_windows_per_s", "evaluate")):
        best, reps = best_of(s[stage])
        rate = sum(w for w, _ in best.values()) / sum(dt for _, dt in best.values())
        out[name] = (rate, reps, f"sum of work / sum of best of {reps}+ per item")
    for name, stage in (("train_windows_per_s", "train"),
                        ("sample_windows_per_s", "generate")):
        rates = [w / dt for _, _, w, dt in s[stage]]
        out[name] = (float(np.median(rates)), len(rates), "median")
    pipes = [dt for _, _, _, dt in s["pipeline"]]
    out["pipeline_s"] = (float(np.median(pipes)), len(pipes), "median")
    best, reps = best_of(s["request"])
    best_ms = [dt * 1e3 for _, dt in best.values()]
    out["forecast_latency_p50_ms"] = (float(np.median(best_ms)), len(best_ms),
                                      f"p50 over windows of best of {reps}+ per window")
    lat_ms = np.array([dt for _, _, _, dt in s["request"]]) * 1e3
    tail_ms, pct = tail(lat_ms)
    out["forecast_latency_tail_ms"] = (tail_ms, len(lat_ms),
                                       f"p{pct:.2f} of every request, 10 samples beyond")
    out["otd_mean"] = (p.values["otd_mean"], len(p.preds), "over forecast windows")
    return out


SELF_TIMED = ("synthgen.simulate_hawkes", "kernels.hawkes_thinning",
              "kernels.otd_align", "model.encode_contexts", "model.build_flow_batch",
              "model.loss_total", "model.predict", "nn.backward", "nn.adam_step",
              "nn.mlp_forward", "nn.gru_step", "nn.save_checkpoint",
              "nn.load_checkpoint", "sampler.generate", "sampler.mark_probs",
              "sampler.categorical_rows", "metrics.evaluate_windows",
              "events.save_jsonl", "events.load_jsonl", "cli.cmd_train",
              "cli.cmd_sample", "cli.cmd_evaluate")
# simulate and evaluate leave no reference cycles: their collector readings
# stay near 0, so only these stages are reported
GC_STAGES = ("train", "sample", "pipeline")
CALLED = ("kernels.hawkes_thinning", "kernels.otd_align", "model.encode_contexts",
          "model.predict", "sampler.mark_probs", "sampler.categorical_rows")


def per_layer(tr: tracing.Tracer, invariants: tuple) -> dict:
    totals = tr.span_totals()
    c = tr.counts
    out = {f"{name}.self_s": totals.get(name, (0, 0.0))[1] for name in SELF_TIMED}
    out.update({f"{name}.calls": totals.get(name, (0, 0.0))[0] for name in CALLED})
    out["kernels.hawkes_thinning.accept_ratio"] = (
        c["thinning.emitted"] / c["thinning.candidates"])
    out["kernels.hawkes_thinning.reruns"] = (
        totals["kernels.hawkes_thinning"][0] - totals["synthgen.simulate_hawkes"][0])
    out["kernels.otd_align.cells"] = c["otd.cells"]
    out["model.encode_contexts.rows"] = c["encode.rows"]
    out["model.encode_contexts.pad_ratio"] = (
        c["encode.useful_steps"] / c["encode.computed_steps"])
    out["model.predict.rows"] = c["predict.rows"]
    out["nn.tape_nodes_per_batch"] = c["loss.tape_nodes"] / c["loss.batches"]
    out["nn.matmul.calls"] = c["matmul.calls"]
    out["nn.matmul.gflop"] = c["matmul.flop"] / 1e9
    for key in ("nn.save_checkpoint.bytes", "nn.load_checkpoint.bytes",
                "events.save_jsonl.bytes", "events.load_jsonl.bytes"):
        out[key] = c[key]
    out["sampler.invariant_checks"], out["sampler.invariant_violations"] = invariants
    for stage in GC_STAGES:
        for what in ("collections_gen2", "collected", "pause_s"):
            out[f"gc.{stage}.{what}"] = c[f"gc.{stage}.{what}"]
    return out


def invariant_counts() -> tuple:
    return sampler.INVARIANT_COUNTS["checks"], sampler.INVARIANT_COUNTS["violations"]


def traced_run(wl, seed, seconds, initial, workdir, ledger):
    """Pairs of fixed passes, one untraced and one traced, until ``seconds``
    is used. The order alternates between pairs, so warm-up costs of the
    first pass do not all land on one side of the overhead."""
    rows, overheads = [], []
    for pair in workloads.loop(1, seconds):
        walls = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tr = tracing.Tracer() if traced else tracing.NullTracer()
            before = invariant_counts()
            t0 = time.perf_counter()
            with tr.installed() if traced else contextlib.nullcontext():
                p = workloads.Pass(wl, seed, initial, workdir, ledger, tr).run()
            walls[traced] = time.perf_counter() - t0
            after = invariant_counts()
            if traced:
                rows.append(per_layer(tr, (after[0] - before[0], after[1] - before[1])))
                rows[-1]["metrics.hist_tv"] = p.values["hist_tv"]
                if pair == 0:
                    tr.write_spans(OUT / f"spans-{wl.name}-{seed}.jsonl")
        overheads.append(walls[True] - walls[False])
    layers = {key: float(np.median([r[key] for r in rows])) for key in rows[0]}
    layers["trace_overhead_s"] = float(np.median(overheads))
    layers.update(workloads.kernel_cases(repeats=5))
    return layers, len(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time at which the parent started this process")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=OUT)
    try:
        initial = workloads.setup(wl, workdir)
        setup_s = time.time() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            ledger = workloads.Ledger()
            before = invariant_counts()
            if args.trace:
                result["per_layer"], result["passes"] = traced_run(
                    wl, args.seed, args.seconds, initial, workdir, ledger)
            else:
                p = workloads.Pass(wl, args.seed, initial, workdir, ledger,
                                   tracing.NullTracer(), seconds=args.seconds).run()
                result["end_to_end"] = end_to_end(p)
                result["hist_tv"] = p.values["hist_tv"]
            _, violations = invariant_counts()
            ledger.attempted += 1
            if violations != before[1]:
                ledger.failed += 1
                print("sampler invariant violations", file=sys.stderr)
            result.update(
                attempted=ledger.attempted, failed=ledger.failed,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                digests={k: v for k, v in ledger.reference.items()
                         if k in ("forecasts", "requests", "trained", "report")},
                env={"workload": wl.name, "seed": args.seed,
                     "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                     "nproc": os.cpu_count(), "numpy": np.__version__,
                     "python": sys.version.split()[0], "flowtpp": flowtpp.__version__,
                     "numba_enabled": accel.NUMBA_ENABLED, "tiny": args.tiny})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
