"""The benchmark's workloads and the stages each one runs.

Every workload runs the same stages back to back, as one caller:
simulate -> train -> sample -> requests -> evaluate -> pipeline. A fixed
part runs each stage once (the traced run stops there); a timed pass then
repeats every stage in rounds until ``--seconds`` is used. The fixed part
alone decides the model after the fixed training budget, the forecasts and
their digests, so they do not depend on how fast the code ran.

Each operation counts as attempted; it counts as failed when it raises or
an output check fails. Functions are always looked up through their module
(``sampler.generate``, not a local alias) so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from flowtpp import cli, kernels, metrics, sampler, synthgen
from flowtpp import model as model_mod
from flowtpp.accel import python_impl
from flowtpp.events import make_windows
from flowtpp.model import Model, ModelConfig, TrainConfig
from flowtpp.sampler import SamplerConfig

MODEL_SEED = 7  # parameter init of every workload's checkpoint
METRIC_NAMES = ("otd", "rmse_x", "rmse_y", "smape")
STEPS = 8       # flow steps S


@dataclass(frozen=True)
class Workload:
    name: str
    base_rates: tuple
    excite: tuple       # row-major M x M
    decay: float
    horizon: int        # L
    train_seqs: int
    eval_seqs: int
    min_len: int        # sequence lengths are spread evenly over
    max_len: int        # [min_len, max_len]
    batch_size: int
    epochs: int         # fixed training budget behind otd_mean and hist_tv
    requests: int       # eval windows in the closed-loop request pool
    round: dict         # operations per round after the fixed part
    pipeline: tuple     # CLI shape: (num_seqs, eval_seqs, length, batch_size)

    @property
    def vocab_size(self) -> int:
        return len(self.base_rates)

    def spec(self) -> synthgen.HawkesSpec:
        m = self.vocab_size
        return synthgen.HawkesSpec(np.array(self.base_rates),
                                   np.array(self.excite).reshape(m, m), self.decay)

    def model_config(self) -> ModelConfig:
        return ModelConfig(vocab_size=self.vocab_size, horizon=self.horizon)

    def tiny(self) -> "Workload":
        """Same stages at toy sizes, for the harness self-tests."""
        length = self.horizon // 4 + 6
        return dataclasses.replace(
            self, horizon=self.horizon // 4, train_seqs=6, eval_seqs=4,
            min_len=length, max_len=length + (self.max_len > self.min_len) * 6,
            batch_size=min(self.batch_size, 4), epochs=1, requests=3,
            pipeline=(6, 3, length, min(self.batch_size, 4)))


_M2 = dict(base_rates=(0.25, 0.25), excite=(0.3, 0.1, 0.1, 0.3), decay=1.0)
_M4 = dict(base_rates=(0.2, 0.2, 0.2, 0.2),
           excite=(0.5, 0.05, 0.05, 0.05,
                   0.05, 0.5, 0.05, 0.05,
                   0.05, 0.05, 0.5, 0.05,
                   0.05, 0.05, 0.05, 0.5),
           decay=1.0)

WORKLOADS = {
    # ROADMAP baseline shape; BLAS matmul in nn dominates train and generate,
    # and 320 eval windows make generate run a full 256-window chunk. Its
    # closed loop of single-window requests (20 rows per predict) is where
    # Python, tape and per-window RNG overhead dominate instead
    "hawkes-batch": Workload(
        name="hawkes-batch", **_M2, horizon=20, train_seqs=320, eval_seqs=320,
        min_len=40, max_len=40, batch_size=32, epochs=12, requests=8,
        pipeline=(320, 64, 40, 32),
        round=dict(simulate=3, train=4, generate=2, request=64, evaluate=3,
                   pipeline=2)),
    # ragged contexts of 50-200 events and L=100: the O(L^2) alignment DP,
    # 200 masked GRU steps and about 22k thinning events per input set
    "long-horizon": Workload(
        name="long-horizon", **_M4, horizon=100, train_seqs=64, eval_seqs=32,
        min_len=150, max_len=300, batch_size=32, epochs=3, requests=8,
        pipeline=(32, 16, 250, 32),
        round=dict(simulate=3, train=2, generate=2, request=32, evaluate=3,
                   pipeline=2)),
}


def loop(min_reps: int, seconds=None):
    """Repetition indices: at least ``min_reps``; with ``seconds`` set, more
    while another repetition of the average length still ends in time."""
    start = time.perf_counter()
    rep = 0
    while rep < min_reps or (seconds is not None and _fits(
            rep, time.perf_counter() - start, seconds)):
        yield rep
        rep += 1


def _fits(done, elapsed, seconds):
    return elapsed + (elapsed / done if done else 0.0) <= seconds


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sequences_digest(seqs) -> str:
    return digest(*[a for s in seqs for a in (s.inter_times, s.marks)])


def params_digest(model: Model) -> str:
    return digest(*[t.data for _, t in sorted(model.store.params.items())])


def clone(model: Model) -> Model:
    copy = Model(model.config, init=False)
    for path, t in copy.store.params.items():
        t.data = model.store.params[path].data.copy()
    return copy


class Op:
    """Output checks of one operation."""

    def __init__(self, ledger, what):
        self.ledger = ledger
        self.what = what
        self.ok = True
        self.rep = None  # repetition index, set by Pass.step

    def expect(self, cond, message):
        if not cond:
            self.ok = False
            print(f"check failed in {self.what}: {message}", file=sys.stderr)

    def same(self, key, value):
        """``value`` must equal the first value recorded under ``key``."""
        first = self.ledger.reference.setdefault(key, value)
        self.expect(first == value, f"{key} differs from its first repetition")


class Ledger:
    """Operations attempted and failed, plus reference digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    @contextlib.contextmanager
    def op(self, what):
        op = Op(self, what)
        self.attempted += 1
        try:
            yield op
        except Exception:  # a failing operation is counted, then the loop goes on
            traceback.print_exc(file=sys.stderr)
            op.ok = False
        if not op.ok:
            self.failed += 1


def valid_forecasts(samples, n, wl: Workload):
    """Every forecast must build an EventSequence of length L."""
    preds = sampler.predictions_to_sequences(samples, wl.vocab_size)
    ok = len(preds) == n and all(len(p) == wl.horizon for p in preds)
    return preds, ok


class Pass:
    """One run of the five stages on one workload and seed.

    The fixed part runs each stage's minimum once, in order; it alone
    decides the trained model, the forecasts and the quality metrics. With
    ``seconds`` set, rounds follow until the time is used. Each round repeats
    every stage a few times (``Workload.round``), each stage's repetitions
    spread evenly through the round, so every stage samples the whole run
    rather than one slice of it; host noise on a shared machine comes in
    bursts of seconds. Garbage is collected only before the fixed
    part and before each round, untimed: within a round, collections set off
    by earlier operations' garbage (such as the tapes that training leaves)
    land inside the timings of later ones, as they would for a real caller.
    """

    def __init__(self, wl: Workload, seed: int, initial: Model, workdir,
                 ledger: Ledger, tracer, seconds=None):
        self.wl = wl
        self.seed = seed
        self.initial = initial
        self.workdir = workdir
        self.ledger = ledger
        self.trace = tracer
        self.seconds = seconds
        self.samples = defaultdict(list)
        self.values = {}
        self.counter = defaultdict(int)

    def run(self):
        wl = self.wl
        start = time.perf_counter()
        gc.collect()
        self.simulate()
        self.trainee = clone(self.initial)
        for _ in range(wl.epochs):
            self.train()
        with self.ledger.op("trained model") as op:
            op.same("trained", params_digest(self.trainee))
        self.forecaster = clone(self.trainee)
        self.generate()
        for _ in range(len(self.pool)):
            self.request()
        self.evaluate()
        self.pipeline()
        if self.seconds is not None:
            ops = dict(simulate=self.simulate, train=self.train, generate=self.generate,
                       request=self.request, evaluate=self.evaluate,
                       pipeline=self.pipeline)
            schedule = [name for _, name in sorted(
                ((k + 0.5) / count, name)
                for name, count in wl.round.items() for k in range(count))]
            for _ in loop(0, self.seconds - (time.perf_counter() - start)):
                gc.collect()
                for name in schedule:
                    ops[name]()
        return self

    @contextlib.contextmanager
    def step(self, stage, what):
        """One operation, checked and counted, inside its stage's spans."""
        rep = self.counter[what]
        self.counter[what] += 1
        with self.trace.stage(stage), self.trace.operation(f"{what}:{rep}"), \
                self.ledger.op(what) as op:
            op.rep = rep
            yield op

    def lengths(self, n):
        """Lengths spread evenly over [min_len, max_len]. They do not depend
        on the seed, so neither do tape sizes, padding and peak memory."""
        wl = self.wl
        return (wl.min_len + np.arange(n) * (wl.max_len - wl.min_len) // max(n - 1, 1)).tolist()

    def record(self, stage, rep, work, times):
        """Timings of one operation, one ``(rep, item, work, seconds)`` row
        per item it covers."""
        self.samples[stage].extend(
            (rep, item, w, dt) for item, (w, dt) in enumerate(zip(work, times)))

    # ---- operations ----------------------------------------------------------

    def simulate(self):
        """Every sequence is simulated and timed on its own."""
        wl = self.wl
        if not hasattr(self, "plan"):
            self.plan = (
                [(n, [self.seed, 2, i]) for i, n in enumerate(self.lengths(wl.train_seqs))]
                + [(n, [self.seed, 5, i]) for i, n in enumerate(self.lengths(wl.eval_seqs))])
        spec = wl.spec()
        with self.step("simulate", "simulate") as op:
            seqs, times = [], []
            for n, s in self.plan:
                t0 = time.perf_counter()
                seqs.append(synthgen.simulate_hawkes(spec, n, seed=s))
                times.append(time.perf_counter() - t0)
            op.expect(all(len(s) == n for s, (n, _) in zip(seqs, self.plan)),
                      "sequence length")
            op.same("simulate", sequences_digest(seqs))
        if op.ok:
            self.record("simulate", op.rep, [n for n, _ in self.plan], times)
        if op.rep == 0:
            self.train_windows = make_windows(seqs[: wl.train_seqs], wl.horizon)
            self.eval_windows = make_windows(seqs[wl.train_seqs :], wl.horizon)
            self.truths = [w.target for w in self.eval_windows]
            # every stride-th eval window, so the pool spans the length range
            stride = len(self.eval_windows) // wl.requests
            self.pool = self.eval_windows[::stride][: wl.requests]

    def train(self):
        windows = self.train_windows
        with self.step("train", "train") as op:
            cfg = TrainConfig(epochs=1, batch_size=self.wl.batch_size, seed=op.rep)
            t0 = time.perf_counter()
            rows = model_mod.train(self.trainee, windows, cfg)
            dt = time.perf_counter() - t0
            op.expect(all(np.isfinite(r["loss_total"]) for r in rows), "finite loss")
        if op.ok:
            self.record("train", op.rep, [len(windows)], [dt])

    def generate(self):
        n = len(self.eval_windows)
        cfg = SamplerConfig(steps=STEPS, seed=self.seed)
        with self.step("sample", "generate") as op:
            t0 = time.perf_counter()
            out = sampler.generate(self.forecaster, self.eval_windows, cfg)
            dt = time.perf_counter() - t0
            preds, ok = valid_forecasts(out, n, self.wl)
            op.expect(ok, "forecast count or length")
            op.same("forecasts", digest(*[a for s in out for a in s]))
        if op.ok:
            self.record("generate", op.rep, [n], [dt])
            if op.rep == 0:
                self.preds = preds

    def request(self):
        """Closed loop, one client: request i forecasts pool window i mod P."""
        p = len(self.pool)
        with self.step("sample", "request") as op:
            k = op.rep % p
            if k == 0:
                self.request_arrays = []
            cfg = SamplerConfig(steps=STEPS, seed=k)
            t0 = time.perf_counter()
            out = sampler.generate(self.forecaster, [self.pool[k]], cfg)
            dt = time.perf_counter() - t0
            preds, ok = valid_forecasts(out, 1, self.wl)
            op.expect(ok, "forecast length")
            self.request_arrays.extend(out[0])
            if k == p - 1:
                op.same("requests", digest(*self.request_arrays))
        if op.ok:
            self.samples["request"].append((op.rep // p, k, 1, dt))

    def evaluate(self):
        """Every (pred, truth) pair is scored by its own evaluate_windows call."""
        n = len(self.preds)
        with self.step("evaluate", "evaluate") as op:
            rows, times = [], []
            for p, t in zip(self.preds, self.truths):
                t0 = time.perf_counter()
                report = metrics.evaluate_windows([p], [t])
                times.append(time.perf_counter() - t0)
                rows.append([report.per_window[name][0] for name in METRIC_NAMES])
            values = np.array(rows, dtype=np.float64)
            op.expect(values.shape == (n, len(METRIC_NAMES)), "window count")
            op.expect(np.isfinite(values).all(), "finite metric values")
            op.same("report", digest(values))
            for t in self.truths[:3]:
                op.expect(metrics.otd(t, t) == 0.0, "otd(x, x) == 0")
        if op.ok:
            self.record("evaluate", op.rep, [1] * n, times)
        if op.rep == 0:
            with self.ledger.op("quality") as op:
                tv = metrics.histogram_tv(
                    np.concatenate([p.inter_times for p in self.preds]),
                    np.concatenate([t.inter_times for t in self.truths]))
                otd_mean = float(np.mean([row[0] for row in rows]))
                op.expect(np.isfinite(tv) and np.isfinite(otd_mean), "finite quality")
                self.values["otd_mean"] = otd_mean
                self.values["hist_tv"] = tv

    def pipeline_argv(self, workdir):
        wl = self.wl
        num, num_eval, length, batch = wl.pipeline
        return ["pipeline", "--workdir", workdir, "--kind", "hawkes",
                "--base-rates", ",".join(map(str, wl.base_rates)),
                "--excite", ",".join(map(str, wl.excite)),
                "--decay", str(wl.decay), "--num-seqs", str(num),
                "--eval-seqs", str(num_eval), "--length", str(length),
                "--horizon", str(wl.horizon), "--epochs", "1",
                "--batch-size", str(batch), "--steps", str(STEPS),
                "--seed", str(self.seed)]

    def pipeline(self):
        """The CLI in-process, in a fresh workdir each time; artifacts must be
        byte-identical to the previous repetition."""
        workdir = tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir)
        try:
            with self.step("pipeline", "pipeline") as op:
                argv = self.pipeline_argv(workdir)
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                dt = time.perf_counter() - t0
                op.expect(code == 0, f"exit code {code}")
                artifacts = {}
                for name in sorted(os.listdir(workdir)):
                    with open(os.path.join(workdir, name), "rb") as fh:
                        artifacts[name] = hashlib.sha256(fh.read()).hexdigest()
                op.expect("report.json" in artifacts, "report.json written")
                op.same("pipeline", artifacts)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if op.ok:
            self.record("pipeline", op.rep, [1], [dt])


def setup(wl: Workload, workdir) -> Model:
    """Fixed-seed checkpoint written and loaded back, then a warm-up of every
    stage at toy size (numba compiles here when it is enabled)."""
    path = os.path.join(workdir, "checkpoint.json")
    built = Model(wl.model_config(), seed=MODEL_SEED)
    built.save_checkpoint(path)
    loaded = Model.from_checkpoint(path)
    if params_digest(loaded) != params_digest(built):
        raise RuntimeError("checkpoint round trip changed the parameters")
    spec = wl.spec()
    tiny = [synthgen.simulate_hawkes(spec, wl.horizon + 4, seed=[0, 9, i]) for i in range(2)]
    windows = make_windows(tiny, wl.horizon)
    model_mod.train(clone(loaded), windows, TrainConfig(epochs=1, batch_size=2))
    out = sampler.generate(loaded, windows, SamplerConfig(steps=2))
    metrics.evaluate_windows(sampler.predictions_to_sequences(out, wl.vocab_size),
                             [w.target for w in windows])
    return loaded


def kernel_cases(repeats: int) -> dict:
    """The two cases of benchmarks/bench_kernels.py, timed on the kernel the
    package uses and on its pure-Python source (median of ``repeats``)."""
    rng = np.random.default_rng(0)
    n_events = 2000
    uniforms = rng.random(16 * n_events)
    base = np.array([0.25, 0.25])
    excite = np.array([[0.3, 0.1], [0.1, 0.3]])

    def thinning(fn):
        out_dts, out_marks = np.empty(n_events), np.empty(n_events, dtype=np.int64)
        emitted, _ = fn(base, excite, 1.0, n_events, uniforms, out_dts, out_marks)
        if emitted != n_events:
            raise RuntimeError(f"thinning emitted {emitted} of {n_events} events")

    rng = np.random.default_rng(1)
    a_t, b_t = np.cumsum(rng.exponential(1.0, 200)), np.cumsum(rng.exponential(1.0, 200))
    a_m, b_m = rng.integers(0, 3, 200), rng.integers(0, 3, 200)

    def align(fn):
        if not np.isfinite(fn(a_t, a_m, b_t, b_m, 1.0)):
            raise RuntimeError("otd_align returned a non-finite cost")

    out = {}
    for name, run, kernel in (("case_thinning_2000_m2", thinning, kernels.hawkes_thinning),
                              ("case_otd_200x200", align, kernels.otd_align)):
        for suffix, fn in (("active_s", kernel), ("python_s", python_impl(kernel))):
            run(fn)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run(fn)
                times.append(time.perf_counter() - t0)
            out[f"kernels.{name}.{suffix}"] = float(np.median(times))
    return out
