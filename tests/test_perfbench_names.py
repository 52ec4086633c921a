"""The benchmark under perfbench/ wraps and imports package names by lookup,
and runs the CLI with its own argv; a rename in src/ or a dropped flag would
break it without failing any other test. The list of wrapped names is read
from the tracer itself and the argv from the workloads, so both stay current
when the benchmark changes."""

import importlib.util
import os
import sys

import numpy as np
import pytest

from flowtpp import accel, cli, nn, sampler

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    targets = load("tracer").Tracer()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert not missing, f"perfbench/tracer.py wraps undefined names: {missing}"


def test_imported_names_exist():
    assert accel.NUMBA_ENABLED is False
    assert accel.python_impl(len) is len
    assert set(sampler.INVARIANT_COUNTS) >= {"checks", "violations"}
    # perfbench/selftest.py sums a Tensor, and no tracer target covers it
    assert "sum" in vars(nn.Tensor)


@pytest.mark.parametrize("name", ["hawkes-batch", "long-horizon"])
def test_pipeline_argv_parses_to_its_values(name):
    workloads = load("workloads")
    wl = workloads.WORKLOADS[name]
    argv = workloads.Pass(wl, 3, None, "wd", None, None).pipeline_argv("wd")
    args = cli.build_parser().parse_args(argv)
    num, num_eval, length, batch = wl.pipeline
    assert (args.command, args.workdir, args.seed) == ("pipeline", "wd", 3)
    assert (args.batch_size, args.horizon, args.steps, args.epochs) == (
        batch, wl.horizon, workloads.STEPS, 1)
    assert (args.kind, tuple(args.base_rates), tuple(args.excite), args.decay) == (
        "hawkes", wl.base_rates, wl.excite, wl.decay)
    assert (args.num_seqs, args.eval_seqs, args.length) == (num, num_eval, length)


@pytest.mark.parametrize("name", ["hawkes-batch", "long-horizon"])
def test_tiny_pass_runs_untraced_and_traced(name, tmp_path, monkeypatch):
    # the benchmark's own code path, at toy size: set-up, then one fixed
    # pass plain and one under the tracer's wrappers
    monkeypatch.syspath_prepend(PERFBENCH)  # worker imports its siblings by name
    worker = load("worker")
    workloads, tracing = worker.workloads, worker.tracing
    wl = workloads.WORKLOADS[name].tiny()
    initial = workloads.setup(wl, str(tmp_path))
    ledger = workloads.Ledger()
    workloads.Pass(wl, 1, initial, str(tmp_path), ledger, tracing.NullTracer()).run()
    tr = tracing.Tracer()
    before = worker.invariant_counts()
    with tr.installed():
        workloads.Pass(wl, 1, initial, str(tmp_path), ledger, tr).run()
    after = worker.invariant_counts()
    assert ledger.attempted > 0 and ledger.failed == 0
    layers = worker.per_layer(tr, (after[0] - before[0], after[1] - before[1]))
    bad = {key: value for key, value in layers.items() if not np.isfinite(value)}
    assert not bad, f"non-finite per-layer values: {bad}"
    # sampling's network time stays inside the Model.predict span
    assert layers["model.predict.calls"] > 0 and layers["model.predict.rows"] > 0
    assert layers["sampler.mark_probs.calls"] > 0
