"""Self-tests of the benchmark harness (not of flowtpp itself).

    python3 perfbench/selftest.py

Runs the real workloads at toy sizes in about a minute. The file name keeps
it out of the package's pytest collection.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flowtpp.nn  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests_of(proc) -> str:
    return next(l for l in proc.stdout.splitlines() if l.startswith("# digests"))


class TestContract(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(sorted(w["name"] for w in BENCH["workloads"]),
                         sorted(workloads.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in BENCH[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(max(m["bound"] for m in BENCH["end_to_end"]), setup["bound"])


class TestTracer(unittest.TestCase):
    def test_restores_every_attribute_even_on_error(self):
        tr = tracing.Tracer()
        before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tr._targets()]
        backward = flowtpp.nn.backward
        with self.assertRaises(RuntimeError):
            with tr.installed():
                self.assertIsNot(flowtpp.nn.backward, backward)
                raise RuntimeError("boom")
        for owner, attr, original in before:
            self.assertIs(vars(owner)[attr], original, f"{owner}.{attr}")

    def test_wrapper_returns_the_result_object(self):
        tr = tracing.Tracer()
        sentinel = object()
        wrapped = tr.wrap(lambda x: (sentinel, x), "probe")
        out = wrapped(3)
        self.assertIs(out[0], sentinel)
        self.assertEqual(tr.span_totals()["probe"][0], 1)

    def test_self_time_excludes_children(self):
        tr = tracing.Tracer()
        tr.spans = [["outer", 0.0, 10.0, -1, None], ["inner", 1.0, 4.0, 0, None],
                    ["inner", 5.0, 6.0, 0, None]]
        totals = tr.span_totals()
        self.assertEqual(totals["outer"], (1, 6.0))
        self.assertEqual(totals["inner"], (2, 4.0))

    def test_matmul_flops_and_tape_nodes(self):
        tr = tracing.Tracer()
        with tr.installed():
            a = flowtpp.nn.Tensor(np.ones((3, 4)), requires_grad=True)
            loss = (a @ np.ones((4, 5))).sum()
        self.assertEqual(tr.counts["matmul.flop"], 2 * 3 * 4 * 5)
        self.assertEqual(tracing.tape_nodes(loss), 4)  # a, constant, product, sum


class TestHelpers(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        value, pct = worker.tail(np.arange(100.0))
        self.assertEqual(value, 89.0)
        self.assertEqual(pct, 90.0)

    def test_best_of_keeps_each_items_fastest_repetition(self):
        rows = [(0, 0, 10, 2.0), (0, 1, 30, 3.0), (1, 0, 10, 1.0), (1, 1, 30, 6.0),
                (2, 1, 30, 4.0)]
        self.assertEqual(worker.best_of(rows), ({0: (10, 1.0), 1: (30, 3.0)}, 2))

    def test_loop_runs_min_reps_without_a_budget(self):
        self.assertEqual(list(workloads.loop(3, None)), [0, 1, 2])


class TestSmoke(unittest.TestCase):
    """Every workload at toy size, untraced and traced."""

    def test_every_metric_and_traced_equals_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = bench("--workload", name, "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--tiny")
                traced = bench("--workload", name, "--seed", "3", "--seconds", "1",
                               "--trace", "1", "--tiny")
                for proc, key in ((plain, "end_to_end"), (traced, "per_layer")):
                    res = result_of(proc)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    specs = BENCH[key]
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
                    for m in specs:
                        self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertTrue(np.isfinite(res["metrics"][m["name"]]["value"]))
                        line = re.search(rf"^  {re.escape(m['name'])} .*$",
                                         proc.stdout, re.M).group(0)
                        self.assertIn(f" {m['better']} ", line)
                        self.assertIn(" n=", line)
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result_of(plain)["metrics"][m["name"]]["value"], 0)
                self.assertEqual(digests_of(plain), digests_of(traced))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "hawkes-batch", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    unittest.main()
