"""flowtpp benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload hawkes-batch --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/``. Each workload runs in a worker process of its own with BLAS and
OpenMP pinned to one thread, so peak RSS belongs to that workload and the
run is the plain single-threaded baseline.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. Set-up time
is the median over several fresh processes. ``--trace 1`` prints the
per-layer metrics from a traced run of fixed passes, and writes its spans
to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Exit status
is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6      # set-up-only processes besides the measured one
DEADLINE_S = 170      # the whole run, all processes included
# one BLAS thread, and a fixed hash seed so that set and dict layouts, and
# with them the worker's speed, do not change from process to process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def spawn(args, seconds, extra, deadline) -> dict:
    """Run the worker to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), *extra, "--t0", repr(time.time())]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run(args, bench) -> dict:
    if not (ROOT / "src" / "flowtpp" / "__init__.py").is_file():
        raise BenchError(f"no flowtpp sources under {ROOT / 'src'}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, 0, ["--setup-only"], deadline)["setup_s"])
    # the set-up probes count toward --seconds, so a run lasts about that long
    res = spawn(args, max(args.seconds - (time.monotonic() - start), 1.0), [], deadline)
    setups.append(res["setup_s"])

    env = res["env"]
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# digests " + " ".join(f"{k}={v[:16]}" for k, v in sorted(res["digests"].items())))
    rows = {}
    if args.trace:
        specs = bench["per_layer"]
        for name, value in res["per_layer"].items():
            rows[name] = (value, res["passes"], "traced passes")
    else:
        specs = bench["end_to_end"]
        rows = {name: tuple(v) for name, v in res["end_to_end"].items()}
        rows["setup_s"] = (statistics.median(setups), len(setups), "median of processes")
        rows["peak_rss_mb"] = (res["peak_rss_mb"], 1, "ru_maxrss of the worker")
    missing = [s["name"] for s in specs if s["name"] not in rows]
    extra = sorted(set(rows) - {s["name"] for s in specs})
    if missing or extra:
        raise BenchError(f"metrics missing {missing}, unexpected {extra}")
    metrics = {}
    for spec in specs:
        value, n, note = rows[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<42} {value:>16.6g} {spec['unit']:<10} "
              f"{spec['better']:<6} n={n:<5} {note}")
    # reported but not gated: error_rate is 0 when the code is correct, and
    # hist_tv follows the seed's trained model (see README.md)
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'error_rate':<42} {failed / attempted:>16.6g} {'share':<10} "
          f"{'lower':<6} n={attempted:<5} {failed} of {attempted} operations failed")
    if "hist_tv" in res:
        print(f"  {'hist_tv':<42} {res['hist_tv']:>16.6g} {'tv':<10} "
              f"{'lower':<6} n=1     forecast vs truth inter-event times")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy input sizes, for the harness self-tests")
    args = ap.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = run(args, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
