"""Command-line pipeline: simulate -> train -> sample -> evaluate -> hist.

One --seed drives every stage through derived streams; rerunning any stage
with the same inputs and seed reproduces its artifacts byte for byte. Exit
codes: 0 success, 1 validation error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from .events import load_jsonl, make_windows, save_jsonl
from .metrics import (
    OtdConfig,
    distribution_summary,
    evaluate_windows,
    write_mark_frequency_csv,
    write_time_histogram_csv,
)
from .model import Model, ModelConfig, TrainConfig, train
from .sampler import SamplerConfig, generate, predictions_to_sequences
from .synthgen import HawkesSpec, simulate_hawkes, simulate_poisson

log = logging.getLogger(__name__)

REPORT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for numerical aborts; route usage errors to the validation path instead
    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _floats(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    return doc


def _pick(flag_value, config: dict, section: str, key: str, default):
    """Precedence: explicit flag > config file section > built-in default."""
    if flag_value is not None:
        return flag_value
    sect = config.get(section, {})
    if not isinstance(sect, dict):
        raise ValidationError(f"config section {section!r} must be an object")
    return sect.get(key, default)


def _write_report(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---- simulate ---------------------------------------------------------------


def _simulate_sequences(kind: str, args, config: dict, seed: int,
                        n: int, length: int, stream: int = 2):
    if kind == "poisson":
        rate = _pick(args.rate, config, "simulate", "rate", 1.0)
        vocab = int(_pick(args.vocab_size, config, "simulate", "vocab_size", 3))
        probs = _pick(args.mark_probs, config, "simulate", "mark_probs", None)
        probs = np.full(vocab, 1.0 / vocab) if probs is None else np.asarray(probs)
        seqs = [
            simulate_poisson(rate, probs, length, seed=[seed, stream, i])
            for i in range(n)
        ]
        return seqs, probs.shape[0]
    if kind == "hawkes":
        base = _pick(args.base_rates, config, "simulate", "base_rates", [0.25, 0.25])
        excite = _pick(args.excite, config, "simulate", "excite",
                       [0.3, 0.1, 0.1, 0.3])
        decay = _pick(args.decay, config, "simulate", "decay", 1.0)
        m = len(base)
        if len(excite) != m * m:
            raise ValidationError(
                f"excite needs {m * m} entries (row-major {m}x{m}), got {len(excite)}"
            )
        spec = HawkesSpec(np.asarray(base), np.asarray(excite).reshape(m, m), decay)
        seqs = [
            simulate_hawkes(spec, length, seed=[seed, stream, i]) for i in range(n)
        ]
        return seqs, m
    raise ValidationError(f"unknown process kind {kind!r}")


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args.seed, config, "simulate", "seed", config.get("seed", 0)))
    n = int(_pick(args.num_seqs, config, "simulate", "num_seqs", 100))
    length = int(_pick(args.length, config, "simulate", "length", 40))
    if n < 1 or length < 1:
        raise ValidationError("num-seqs and length must be positive")
    kind = _pick(args.kind, config, "simulate", "kind", "poisson")
    seqs, vocab = _simulate_sequences(kind, args, config, seed, n, length)
    save_jsonl(args.out, seqs, vocab, seed=seed)
    print(f"wrote {n} {kind} sequences (M={vocab}, length={length}) to {args.out}")
    return 0


# ---- train ------------------------------------------------------------------


def _model_config_from(config: dict, vocab: int, horizon) -> ModelConfig:
    section = config.get("model", {})
    if not isinstance(section, dict):
        raise ValidationError("config section 'model' must be an object")
    return ModelConfig.from_dict({**section, "vocab_size": vocab, "horizon": horizon})


def _write_trace(path, trace, seed: int):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# version=1 seed={seed}\n")
        fh.write("epoch,loss_total,loss_time,loss_mark\n")
        for row in trace:
            fh.write(
                f"{row['epoch']},{row['loss_total']!r},"
                f"{row['loss_time']!r},{row['loss_mark']!r}\n"
            )


def cmd_train(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args.seed, config, "train", "seed", config.get("seed", 0)))
    sequences = load_jsonl(args.data)
    if not sequences:
        raise ValidationError(f"no usable sequences in {args.data}")
    model_cfg = _model_config_from(
        config, sequences[0].vocab_size,
        _pick(args.horizon, config, "model", "horizon", 20))
    horizon = model_cfg.horizon
    windows = make_windows(sequences, horizon)
    if not windows:
        raise ValidationError(
            f"no sequence in {args.data} is longer than horizon {horizon}"
        )
    train_cfg = TrainConfig(
        epochs=int(_pick(args.epochs, config, "train", "epochs", 100)),
        batch_size=int(_pick(args.batch_size, config, "train", "batch_size", 32)),
        lr=float(_pick(args.lr, config, "train", "lr", 1e-3)),
        beta1=float(_pick(None, config, "train", "beta1", 0.9)),
        beta2=float(_pick(None, config, "train", "beta2", 0.999)),
        eps_opt=float(_pick(None, config, "train", "eps_opt", 1e-8)),
        seed=seed,
    )
    model = Model(model_cfg, seed=seed)
    trace = train(model, windows, train_cfg)
    model.save_checkpoint(args.out,
                          {"train": train_cfg.to_dict(), "seed": seed})
    trace_path = args.trace or f"{args.out}.trace.csv"
    _write_trace(trace_path, trace, seed)
    print(
        f"trained {train_cfg.epochs} epochs on {len(windows)} windows; "
        f"checkpoint {args.out}, trace {trace_path}"
    )
    return 0


# ---- sample -----------------------------------------------------------------


# noise-policy keys a sampler section may repeat; the checkpoint decides them
_NOISE_POLICY_KEYS = ("rate_mode", "manual_rate", "pi0_mode")


def _sampler_config_from(args, config: dict, seed: int,
                         model_cfg: ModelConfig) -> SamplerConfig:
    for key in _NOISE_POLICY_KEYS:
        value = _pick(None, config, "sampler", key, None)
        if value is not None and value != getattr(model_cfg, key):
            raise ValidationError(
                f"config sampler.{key}={value!r} disagrees with the checkpoint's "
                f"model.{key}={getattr(model_cfg, key)!r}; sampling uses the "
                f"noise policy the model was trained with"
            )
    return SamplerConfig(
        steps=int(_pick(args.steps, config, "sampler", "steps", 8)),
        eps_time=float(_pick(None, config, "sampler", "eps_time", 1e-6)),
        eps_prob=float(_pick(None, config, "sampler", "eps_prob", 1e-5)),
        chunk_size=int(_pick(None, config, "sampler", "chunk_size", 256)),
        seed=seed,
    )


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args.seed, config, "sampler", "seed", config.get("seed", 0)))
    model = Model.from_checkpoint(args.checkpoint)
    horizon = int(args.horizon) if args.horizon is not None else model.config.horizon
    sequences = load_jsonl(args.data, vocab_size=model.config.vocab_size)
    windows = make_windows(sequences, horizon)
    if not windows:
        raise ValidationError(
            f"no sequence in {args.data} is longer than horizon {horizon}"
        )
    scfg = _sampler_config_from(args, config, seed, model.config)
    samples = generate(model, windows, scfg)
    preds = predictions_to_sequences(samples, model.config.vocab_size)
    save_jsonl(args.out, preds, model.config.vocab_size, seed=seed)
    if args.truth_out:
        save_jsonl(args.truth_out, [w.target for w in windows],
                   model.config.vocab_size, seed=seed)
    print(f"sampled {len(preds)} windows (L={horizon}, S={scfg.steps}) to {args.out}")
    return 0


# ---- evaluate -----------------------------------------------------------------


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args.seed, config, "evaluate", "seed", config.get("seed", 0)))
    delete_cost = float(
        _pick(args.delete_cost, config, "otd", "delete_cost", 1.0)
    )
    mode = _pick(args.rmse_y_mode, config, "evaluate", "rmse_y_mode", "counts")
    preds = load_jsonl(args.pred)
    truths = load_jsonl(args.truth)
    report = evaluate_windows(preds, truths, OtdConfig(delete_cost), mode)
    doc = {
        "version": REPORT_VERSION,
        "seed": seed,
        "config": {"delete_cost": delete_cost, "rmse_y_mode": mode},
        **report.to_dict(),
    }
    _write_report(args.out, doc)
    summary = "  ".join(
        f"{name}={agg['mean']:.4f}±{agg['sd']:.4f}"
        for name, agg in sorted(report.aggregate.items())
    )
    print(f"evaluated {report.window_count} windows: {summary}")
    print(f"report written to {args.out}")
    return 0


# ---- hist ---------------------------------------------------------------------


def cmd_hist(args) -> int:
    sequences = load_jsonl(args.data)
    if not sequences:
        raise ValidationError(f"no usable sequences in {args.data}")
    summary = distribution_summary(sequences, bins=args.bins)
    times_path = args.out_times or f"{args.data}.times.csv"
    marks_path = args.out_marks or f"{args.data}.marks.csv"
    write_time_histogram_csv(times_path, summary, seed=args.seed)
    write_mark_frequency_csv(marks_path, summary, seed=args.seed)
    print(f"histograms written to {times_path} and {marks_path}")
    return 0


# ---- pipeline -------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    """simulate once, then train+sample+evaluate per seed; aggregate report."""
    import os

    config = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    k = int(args.seeds)
    if k < 1:
        raise ValidationError(f"--seeds must be >= 1, got {k}")
    os.makedirs(args.workdir, exist_ok=True)
    n = int(_pick(args.num_seqs, config, "simulate", "num_seqs", 200))
    n_eval = int(_pick(args.eval_seqs, config, "simulate", "eval_seqs", 50))
    length = int(_pick(args.length, config, "simulate", "length", 40))
    kind = _pick(args.kind, config, "simulate", "kind", "poisson")

    train_path = os.path.join(args.workdir, "train.jsonl")
    eval_path = os.path.join(args.workdir, "eval.jsonl")
    train_seqs, vocab = _simulate_sequences(kind, args, config, seed, n, length,
                                            stream=2)
    eval_seqs, _ = _simulate_sequences(kind, args, config, seed, n_eval, length,
                                       stream=5)
    save_jsonl(train_path, train_seqs, vocab, seed=seed)
    save_jsonl(eval_path, eval_seqs, vocab, seed=seed)
    print(f"pipeline data: {n} train / {n_eval} eval {kind} sequences in {args.workdir}")

    per_seed = []
    for i in range(k):
        run_seed = seed + i
        ckpt = os.path.join(args.workdir, f"model_{i}.json")
        pred = os.path.join(args.workdir, f"pred_{i}.jsonl")
        truth = os.path.join(args.workdir, f"truth_{i}.jsonl")
        rep = os.path.join(args.workdir, f"report_{i}.json")

        run = argparse.Namespace(**vars(args))
        run.seed = run_seed
        run.data = train_path
        run.out = ckpt
        run.trace = None
        cmd_train(run)

        run = argparse.Namespace(**vars(args))
        run.seed = run_seed
        run.checkpoint = ckpt
        run.data = eval_path
        run.out = pred
        run.truth_out = truth
        cmd_sample(run)

        run = argparse.Namespace(**vars(args))
        run.seed = run_seed
        run.pred = pred
        run.truth = truth
        run.out = rep
        cmd_evaluate(run)

        with open(rep, encoding="utf-8") as fh:
            per_seed.append(json.load(fh)["aggregate"])

    aggregate = {}
    for name in ("otd", "rmse_x", "rmse_y", "smape"):
        means = [p[name]["mean"] for p in per_seed]
        aggregate[name] = {
            "mean": float(np.mean(means)),
            "sd": float(np.std(means)),
        }
    doc = {
        "version": REPORT_VERSION,
        "seed": seed,
        "seeds": k,
        "per_seed": per_seed,
        "aggregate": aggregate,
    }
    out = os.path.join(args.workdir, "report.json")
    _write_report(out, doc)
    summary = "  ".join(
        f"{name}={agg['mean']:.4f}±{agg['sd']:.4f}"
        for name, agg in sorted(aggregate.items())
    )
    print(f"pipeline aggregate over {k} seed(s): {summary}")
    print(f"aggregate report written to {out}")
    return 0


# ---- wiring ------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")


def _add_simulate_params(sub):
    sub.add_argument("--kind", choices=["poisson", "hawkes"])
    sub.add_argument("--num-seqs", type=int, help="training sequences to draw")
    sub.add_argument("--length", type=int, help="events per sequence")
    sub.add_argument("--rate", type=float, help="poisson: event rate")
    sub.add_argument("--vocab-size", type=int, help="poisson: number of mark types")
    sub.add_argument("--mark-probs", type=_floats, help="poisson: mark simplex")
    sub.add_argument("--base-rates", type=_floats, help="hawkes: per-type base rates")
    sub.add_argument("--excite", type=_floats,
                     help="hawkes: row-major excitation matrix")
    sub.add_argument("--decay", type=float, help="hawkes: exponential kernel decay")


def _add_train_params(sub):
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--horizon", type=int, help="forecast length L")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowtpp",
                     description="flow-matching forecaster for marked event streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset",
                       parents=[], conflict_handler="resolve")
    _add_simulate_params(p)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a model on a JSONL dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss trace CSV (default <out>.trace.csv)")
    _add_train_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate forecasts for held-out windows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="truth JSONL to take contexts from")
    p.add_argument("--out", required=True, help="predictions JSONL")
    p.add_argument("--truth-out", help="also write the aligned truth targets")
    p.add_argument("--steps", type=int, help="flow steps S")
    p.add_argument("--horizon", type=int, help="forecast length L")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--delete-cost", type=float)
    p.add_argument("--rmse-y-mode", choices=["counts", "position"])
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hist", help="histogram CSVs for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out-times")
    p.add_argument("--out-marks")
    p.add_argument("--bins", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("pipeline",
                       help="simulate, then train+sample+evaluate per seed")
    p.add_argument("--workdir", required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of repeat runs")
    p.add_argument("--eval-seqs", type=int, help="held-out sequences")
    _add_simulate_params(p)
    _add_train_params(p)
    p.add_argument("--steps", type=int, help="flow steps S")
    p.add_argument("--delete-cost", type=float)
    p.add_argument("--rmse-y-mode", choices=["counts", "position"])
    p.add_argument("--trace")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
