"""Command-line pipeline: simulate -> train -> sample -> evaluate -> hist.

One --seed drives every stage through derived streams; rerunning any stage
with the same inputs and seed reproduces its artifacts byte for byte. Exit
codes: 0 success, 1 validation error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (Config, NumericalError, ValidationError, check_memory,
                     check_section, check_seed, parse_json, read_text)
from .events import load_jsonl, make_windows, save_jsonl
from .metrics import (
    HIST_BINS,
    OtdConfig,
    aggregate,
    distribution_summary,
    evaluate_windows,
    write_csv,
    write_mark_frequency_csv,
    write_time_histogram_csv,
)
from .model import Model, ModelConfig, TrainConfig, train
from .sampler import SamplerConfig, generate, predictions_to_sequences
from .synthgen import (HawkesSpec, poisson_mark_probs, simulate_hawkes,
                       simulate_poisson)

log = logging.getLogger(__name__)

REPORT_VERSION = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for numerical aborts; route usage errors to the validation path instead
    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _floats(text: str) -> list:
    # argparse turns the ValueError of a bad item into a usage error
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class SimulateConfig(Config, section="simulate"):
    """Synthetic data for `simulate` and `pipeline`. rate, vocab_size and
    mark_probs (empty: uniform) drive a Poisson process; base_rates, the
    row-major excite matrix and decay a Hawkes process."""

    kind: str = "poisson"
    num_seqs: int = 100
    eval_seqs: int = 50
    length: int = 40
    seed: int = 0
    rate: float = 1.0
    vocab_size: int = 3
    mark_probs: tuple[float, ...] = ()
    base_rates: tuple[float, ...] = (0.25, 0.25)
    excite: tuple[float, ...] = (0.3, 0.1, 0.1, 0.3)
    decay: float = 1.0

    @property
    def types(self) -> int:
        """M, the number of mark types: vocab_size for Poisson data, one per
        base rate for Hawkes data."""
        return self.vocab_size if self.kind == "poisson" else len(self.base_rates)

    def validate(self):
        for key in ("num_seqs", "eval_seqs", "length", "vocab_size"):
            self.require(getattr(self, key) >= 1, key, ">= 1")
        self.require(self.kind in ("poisson", "hawkes"), "kind",
                     "'poisson' or 'hawkes'")
        # the other kind's keys would be silently ignored
        for key in (("base_rates", "excite", "decay") if self.kind == "poisson"
                    else ("rate", "vocab_size", "mark_probs")):
            default = getattr(SimulateConfig, key)
            self.require(getattr(self, key) == default, key,
                         f"its default {default!r} when kind is {self.kind!r}")
        # gaps and marks, plus the Hawkes thinning's 4·length uniforms, up front
        check_memory(8 * self.length * (2 if self.kind == "poisson" else 6),
                     "simulated sequence", f"simulate.length={self.length}")
        m = self.types
        if self.mark_probs and len(self.mark_probs) != m:
            raise ValidationError(
                f"simulate.mark_probs has {len(self.mark_probs)} entries, "
                f"simulate.vocab_size is {m}")
        if self.kind == "hawkes":
            self.require(len(self.excite) == m * m, "excite",
                         f"{m * m} numbers (row-major {m}x{m} for {m} base_rates)")
        # synthgen's checks of the process parameters, whose messages start
        # with the key
        try:
            self.generator()
        except ValidationError as exc:
            raise ValidationError(f"simulate.{exc}") from None

    def generator(self):
        """seed -> one simulated sequence of this process."""
        m = self.types
        if self.kind == "poisson":
            probs = poisson_mark_probs(self.rate, self.mark_probs or np.full(m, 1.0 / m))
            return lambda seed: simulate_poisson(self.rate, probs, self.length, seed)
        spec = HawkesSpec(np.asarray(self.base_rates),
                          np.asarray(self.excite).reshape(m, m), self.decay)
        return lambda seed: simulate_hawkes(spec, self.length, seed)


# the Config class of each config-file section
CONFIGS = (SimulateConfig, ModelConfig, TrainConfig, SamplerConfig, OtdConfig)
# keys and value types of each section; a config file may hold only these and
# a top-level "seed", an integer >= 0
_SECTIONS = {cls.section: cls.field_types for cls in CONFIGS}

_SIMULATE_FLAGS = ("kind", "num_seqs", "length", "rate", "vocab_size",
                   "mark_probs", "base_rates", "excite", "decay")
_TRAIN_FLAGS = {"train": ("epochs", "batch_size", "lr"), "model": ("horizon",)}
_EVALUATE_FLAGS = {"otd": ("delete_cost",)}

# the config keys each command takes as flags, {command: {section: keys}};
# key becomes --key with dashes, typed by its Config field, and sets that
# key. --seed, on every command, sets the seed of each section that has one
_FLAGS = {
    "simulate": {"simulate": _SIMULATE_FLAGS},
    "train": _TRAIN_FLAGS,
    "sample": {"sampler": ("steps",)},
    "evaluate": _EVALUATE_FLAGS,
    "hist": {},
    "pipeline": {"simulate": ("eval_seqs", *_SIMULATE_FLAGS), **_TRAIN_FLAGS,
                 "sampler": ("steps",), **_EVALUATE_FLAGS},
}


def _load_config(path) -> dict:
    """The config file at path, or an empty one, as {"seed": int (default 0),
    section: checked section} over every section. Unknown sections or keys
    and wrongly typed values are errors. main reads it once per run."""
    doc = {}
    if path is not None:
        doc = parse_json(read_text(path), f"config {path}")
        if not isinstance(doc, dict):
            raise ValidationError(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - {"seed", *_SECTIONS})
    if unknown:
        raise ValidationError(f"unknown config sections: {unknown}")
    config = {"seed": check_seed("seed", doc.get("seed", 0))}
    for name, types in _SECTIONS.items():
        config[name] = check_section(name, doc.get(name, {}), types)
    return config


def _section(config: dict, name: str, args) -> dict:
    """Precedence: explicit flag (_FLAGS of args.command, and --seed) >
    config file section > the top-level seed, for a section with a seed."""
    seed = {"seed": config["seed"]} if "seed" in _SECTIONS[name] else {}
    flags = (*seed, *_FLAGS[args.command].get(name, ()))
    return {**seed, **config[name], **{key: getattr(args, key) for key in flags
                                       if getattr(args, key) is not None}}


def _seed(args, config: dict) -> int:
    """The run's seed: --seed, else the config file's top-level seed."""
    return config["seed"] if args.seed is None else check_seed("seed", args.seed)


def _windows(path, horizon: int, vocab_size=None) -> list:
    """The forecast windows of the dataset at path; none is an error."""
    windows = make_windows(load_jsonl(path, vocab_size), horizon)
    if not windows:
        raise ValidationError(f"no sequence in {path} is longer than horizon {horizon}")
    return windows


def _summary(columns: dict) -> str:
    return "  ".join(f"{name}={agg['mean']:.4f}±{agg['sd']:.4f}"
                     for name, agg in sorted(columns.items()))


def _write_report(path, doc: dict):
    """The report as JSON; a non-finite value, which JSON cannot hold, is a
    numerical abort that writes no file."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in report {path}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---- simulate ---------------------------------------------------------------


def _simulate_sequences(sim: SimulateConfig, seed: int, n: int, stream: int = 2):
    draw = sim.generator()
    return [draw([seed, stream, i]) for i in range(n)]


def _check_datasets(sim: SimulateConfig, *keys):
    """Every sequence of a dataset is held at once: the gaps and marks of the
    sim.key sequences, for each key (num_seqs, eval_seqs), must fit in memory."""
    for key in keys:
        n = getattr(sim, key)
        check_memory(16 * n * sim.length, "simulated dataset",
                     f"simulate.{key}={n}, simulate.length={sim.length}")


def cmd_simulate(args, config: dict) -> int:
    sim = SimulateConfig.from_dict(_section(config, "simulate", args))
    _check_datasets(sim, "num_seqs")
    seqs = _simulate_sequences(sim, sim.seed, sim.num_seqs)
    save_jsonl(args.out, seqs, sim.types, seed=sim.seed)
    print(f"wrote {sim.num_seqs} {sim.kind} sequences (M={sim.types}, "
          f"length={sim.length}) to {args.out}")
    return 0


# ---- train ------------------------------------------------------------------


def cmd_train(args, config: dict) -> int:
    train_cfg = TrainConfig.from_dict(_section(config, "train", args))
    settings = _section(config, "model", args)
    # the data sets vocab_size; check every other key before reading it
    ModelConfig.from_dict({"vocab_size": 1, **settings})
    windows = _windows(args.data, settings.get("horizon", ModelConfig.horizon),
                       settings.get("vocab_size"))
    model_cfg = ModelConfig.from_dict(
        {"vocab_size": windows[0].vocab_size, **settings})
    model = Model(model_cfg, seed=train_cfg.seed)
    trace = train(model, windows, train_cfg)
    model.save_checkpoint(args.out,
                          {"train": train_cfg.to_dict(), "seed": train_cfg.seed})
    trace_path = args.trace or f"{args.out}.trace.csv"
    columns = ("epoch", "loss_total", "loss_time", "loss_mark")
    write_csv(trace_path, train_cfg.seed, columns,
              [[row[key] for key in columns] for row in trace])
    print(
        f"trained {train_cfg.epochs} epochs on {len(windows)} windows; "
        f"checkpoint {args.out}, trace {trace_path}"
    )
    return 0


# ---- sample -----------------------------------------------------------------


def cmd_sample(args, config: dict) -> int:
    if args.horizon is not None and args.horizon < 1:
        raise ValidationError(f"--horizon must be >= 1, got {args.horizon}")
    scfg = SamplerConfig.from_dict(_section(config, "sampler", args))
    model = Model.from_checkpoint(args.checkpoint)
    horizon = args.horizon if args.horizon is not None else model.config.horizon
    windows = _windows(args.data, horizon, model.config.vocab_size)
    samples = generate(model, windows, scfg)
    preds = predictions_to_sequences(samples, model.config.vocab_size)
    save_jsonl(args.out, preds, model.config.vocab_size, seed=scfg.seed)
    if args.truth_out:
        save_jsonl(args.truth_out, [w.target for w in windows],
                   model.config.vocab_size, seed=scfg.seed)
    print(f"sampled {len(preds)} windows (L={horizon}, S={scfg.steps}) to {args.out}")
    return 0


# ---- evaluate -----------------------------------------------------------------


def cmd_evaluate(args, config: dict) -> int:
    seed = _seed(args, config)
    otd_cfg = OtdConfig.from_dict(_section(config, "otd", args))
    # windows pair by position, so a skipped line would misalign the rest
    report = evaluate_windows(load_jsonl(args.pred, skip_invalid=False),
                              load_jsonl(args.truth, skip_invalid=False), otd_cfg)
    doc = {
        "version": REPORT_VERSION,
        "seed": seed,
        "config": otd_cfg.to_dict(),
        **report.to_dict(),
    }
    _write_report(args.out, doc)
    print(f"evaluated {report.window_count} windows: {_summary(report.aggregate)}")
    print(f"report written to {args.out}")
    return 0


# ---- hist ---------------------------------------------------------------------


def cmd_hist(args, config: dict) -> int:
    seed = _seed(args, config)
    sequences = load_jsonl(args.data)
    if not sequences:
        raise ValidationError(f"no usable sequences in {args.data}")
    # a row per mark type: counts and frequencies, as arrays and CSV lists
    vocab = sequences[0].vocab_size
    check_memory(64 * vocab, "mark table", f"{args.data} declares vocab_size={vocab}")
    summary = distribution_summary(sequences, bins=args.bins)
    times_path = args.out_times or f"{args.data}.times.csv"
    marks_path = args.out_marks or f"{args.data}.marks.csv"
    write_time_histogram_csv(times_path, summary, seed)
    write_mark_frequency_csv(marks_path, summary, seed)
    print(f"histograms written to {times_path} and {marks_path}")
    return 0


# ---- pipeline -------------------------------------------------------------------


def cmd_pipeline(args, config: dict) -> int:
    """simulate once, then train+sample+evaluate per seed; aggregate report.
    Every stage's seed derives from --seed or the top-level seed."""
    own_seeds = [f"{name}.seed" for name in _SECTIONS if "seed" in config[name]]
    if own_seeds:
        raise ValidationError(
            f"pipeline derives every stage's seed from --seed or the top-level "
            f"seed; remove {', '.join(own_seeds)}")
    seed = _seed(args, config)
    k = int(args.seeds)
    if k < 1:
        raise ValidationError(f"--seeds must be >= 1, got {k}")
    sim = SimulateConfig.from_dict(
        {"num_seqs": 200, **_section(config, "simulate", args)})
    _check_datasets(sim, "num_seqs", "eval_seqs")
    # the stages build the other sections again; building them here first
    # rejects a bad value before any file is written
    model_cfg = ModelConfig.from_dict(
        {"vocab_size": sim.types, **_section(config, "model", args)})
    for cls in (TrainConfig, SamplerConfig, OtdConfig):
        cls.from_dict(_section(config, cls.section, args))
    if model_cfg.horizon >= sim.length:
        raise ValidationError(
            f"model.horizon must be < simulate.length, got {model_cfg.horizon} "
            f"and {sim.length}: no sequence would be longer than the horizon")
    if model_cfg.vocab_size != sim.types:
        raise ValidationError(
            f"model.vocab_size must be {sim.types}, the simulated data's number "
            f"of mark types, got {model_cfg.vocab_size}")
    os.makedirs(args.workdir, exist_ok=True)

    train_path = os.path.join(args.workdir, "train.jsonl")
    eval_path = os.path.join(args.workdir, "eval.jsonl")
    save_jsonl(train_path, _simulate_sequences(sim, seed, sim.num_seqs, stream=2),
               sim.types, seed=seed)
    save_jsonl(eval_path, _simulate_sequences(sim, seed, sim.eval_seqs, stream=5),
               sim.types, seed=seed)
    print(f"pipeline data: {sim.num_seqs} train / {sim.eval_seqs} eval {sim.kind} "
          f"sequences in {args.workdir}")

    per_seed = []
    for i in range(k):
        ckpt = os.path.join(args.workdir, f"model_{i}.json")
        pred = os.path.join(args.workdir, f"pred_{i}.jsonl")
        truth = os.path.join(args.workdir, f"truth_{i}.jsonl")
        rep = os.path.join(args.workdir, f"report_{i}.json")
        stages = ((cmd_train, {"data": train_path, "out": ckpt, "trace": None}),
                  (cmd_sample, {"checkpoint": ckpt, "data": eval_path, "out": pred,
                                "truth_out": truth}),
                  (cmd_evaluate, {"pred": pred, "truth": truth, "out": rep}))
        for command, paths in stages:
            command(argparse.Namespace(**{**vars(args), "seed": seed + i, **paths}),
                    config)
        per_seed.append(parse_json(read_text(rep), rep)["aggregate"])

    overall = aggregate({name: [p[name]["mean"] for p in per_seed]
                         for name in per_seed[0]})
    doc = {
        "version": REPORT_VERSION,
        "seed": seed,
        "seeds": k,
        "per_seed": per_seed,
        "aggregate": overall,
    }
    out = os.path.join(args.workdir, "report.json")
    _write_report(out, doc)
    print(f"pipeline aggregate over {k} seed(s): {_summary(overall)}")
    print(f"aggregate report written to {out}")
    return 0


# ---- wiring ------------------------------------------------------------------------


def _add_common(sub, command: str):
    """--config, --seed and the config flags of command (_FLAGS)."""
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    for section, keys in _FLAGS[command].items():
        for key in keys:
            kind = _SECTIONS[section][key]
            sub.add_argument(f"--{key.replace('_', '-')}", help=f"{section}.{key}",
                             type=kind if kind in (int, float, str) else _floats)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowtpp",
                     description="flow-matching forecaster for marked event streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    _add_common(p, "simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a model on a JSONL dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss trace CSV (default <out>.trace.csv)")
    _add_common(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate forecasts for held-out windows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="truth JSONL to take contexts from")
    p.add_argument("--out", required=True, help="predictions JSONL")
    p.add_argument("--truth-out", help="also write the aligned truth targets")
    p.add_argument("--horizon", type=int,
                   help="forecast length L (default: the checkpoint's model.horizon)")
    _add_common(p, "sample")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p, "evaluate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hist", help="histogram CSVs for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out-times")
    p.add_argument("--out-marks")
    p.add_argument("--bins", type=int, default=HIST_BINS)
    _add_common(p, "hist")
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("pipeline",
                       help="simulate, then train+sample+evaluate per seed")
    p.add_argument("--workdir", required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of repeat runs")
    _add_common(p, "pipeline")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite results are checked where they matter; numpy's warnings are noise
        with np.errstate(all="ignore"):
            return args.func(args, _load_config(args.config))
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
