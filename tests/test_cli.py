import base64
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowtpp
from flowtpp import Model, ModelConfig, load_jsonl
from flowtpp import cli, nn, sampler
from flowtpp.cli import CONFIGS, main
from flowtpp.errors import NumericalError, ValidationError

SMALL_MODEL = {
    "d": 8,
    "t_embed_dim": 4,
    "vf_hidden": [8],
    "head_hidden": [8],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    path = workdir / "config.json"
    path.write_text(json.dumps({"model": SMALL_MODEL}))
    return str(path)


@pytest.fixture(scope="module")
def data_path(workdir):
    path = workdir / "data.jsonl"
    rc = main(["simulate", "--kind", "poisson", "--num-seqs", "8",
               "--length", "12", "--rate", "1.0", "--vocab-size", "3",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(workdir, config_path, data_path):
    path = workdir / "model.json"
    rc = main(["train", "--data", data_path, "--out", str(path),
               "--config", config_path, "--epochs", "2", "--batch-size", "4",
               "--horizon", "4", "--seed", "5"])
    assert rc == 0
    return str(path)


class TestSimulate:
    def test_line_count_and_header(self, tmp_path):
        out = tmp_path / "p.jsonl"
        rc = main(["simulate", "--num-seqs", "10", "--length", "6",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        head = json.loads(lines[0])
        assert head["meta"]["seed"] == 1 and head["meta"]["version"] == 1

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["simulate", "--num-seqs", "5", "--length", "8", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hawkes_kind(self, tmp_path):
        out = tmp_path / "h.jsonl"
        rc = main(["simulate", "--kind", "hawkes", "--num-seqs", "3",
                   "--length", "10", "--out", str(out)])
        assert rc == 0
        seqs = load_jsonl(out)
        assert len(seqs) == 3 and seqs[0].vocab_size == 2

    def test_unstable_hawkes_fails(self, tmp_path, capsys):
        rc = main(["simulate", "--kind", "hawkes", "--base-rates", "1.0",
                   "--excite", "2.0", "--decay", "1.0",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_mark_probs_fails(self, tmp_path):
        rc = main(["simulate", "--vocab-size", "2", "--mark-probs", "0.5,0.6",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1

    # lengths whose buffers fail the memory check before anything is
    # allocated; 10**19 is also past numpy's largest dimension
    @pytest.mark.parametrize("kind", ["poisson", "hawkes"])
    @pytest.mark.parametrize("length", [10**12, 10**19])
    def test_length_past_memory_exits_1(self, tmp_path, kind, length):
        out = tmp_path / "x.jsonl"
        proc = run_cli(["simulate", "--kind", kind, "--length", str(length),
                        "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert (f"simulated sequence too large to allocate: simulate.length={length}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    # every sequence is held at once: numbers of sequences whose gaps and
    # marks fail the memory check before any is simulated
    @pytest.mark.parametrize("num_seqs", [10**12, 10**19])
    def test_dataset_past_memory_exits_1(self, tmp_path, num_seqs):
        out = tmp_path / "x.jsonl"
        proc = run_cli(["simulate", "--num-seqs", str(num_seqs), "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert ("simulated dataset too large to allocate: "
                f"simulate.num_seqs={num_seqs}, simulate.length=40") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    # a key of the other kind would be ignored: it must keep its default
    @pytest.mark.parametrize("kind,flag,value,default", [
        ("hawkes", "rate", "5", "1.0"), ("hawkes", "vocab_size", "7", "3"),
        ("hawkes", "mark_probs", "0.5,0.5", "()"),
        ("poisson", "base_rates", "0.5,0.5", "(0.25, 0.25)"),
        ("poisson", "excite", "0.1,0.1,0.1,0.1", "(0.3, 0.1, 0.1, 0.3)"),
        ("poisson", "decay", "2", "1.0")])
    def test_other_kind_key_exits_1(self, tmp_path, capsys, kind, flag, value, default):
        out = tmp_path / "x.jsonl"
        argv = ["simulate", "--kind", kind, "--num-seqs", "2", "--length", "5",
                "--out", str(out), f"--{flag.replace('_', '-')}"]
        assert main([*argv, value]) == 1
        assert (f"simulate.{flag} must be its default {default} when kind is "
                f"{kind!r}") in capsys.readouterr().err
        assert not out.exists()
        if flag != "mark_probs":  # an empty flag value is no list
            assert main([*argv, default.strip("()")]) == 0


class TestTrain:
    def test_zero_epochs_keeps_init(self, tmp_path, config_path, data_path):
        out = tmp_path / "init.json"
        rc = main(["train", "--data", data_path, "--out", str(out),
                   "--config", config_path, "--epochs", "0",
                   "--horizon", "4", "--seed", "5"])
        assert rc == 0
        loaded = Model.from_checkpoint(out)
        hidden = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in SMALL_MODEL.items()}
        fresh = Model(ModelConfig(vocab_size=3, horizon=4, **hidden), seed=5)
        assert loaded.store.state_dict() == fresh.store.state_dict()

    def test_trace_file_format(self, workdir, checkpoint):
        lines = (workdir / "model.json.trace.csv").read_text().splitlines()
        assert lines[0] == "# version=1 seed=5"
        assert lines[1] == "epoch,loss_total,loss_time,loss_mark"
        assert len(lines) == 2 + 2
        first = lines[2].split(",")
        assert first[0] == "0" and all(float(v) > 0 for v in first[1:])

    def test_checkpoint_document(self, checkpoint):
        doc = json.loads(open(checkpoint).read())
        assert doc["version"] == nn.CHECKPOINT_VERSION
        assert doc["config"]["seed"] == 5
        assert doc["config"]["model"]["vocab_size"] == 3
        assert doc["config"]["train"] == {"epochs": 2, "batch_size": 4,
                                          "lr": 1e-3, "seed": 5}
        entry = doc["params"]["vf.0.b"]
        assert entry["shape"] == [8] and isinstance(entry["data"], str)
        assert len(base64.b64decode(entry["data"], validate=True)) == 8 * 8

    def test_missing_data_file(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1

    def test_horizon_longer_than_sequences(self, tmp_path, data_path):
        rc = main(["train", "--data", data_path, "--horizon", "50",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_numerical_abort_exit_code(self, tmp_path, config_path, data_path,
                                       capsys):
        rc = main(["train", "--data", data_path, "--out",
                   str(tmp_path / "m.json"), "--config", config_path,
                   "--epochs", "2", "--batch-size", "2", "--horizon", "4",
                   "--lr", "1e280", "--seed", "5"])
        assert rc == 2
        assert "numerical abort" in capsys.readouterr().err


class TestMalformedModelSection:
    """A bad `model` section exits 1 and names the key, with no traceback;
    run as a process so an uncaught error would show on stderr."""

    @pytest.mark.parametrize("section,named", [
        ({"dd": 4}, "['dd']"),
        ({"vf_hidden": 5}, "vf_hidden must be a list of integers"),
        ({"d": "abc"}, "d must be an integer"),
        # sizes past numpy's largest dimension, and past any memory
        ({"d": 10**30}, f"too large to allocate: model.vocab_size=3, model.d={10**30}"),
        ({"d": 10**6}, "too large to allocate: model.vocab_size=3, model.d=1000000"),
    ], ids=["unknown-key", "hidden-not-list", "size-not-integer", "d-past-dimension",
            "d-past-memory"])
    def test_exits_1_naming_key(self, tmp_path, data_path, section, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": section}))
        src = os.path.dirname(os.path.dirname(flowtpp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "flowtpp.cli", "train", "--data", data_path,
             "--out", str(tmp_path / "m.json"), "--config", str(cfg),
             "--epochs", "1", "--horizon", "4"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.json").exists()


# the settings that are module constants now, at their last default values
REMOVED_KEYS = {"model.rate_mode": "context", "model.manual_rate": 1.0,
                "model.pi0_mode": "uniform", "model.lambda_min": 1e-6,
                "sampler.eps_time": 1e-6, "sampler.eps_prob": 1e-5,
                "sampler.chunk_size": 256, "train.beta1": 0.9, "train.beta2": 0.999,
                "train.eps_opt": 1e-8, "model.mark_embed_dim": 16,
                "model.time_embed_dim": 16}


def run_cli(argv):
    """`python -m flowtpp.cli argv` as a process, so an uncaught error would
    show as a traceback on stderr."""
    src = os.path.dirname(os.path.dirname(flowtpp.__file__))
    return subprocess.run([sys.executable, "-m", "flowtpp.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))


class TestMalformedConfig:
    """Every config section is closed and typed: an unknown section or key,
    or a value of the wrong type, exits 1 naming section.key, with no
    traceback and no output file."""

    @pytest.mark.parametrize("command,config,named", [
        ("train", {"train": {"epoch": 1}}, "train.epoch"),
        ("train", {"train": {"batchsize": 4}}, "train.batchsize"),
        ("sample", {"sampler": {"stpes": 2}}, "sampler.stpes"),
        ("sample", {"train": {"epoch": 1, "batchsize": 4},
                    "sampler": {"stpes": 2}, "trian": {}}, "'trian'"),
        ("hist", {"bogus": {}}, "'bogus'"),
        ("train", {"model": {"activation": "relu"}}, "model.activation"),
        ("train", {"model": {"activation": "tanh"}}, "model.activation"),
        ("sample", {"sampler": {"steps": 2.7}}, "sampler.steps must be an integer"),
        ("train", {"train": {"batch_size": "abc"}},
         "train.batch_size must be an integer"),
        ("train", {"train": {"epochs": True}}, "train.epochs must be an integer"),
        ("train", {"train": {"lr": True}}, "train.lr must be a number"),
        ("simulate", {"simulate": {"num_seqs": "x"}},
         "simulate.num_seqs must be an integer"),
        ("simulate", {"simulate": {"excite": [0.3, "x"]}},
         "simulate.excite must be a number"),
        ("simulate", {"seed": "x"}, "seed must be an integer"),
        ("evaluate", {"otd": {"delete_cost": "abc"}},
         "otd.delete_cost must be a number"),
        ("evaluate", {"evaluate": {"rmse_y_mode": "counts"}},
         "unknown config sections: ['evaluate']"),
        ("evaluate", {"otd": []}, "section 'otd' must be an object"),
        ("train", {"model": {"vocab_size": 5}}, "vocab_size mismatch"),
        ("simulate", {"simulate": {"vocab_size": 5, "mark_probs": [0.5, 0.5]}},
         "simulate.mark_probs has 2 entries, simulate.vocab_size is 5"),
        # a rule of a section fails before any input file is opened
        ("evaluate-missing-pred", {"otd": {"delete_cost": 0}},
         "otd.delete_cost must be > 0"),
        ("sample-missing-checkpoint", {"sampler": {"steps": 0}},
         "sampler.steps must be >= 1"),
        # a flag value is checked by its section's rules, as a file value is
        ("simulate-kind-flag", {}, "simulate.kind must be"),
        # the simulators' own checks name their simulate key
        ("simulate", {"simulate": {"rate": 0}}, "simulate.rate must be positive"),
        ("simulate", {"simulate": {"kind": "hawkes", "decay": 0}},
         "simulate.decay must be positive"),
        ("simulate", {"simulate": {"mark_probs": [0.5, 0.5, 0.5]}},
         "simulate.mark_probs must sum to 1 (got 1.5)"),
        ("simulate", {"simulate": {"kind": "hawkes", "excite": [2, 0, 0, 2]}},
         "simulate.excite must keep the process stable"),
        ("simulate", {"simulate": {"vocab_size": 0}},
         "simulate.vocab_size must be >= 1"),
        ("train-missing-data", {"model": {"d": 0}}, "model.d must be >= 1"),
        # config numbers are finite
        ("evaluate-delete-cost-inf", {},
         "otd.delete_cost must be a finite number, got inf"),
        # a setting that went away is an unknown flag
        ("evaluate-rmse-y-mode", {}, "unrecognized arguments: --rmse-y-mode counts"),
    ])
    def test_exits_1_naming_key(self, tmp_path, data_path, checkpoint, pred_truth,
                                command, config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        pred, truth = pred_truth
        argv = {
            "simulate": ["simulate", "--out", str(out)],
            "hist": ["hist", "--data", data_path, "--out-times", str(out),
                     "--out-marks", str(out)],
            "train": ["train", "--data", data_path, "--out", str(out),
                      "--epochs", "1", "--horizon", "4"],
            "sample": ["sample", "--checkpoint", checkpoint, "--data", data_path,
                       "--out", str(out)],
            "evaluate": ["evaluate", "--pred", pred, "--truth", truth,
                         "--out", str(out)],
            "evaluate-missing-pred": ["evaluate", "--pred", str(tmp_path / "none"),
                                      "--truth", truth, "--out", str(out)],
            "sample-missing-checkpoint": ["sample", "--checkpoint",
                                          str(tmp_path / "none"), "--data",
                                          data_path, "--out", str(out)],
            "simulate-kind-flag": ["simulate", "--kind", "bogus", "--out", str(out)],
            "train-missing-data": ["train", "--data", str(tmp_path / "none"),
                                   "--out", str(out)],
            "evaluate-delete-cost-inf": ["evaluate", "--pred", pred, "--truth",
                                         truth, "--out", str(out),
                                         "--delete-cost", "inf"],
            "evaluate-rmse-y-mode": ["evaluate", "--pred", pred, "--truth", truth,
                                     "--out", str(out), "--rmse-y-mode", "counts"],
        }[command]
        proc = run_cli([*argv, "--config", str(cfg)])
        assert proc.returncode == 1, proc.stderr
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key,value", REMOVED_KEYS.items(), ids=list(REMOVED_KEYS))
    def test_removed_key_exits_1(self, tmp_path, data_path, checkpoint, key, value):
        # settings that became constants or went away are unknown keys, even
        # at their old default values
        section, name = key.split(".")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {name: value}}))
        out = tmp_path / "out"
        argv = (["sample", "--checkpoint", checkpoint] if section == "sampler"
                else ["train", "--epochs", "1", "--horizon", "4"])
        proc = run_cli([*argv, "--data", data_path, "--out", str(out),
                        "--config", str(cfg)])
        assert proc.returncode == 1, proc.stderr
        assert f"unknown {section} config keys: ['{name}'] ({key})" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_typed_values_are_used(self, tmp_path, data_path):
        # an integer is a number, in a number field and in a list of numbers
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "simulate": {"rate": 2, "mark_probs": [0, 1, 0]},
            "otd": {"delete_cost": 2}}))
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", str(cfg), "--num-seqs", "2",
                     "--length", "5", "--out", str(out)]) == 0
        assert all(np.all(s.marks == 1) for s in load_jsonl(out))


class TestCheckpointActivation:
    """Version-1 checkpoints could store the networks' activation; in a
    checkpoint today it is an unknown model key, which exits 1 naming it."""

    def assert_exits_1(self, checkpoint, tmp_path, data_path, value):
        doc = json.loads(open(checkpoint).read())
        doc["config"]["model"]["activation"] = value
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        out = tmp_path / "pred.jsonl"
        proc = run_cli(["sample", "--checkpoint", str(path), "--data", data_path,
                        "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert "model.activation" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_stored_tanh_exits_1(self, tmp_path, checkpoint, data_path):
        self.assert_exits_1(checkpoint, tmp_path, data_path, "tanh")

    def test_stored_relu_exits_1(self, tmp_path, checkpoint, data_path):
        self.assert_exits_1(checkpoint, tmp_path, data_path, "relu")


def values_of(entry) -> np.ndarray:
    return np.frombuffer(base64.b64decode(entry["data"]), "<f8")


def with_values(entry, values) -> dict:
    data = np.asarray(values, "<f8").tobytes()
    return {**entry, "data": base64.b64encode(data).decode()}


class TestMalformedCheckpoint:
    """A parameter entry that is not {"shape": [non-negative integers],
    "data": base64 of finite float64 values} exits 1 naming the parameter,
    with no traceback."""

    @pytest.mark.parametrize("corrupt", [
        lambda e: {**e, "shape": 5},
        lambda e: {"shape": e["shape"]},
        lambda e: {**e, "data": e["data"][:4] + "!" + e["data"][4:]},
        lambda e: "vf.0.b",
        lambda e: with_values(e, [np.nan, *values_of(e)[1:]]),
        lambda e: {**e, "data": values_of(e).tolist()},
        lambda e: with_values(e, values_of(e)[1:]),
        lambda e: with_values(e, [*values_of(e)[:-1], -np.inf]),
        lambda e: {**e, "shape": [True, *e["shape"]]},
        lambda e: {**e, "shape": [-1]},
    ], ids=["shape-not-list", "no-data", "string-in-data", "entry-string",
            "nan-in-data", "version-1-list", "one-value-short", "inf-in-data",
            "bool-dimension", "negative-dimension"])
    def test_exits_1_naming_path(self, tmp_path, checkpoint, data_path, corrupt):
        doc = json.loads(open(checkpoint).read())
        doc["params"]["vf.0.b"] = corrupt(doc["params"]["vf.0.b"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pred.jsonl"
        proc = run_cli(["sample", "--checkpoint", str(bad), "--data", data_path,
                        "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert "'vf.0.b'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_version_1_exits_1_asking_to_retrain(self, tmp_path, checkpoint,
                                                 data_path):
        # version 1 stored data as lists of numbers; version 2 as version 3,
        # plus the noise policy in model and Adam's constants in train;
        # version 3 as today, plus the GRU's mark and time embeddings
        doc = json.loads(open(checkpoint).read())
        v1 = dict(doc, version=1, params={path: {**e, "data": values_of(e).tolist()}
                                          for path, e in doc["params"].items()})
        v3 = dict(doc, version=3, config={
            **doc["config"],
            "model": {**doc["config"]["model"], "mark_embed_dim": 4,
                      "time_embed_dim": 4}})
        v2 = dict(v3, version=2, config={
            **v3["config"],
            "model": {**v3["config"]["model"], "rate_mode": "context",
                      "manual_rate": 1.0, "pi0_mode": "uniform", "lambda_min": 1e-6},
            "train": {**v3["config"]["train"], "beta1": 0.9, "beta2": 0.999,
                      "eps_opt": 1e-8}})
        for version, old_doc in ((1, v1), (2, v2), (3, v3)):
            old = tmp_path / f"v{version}.json"
            old.write_text(json.dumps(old_doc, sort_keys=True))
            out = tmp_path / "pred.jsonl"
            proc = run_cli(["sample", "--checkpoint", str(old), "--data", data_path,
                            "--out", str(out)])
            assert proc.returncode == 1, proc.stderr
            assert (f"unsupported version {version}; retrain to write version 4"
                    in proc.stderr)
            assert "Traceback" not in proc.stderr
            assert not out.exists()


class TestSample:
    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_below_one_names_the_flag(self, tmp_path, capsys, horizon):
        # checked before the checkpoint or the data is opened: neither exists
        rc = main(["sample", "--checkpoint", str(tmp_path / "absent.json"),
                   "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "pred.jsonl"), "--horizon", horizon])
        assert rc == 1
        assert f"--horizon must be >= 1, got {horizon}" in capsys.readouterr().err
        assert not (tmp_path / "pred.jsonl").exists()

    def test_output_lines_and_marks(self, tmp_path, checkpoint, data_path):
        out = tmp_path / "pred.jsonl"
        rc = main(["sample", "--checkpoint", checkpoint, "--data", data_path,
                   "--out", str(out), "--steps", "2", "--seed", "5"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8
        preds = load_jsonl(out)
        for p in preds:
            assert len(p) == 4
            assert np.all((p.marks >= 0) & (p.marks < 3))
            assert np.all(p.inter_times > 0)

    def test_deterministic(self, tmp_path, checkpoint, data_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["sample", "--checkpoint", checkpoint, "--data", data_path,
                "--steps", "2", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_out_aligns(self, tmp_path, checkpoint, data_path):
        pred = tmp_path / "pred.jsonl"
        truth = tmp_path / "truth.jsonl"
        rc = main(["sample", "--checkpoint", checkpoint, "--data", data_path,
                   "--out", str(pred), "--truth-out", str(truth),
                   "--steps", "2", "--seed", "5"])
        assert rc == 0
        truths = load_jsonl(truth)
        assert len(truths) == 8 and all(len(t) == 4 for t in truths)

    def test_overflowing_field_exits_2(self, tmp_path, checkpoint, data_path):
        # every parameter is finite, so the checkpoint loads; each hidden unit
        # of the field is tanh(1), and 8 * tanh(1) * 1.7e308 overflows
        doc = json.loads(open(checkpoint).read())
        params = doc["params"]
        params["vf.0.W"] = with_values(params["vf.0.W"], 0.0 * values_of(params["vf.0.W"]))
        params["vf.0.b"] = with_values(params["vf.0.b"], [1.0] * 8)
        params["vf.1.W"] = with_values(params["vf.1.W"], [1.7e308] * 8)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        out = tmp_path / "pred.jsonl"
        proc = run_cli(["sample", "--checkpoint", str(big), "--data", data_path,
                        "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        # the message alone: no numpy warning, no traceback
        assert proc.stderr == ("numerical abort: non-finite vector field at flow "
                               "time t=0.000000\n")
        assert not out.exists()

    def test_broken_invariant_exits_2(self, tmp_path, capsys, monkeypatch,
                                      checkpoint, data_path):
        # a redraw outside the 3 marks breaks the sampler's mark-range check
        monkeypatch.setattr(sampler, "categorical_rows",
                            lambda probs, u: np.full(len(u), 7))
        out = tmp_path / "pred.jsonl"
        rc = main(["sample", "--checkpoint", checkpoint, "--data", data_path,
                   "--out", str(out), "--steps", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("numerical abort: mark out of range after redraw at flow "
                       "time t=0.000000\n")  # the message alone, no traceback
        assert not out.exists()

    def test_saturated_overflow_samples_silently(self, tmp_path, data_path):
        # with two hidden layers the overflow of vf.1's matmul is inside a
        # tanh, which saturates at 1: the field is finite and sampling runs
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {**SMALL_MODEL, "vf_hidden": [8, 8]}}))
        path = tmp_path / "m.json"
        assert main(["train", "--data", data_path, "--out", str(path), "--config",
                     str(cfg), "--epochs", "1", "--horizon", "4"]) == 0
        doc = json.loads(path.read_text())
        params = doc["params"]
        params["vf.0.W"] = with_values(params["vf.0.W"], 0.0 * values_of(params["vf.0.W"]))
        params["vf.0.b"] = with_values(params["vf.0.b"], [1.0] * 8)
        params["vf.1.W"] = with_values(params["vf.1.W"], [1.7e308] * 64)
        path.write_text(json.dumps(doc))
        out = tmp_path / "pred.jsonl"
        proc = run_cli(["sample", "--checkpoint", str(path), "--data", data_path,
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        preds = load_jsonl(out)
        assert preds and all(np.isfinite(p.inter_times).all() for p in preds)


class TestSampleNoisePolicy:
    """Sampling draws its noise as training does (Model.draw_noise); the
    sampler config section has no policy keys."""

    def sample(self, out, checkpoint, data_path, config, tmp_path):
        path = tmp_path / "sampler.json"
        path.write_text(json.dumps({"sampler": config}))
        return main(["sample", "--checkpoint", checkpoint, "--data", data_path,
                     "--out", str(out), "--steps", "2", "--seed", "5",
                     "--config", str(path)])

    def test_conflicting_sampler_key_fails(self, tmp_path, checkpoint,
                                           data_path, capsys):
        rc = self.sample(tmp_path / "pred.jsonl", checkpoint, data_path,
                         {"pi0_mode": "context"}, tmp_path)
        assert rc == 1
        assert "sampler.pi0_mode" in capsys.readouterr().err
        assert not (tmp_path / "pred.jsonl").exists()

    def test_agreeing_sampler_keys_fail(self, tmp_path, checkpoint,
                                        data_path, capsys):
        agree = {"pi0_mode": "uniform", "rate_mode": "context", "manual_rate": 1.0}
        rc = self.sample(tmp_path / "pred.jsonl", checkpoint, data_path,
                         agree, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert all(f"sampler.{key}" in err for key in agree)
        assert not (tmp_path / "pred.jsonl").exists()


@pytest.fixture(scope="module")
def pred_truth(workdir, checkpoint, data_path):
    pred = workdir / "ev_pred.jsonl"
    truth = workdir / "ev_truth.jsonl"
    assert main(["sample", "--checkpoint", checkpoint, "--data", data_path,
                 "--out", str(pred), "--truth-out", str(truth),
                 "--steps", "2", "--seed", "5"]) == 0
    return str(pred), str(truth)


class TestEvaluate:
    def test_report_document(self, tmp_path, pred_truth):
        pred, truth = pred_truth
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--pred", pred, "--truth", truth,
                   "--out", str(out), "--seed", "5"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 2 and doc["seed"] == 5
        assert doc["window_count"] == 8
        assert doc["config"] == {"delete_cost": 1.0}
        for name in ("otd", "rmse_x", "rmse_y", "smape"):
            assert doc["aggregate"][name]["mean"] >= 0

    def test_perfect_predictions_score_zero(self, tmp_path, pred_truth):
        _, truth = pred_truth
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--pred", truth, "--truth", truth,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        for name in ("otd", "rmse_x", "rmse_y", "smape"):
            assert doc["aggregate"][name] == {"mean": 0.0, "sd": 0.0}

    def test_window_count_mismatch(self, tmp_path, pred_truth, data_path):
        _, truth = pred_truth
        rc = main(["evaluate", "--pred", data_path, "--truth", truth,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1

    @staticmethod
    def write_lines(path, rows, vocab=2):
        path.write_text("\n".join([json.dumps({"meta": {"vocab_size": vocab}}),
                                   *map(json.dumps, rows)]) + "\n")
        return str(path)

    def test_rejected_line_exits_1(self, tmp_path):
        # skipping pred line 2 and truth line 4 would score pred line 4
        # against truth line 3, since windows pair by position
        pred = self.write_lines(tmp_path / "p.jsonl", [
            {"dts": [1.0, -2.0], "marks": [0, 1]},
            {"dts": [1.0, 2.0], "marks": [0, 1]},
            {"dts": [1.5, 2.0], "marks": [1, 1]}])
        truth = self.write_lines(tmp_path / "t.jsonl", [
            {"dts": [1.0, 2.0], "marks": [0, 1]},
            {"dts": [1.0, 2.0], "marks": [0, 0]},
            {"dts": [1.0, 2.0], "marks": [7, 1]}])
        good = self.write_lines(tmp_path / "g.jsonl", [{"dts": [1.0, 2.0], "marks": [0, 1]}] * 3)
        out = tmp_path / "r.json"
        for pred_path, truth_path, where in ((pred, truth, f"{pred} line 2"),
                                             (good, truth, f"{truth} line 4")):
            proc = run_cli(["evaluate", "--pred", pred_path, "--truth", truth_path,
                            "--out", str(out)])
            assert proc.returncode == 1, proc.stderr
            assert f"error: {where} rejected: " in proc.stderr
            assert not out.exists()

    def test_mismatched_pair_names_its_window(self, tmp_path):
        rows = [{"dts": [1.0, 2.0], "marks": [0, 1]}] * 2
        truth = self.write_lines(tmp_path / "t.jsonl", rows)
        longer = self.write_lines(tmp_path / "p.jsonl", [
            rows[0], {"dts": [1.0, 2.0, 0.5], "marks": [0, 1, 1]}])
        wider = self.write_lines(tmp_path / "w.jsonl", rows, vocab=3)
        out = tmp_path / "r.json"
        for pred, message in ((longer, "window 1: length mismatch: pred has 3 events, truth 2"),
                              (wider, "window 0: vocab_size mismatch: 3 vs 2")):
            proc = run_cli(["evaluate", "--pred", pred, "--truth", truth, "--out", str(out)])
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr == f"error: {message}\n"
            assert not out.exists()

    def test_non_finite_report_exits_2(self, tmp_path):
        # 2*|1e308 - 1| overflowed smape; squaring it overflows rmse_x
        pred = self.write_lines(tmp_path / "p.jsonl", [{"dts": [1e308, 1e308], "marks": [0, 1]}])
        truth = self.write_lines(tmp_path / "t.jsonl", [{"dts": [1.0, 2.0], "marks": [0, 1]}])
        out = tmp_path / "r.json"
        proc = run_cli(["evaluate", "--pred", pred, "--truth", truth, "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "numerical abort: non-finite rmse_x in window 0: inf\n"
        assert not out.exists()

    # a header vocab_size past memory: rmse_y counts only up to the largest
    # mark, and hist refuses its M-row mark table
    @pytest.mark.parametrize("vocab", [10**12, 10**19])
    def test_vocab_past_memory(self, tmp_path, vocab):
        data = self.write_lines(tmp_path / "d.jsonl", [{"dts": [1.0, 2.0], "marks": [0, 1]}],
                                vocab=vocab)
        out = tmp_path / "r.json"
        proc = run_cli(["evaluate", "--pred", data, "--truth", data, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["aggregate"]["rmse_y"]["mean"] == 0.0
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        proc = run_cli(["hist", "--data", data, "--out-times", str(t), "--out-marks", str(m)])
        assert proc.returncode == 1, proc.stderr
        assert (f"mark table too large to allocate: {data} declares vocab_size={vocab}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not t.exists() and not m.exists()

    @pytest.mark.parametrize("flags,seed", [
        ([], 0), (["--config", "{cfg}"], 5), (["--config", "{cfg}", "--seed", "4"], 4),
    ], ids=["default", "config", "flag-wins"])
    def test_seed_precedence(self, tmp_path, pred_truth, flags, seed):
        # the report records --seed, then the config file's top-level seed
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5}))
        pred, truth = pred_truth
        out = tmp_path / "r.json"
        assert main(["evaluate", "--pred", pred, "--truth", truth, "--out", str(out),
                     *(flag.format(cfg=cfg) for flag in flags)]) == 0
        assert json.loads(out.read_text())["seed"] == seed

    def test_report_refuses_non_finite_values(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(NumericalError, match="non-finite value in report"):
            cli._write_report(out, {"aggregate": {"otd": {"mean": float("inf")}}})
        assert not out.exists()


class TestHist:
    def test_default_paths_and_headers(self, tmp_path, data_path):
        data = tmp_path / "h.jsonl"
        data.write_bytes(open(data_path, "rb").read())
        rc = main(["hist", "--data", str(data), "--seed", "4"])
        assert rc == 0
        times = (tmp_path / "h.jsonl.times.csv").read_text().splitlines()
        marks = (tmp_path / "h.jsonl.marks.csv").read_text().splitlines()
        assert times[0] == "# version=1 seed=4"
        assert times[1] == "bin_lo,bin_hi,count,freq"
        assert marks[1] == "mark,count,freq"
        assert len(marks) == 2 + 3

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_rejected(self, tmp_path, data_path, bins, capsys):
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        rc = main(["hist", "--data", data_path, "--bins", bins,
                   "--out-times", str(t), "--out-marks", str(m)])
        assert rc == 1
        assert "bins must be >= 1" in capsys.readouterr().err
        assert not t.exists() and not m.exists()

    # bin counts that fail the memory check before anything is allocated;
    # 10**19 is also past numpy's largest size
    @pytest.mark.parametrize("bins", [10**12, 10**19])
    def test_bins_past_memory_exit_1(self, tmp_path, data_path, bins):
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        proc = run_cli(["hist", "--data", data_path, "--bins", str(bins),
                        "--out-times", str(t), "--out-marks", str(m)])
        assert proc.returncode == 1, proc.stderr
        assert f"histogram too large to allocate: bins={bins}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not t.exists() and not m.exists()

    def test_explicit_paths(self, tmp_path, data_path):
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        rc = main(["hist", "--data", data_path, "--out-times", str(t),
                   "--out-marks", str(m)])
        assert rc == 0
        assert t.exists() and m.exists()

    @pytest.mark.parametrize("flags,seed", [
        ([], "0"), (["--config", "{cfg}"], "5"),
        (["--config", "{cfg}", "--seed", "4"], "4"),
    ], ids=["default", "config", "flag-wins"])
    def test_seed_precedence(self, tmp_path, data_path, flags, seed):
        # --seed, then the config file's top-level seed, as in every command
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5}))
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        assert main(["hist", "--data", data_path, "--out-times", str(t),
                     "--out-marks", str(m),
                     *(flag.format(cfg=cfg) for flag in flags)]) == 0
        for path in (t, m):
            assert path.read_text().splitlines()[0] == f"# version=1 seed={seed}"

    def test_csv_line_endings(self, tmp_path, data_path, checkpoint):
        # bytes, since read_text() turns \r\n into \n
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        assert main(["hist", "--data", data_path, "--out-times", str(t),
                     "--out-marks", str(m)]) == 0
        for path in (f"{checkpoint}.trace.csv", t, m):
            data = open(path, "rb").read()
            assert b"\r" not in data and data.endswith(b"\n"), path


class TestArgHandling:
    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--out", "x.jsonl", "--bogus", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required(self):
        assert main(["train", "--data", "x.jsonl"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_config_flag_precedence(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"simulate": {"num_seqs": 5, "length": 6}}))
        out1 = tmp_path / "from_config.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert len(out1.read_text().splitlines()) == 6

        out2 = tmp_path / "flag_wins.jsonl"
        assert main(["simulate", "--config", str(cfg), "--num-seqs", "7",
                     "--out", str(out2)]) == 0
        assert len(out2.read_text().splitlines()) == 8

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x.jsonl")]) == 1


def input_argv(command, flag, path, files, out) -> list:
    """argv of command with path behind flag and valid files elsewhere."""
    argv = {
        "simulate": ["simulate", "--num-seqs", "2", "--length", "5",
                     "--out", out],
        "train": ["train", "--data", files["data"], "--config", files["config"],
                  "--out", out, "--epochs", "1", "--horizon", "4"],
        "sample": ["sample", "--checkpoint", files["checkpoint"], "--data",
                   files["data"], "--out", out, "--steps", "1"],
        "evaluate": ["evaluate", "--pred", files["pred"], "--truth",
                     files["truth"], "--out", out],
        "hist": ["hist", "--data", files["data"], "--out-times", out,
                 "--out-marks", out],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = path
        return argv
    return [*argv, flag, path]


@pytest.fixture(scope="module")
def input_files(config_path, data_path, checkpoint, pred_truth):
    pred, truth = pred_truth
    return {"config": config_path, "data": data_path, "checkpoint": checkpoint,
            "pred": pred, "truth": truth}


INPUT_FLAGS = [("hist", "--data"), ("train", "--data"), ("sample", "--checkpoint"),
               ("simulate", "--config"), ("evaluate", "--pred"),
               ("sample", "--data"), ("evaluate", "--truth")]

# documents json cannot decode: nested past the recursion limit, an integer
# past the 4,300-digit limit, and one cut short
MALFORMED_JSON = {"deep": b"[" * 100_000, "huge-int": b"1" * 5000,
                  "truncated": b'{"dts": [1.0, 2.0], "marks": [0'}


class TestNonUtf8Input:
    """An input file that is not UTF-8, or holds JSON that cannot be
    decoded, exits 1 naming the file (and the line, in a JSONL file), with
    no traceback and no output file, behind every input flag: load_jsonl
    (--data, --pred, --truth), load_checkpoint (--checkpoint) and the config
    loader (--config) all decode through errors.read_text and parse_json."""

    def check_exit_1(self, tmp_path, input_files, command, flag, content, named):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(content)
        out = tmp_path / "out"
        proc = run_cli(input_argv(command, flag, str(bad), input_files, str(out)))
        assert proc.returncode == 1, proc.stderr
        assert named.format(path=bad) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", INPUT_FLAGS)
    def test_exits_1_naming_file(self, tmp_path, input_files, command, flag):
        self.check_exit_1(tmp_path, input_files, command, flag,
                          b"\xff\xfe{\x00}\x00", "{path}: not UTF-8 text")

    @pytest.mark.parametrize("content", MALFORMED_JSON)
    @pytest.mark.parametrize("command,flag", INPUT_FLAGS)
    def test_malformed_json_exits_1_naming_line(self, tmp_path, input_files,
                                                command, flag, content):
        document = MALFORMED_JSON[content]
        if flag in ("--config", "--checkpoint"):
            self.check_exit_1(tmp_path, input_files, command, flag, document,
                              "{path}: invalid JSON")
        else:  # a JSONL file, the document on the line after its header
            self.check_exit_1(tmp_path, input_files, command, flag,
                              b'{"meta": {"vocab_size": 3}}\n' + document,
                              "{path} line 2: invalid JSON")


# small JSON values: scalars (NaN and infinities included, as json writes
# them), and lists and objects of them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
input_bytes = (st.binary(max_size=64)
               | json_values.map(lambda v: json.dumps(v).encode())
               | st.lists(json_values, min_size=1, max_size=4).map(
                   lambda vs: "\n".join(map(json.dumps, vs)).encode()))


class TestFuzzInputs:
    """Whatever bytes sit behind an input flag, main returns 0 or 1 and
    raises nothing."""

    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--config"), ("train", "--config"), ("train", "--data"),
        ("sample", "--checkpoint"), ("sample", "--data"), ("evaluate", "--pred"),
        ("evaluate", "--truth"), ("hist", "--data"),
    ])
    @settings(max_examples=60)
    @given(content=input_bytes)
    @example(content=MALFORMED_JSON["deep"])
    @example(content=MALFORMED_JSON["huge-int"])
    def test_exit_code_0_or_1(self, workdir, input_files, command, flag, content):
        path = workdir / "fuzz.bin"
        path.write_bytes(content)
        rc = main(input_argv(command, flag, str(path), input_files,
                             str(workdir / "fuzz.out")))
        assert rc in (0, 1)


class TestPipeline:
    def test_end_to_end_artifacts(self, tmp_path, config_path):
        wd = tmp_path / "run"
        rc = main(["pipeline", "--workdir", str(wd), "--seeds", "2",
                   "--config", config_path, "--num-seqs", "6",
                   "--eval-seqs", "3", "--length", "12", "--horizon", "4",
                   "--epochs", "1", "--batch-size", "4", "--steps", "2",
                   "--seed", "3"])
        assert rc == 0
        for name in ("train.jsonl", "eval.jsonl", "model_0.json",
                     "model_1.json", "pred_0.jsonl", "truth_0.jsonl",
                     "report_0.json", "report_1.json", "report.json"):
            assert (wd / name).exists(), name
        doc = json.loads((wd / "report.json").read_text())
        assert doc["seeds"] == 2 and len(doc["per_seed"]) == 2
        assert set(doc["aggregate"]) == {"otd", "rmse_x", "rmse_y", "smape"}

    def test_config_read_once(self, tmp_path, config_path, monkeypatch):
        # main reads --config once; every stage of every seed uses that copy
        reads = []
        read_text = cli.read_text
        monkeypatch.setattr(cli, "read_text",
                            lambda path: reads.append(path) or read_text(path))
        rc = main(["pipeline", "--workdir", str(tmp_path / "run"), "--seeds", "2",
                   "--config", config_path, "--num-seqs", "6", "--eval-seqs", "3",
                   "--length", "12", "--horizon", "4", "--epochs", "1",
                   "--batch-size", "4", "--steps", "1"])
        assert rc == 0
        assert reads.count(config_path) == 1

    def test_bad_seed_count(self, tmp_path):
        assert main(["pipeline", "--workdir", str(tmp_path / "w"),
                     "--seeds", "0"]) == 1

    @pytest.mark.parametrize("flags,config,named", [
        (["--eval-seqs", "0"], {}, "simulate.eval_seqs must be >= 1"),
        (["--num-seqs", "0"], {}, "simulate.num_seqs must be >= 1"),
        ([], {"train": {"seed": 5}}, "remove train.seed"),
        ([], {"simulate": {"seed": 9}}, "remove simulate.seed"),
        ([], {"train": {"lr": 0}}, "train.lr must be > 0"),
        ([], {"sampler": {"steps": 0}}, "sampler.steps must be >= 1"),
        ([], {"otd": {"delete_cost": 0}}, "otd.delete_cost must be > 0"),
        (["--rmse-y-mode", "counts"], {}, "unrecognized arguments: --rmse-y-mode"),
        (["--length", "8", "--horizon", "8"], {},
         "model.horizon must be < simulate.length"),
        ([], {"model": {**SMALL_MODEL, "vocab_size": 5}},
         "model.vocab_size must be 3"),
        (["--rate", "0"], {}, "simulate.rate must be positive"),
        (["--kind", "hawkes", "--decay", "0"], {}, "simulate.decay must be positive"),
        (["--mark-probs", "0.5,0.5,0.5"], {}, "simulate.mark_probs must sum to 1"),
        (["--kind", "hawkes", "--excite", "2,0,0,2"], {},
         "simulate.excite must keep the process stable"),
        ([], {"evaluate": {}}, "unknown config sections: ['evaluate']"),
        (["--kind", "hawkes", "--vocab-size", "7"], {},
         "simulate.vocab_size must be its default 3 when kind is 'hawkes', got 7"),
        (["--eval-seqs", str(10**12)], {}, "simulated dataset too large to allocate: "
         "simulate.eval_seqs=1000000000000, simulate.length=8"),
        (["--num-seqs", str(10**19)], {}, "simulated dataset too large to allocate: "
         "simulate.num_seqs=10000000000000000000, simulate.length=8"),
    ], ids=["eval-seqs-0", "num-seqs-0", "train-seed", "simulate-seed", "train-lr",
            "sampler-steps", "otd-delete-cost", "rmse-y-mode", "horizon-length",
            "vocab-size", "rate-0", "decay-0", "mark-probs-sum", "unstable",
            "evaluate-section", "other-kind-key", "eval-seqs-past-memory",
            "num-seqs-past-memory"])
    def test_exits_1_before_writing(self, tmp_path, flags, config, named):
        # a bad value in any stage's section, a horizon no sequence exceeds,
        # and a section seed that the stage seeds would silently override
        # are errors before anything is written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"model": SMALL_MODEL, "sampler": {"steps": 1}, **config}))
        wd = tmp_path / "run"
        proc = run_cli(["pipeline", "--workdir", str(wd), "--config", str(cfg),
                        "--num-seqs", "4", "--eval-seqs", "2", "--length", "8",
                        "--horizon", "4", "--epochs", "1", *flags])
        assert proc.returncode == 1, proc.stderr
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not wd.exists()


def negative_seed_cases():
    """(command, source of the seed, what stderr names): a command whose
    section has a seed checks --seed there; evaluate, hist and pipeline check
    it themselves, and pipeline takes no section seed at all."""
    sections = {"simulate": "simulate", "train": "train", "sample": "sampler",
                "evaluate": None, "hist": None, "pipeline": None}
    for command, section in sections.items():
        key = f"{section}.seed" if section else "seed"
        yield command, "flag", f"error: {key} must be >= 0, got -3"
        yield command, "top-level", "error: seed must be >= 0, got -3"
        if section:
            yield command, "section", f"error: {key} must be >= 0, got -3"
    yield "evaluate", "section", "unknown config sections: ['evaluate']"
    yield "pipeline", "section", "remove simulate.seed"


class TestNegativeSeed:
    """A seed below 0, from --seed, the top-level seed or a section seed,
    exits 1 naming the key before any file or workdir is written."""

    @pytest.mark.parametrize("command,source,named", negative_seed_cases())
    def test_exits_1_naming_key(self, tmp_path, data_path, checkpoint, pred_truth,
                                command, source, named, capsys):
        out, pred, truth = tmp_path / "out", *pred_truth
        argv = {
            "simulate": ["--out", str(out)],
            "train": ["--data", data_path, "--out", str(out), "--epochs", "1",
                      "--horizon", "4"],
            "sample": ["--checkpoint", checkpoint, "--data", data_path,
                       "--out", str(out)],
            "evaluate": ["--pred", pred, "--truth", truth, "--out", str(out)],
            "hist": ["--data", data_path, "--out-times", str(out),
                     "--out-marks", str(out)],
            "pipeline": ["--workdir", str(out), "--num-seqs", "4", "--eval-seqs",
                         "2", "--length", "8", "--horizon", "4", "--epochs", "1"],
        }[command]
        section = {"sample": "sampler", "pipeline": "simulate"}.get(command, command)
        config = {"flag": {}, "top-level": {"seed": -3},
                  "section": {section: {"seed": -3}}}[source]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        flag = ["--seed", "-3"] if source == "flag" else []
        assert main([command, *argv, "--config", str(cfg), *flag]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestReadmeConfig:
    """README's "Config file" block, its // comments stripped, is a config
    the CLI accepts, and it documents every section and key the CLI takes."""

    def test_documented_config_is_accepted(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("## Config file"):]
        block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "readme.json"
        path.write_text(re.sub(r"//[^\n]*", "", block))
        cli._load_config(str(path))  # raises on an unknown or mistyped key
        doc = json.loads(path.read_text())
        assert set(doc) == {"seed", *cli._SECTIONS}
        for name, types in cli._SECTIONS.items():
            assert set(doc[name]) == set(types), name
        # every documented value is the default
        assert doc["seed"] == 0
        for cls in CONFIGS:
            default = cls(vocab_size=3) if cls is ModelConfig else cls()
            assert cls.from_dict(doc[cls.section]) == default, cls.section


FLOAT_FIELDS = [(cls, key, kind) for cls in CONFIGS
                for key, kind in cls.field_types.items()
                if kind in (float, tuple[float, ...])]


class TestNonFiniteConfig:
    """Every number field of the five config sections, and every item of a
    list of numbers, rejects NaN and the infinities naming section.key,
    both from a config-file section and from the constructor."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls,key,kind", FLOAT_FIELDS,
                             ids=[f"{c.section}.{k}" for c, k, _ in FLOAT_FIELDS])
    def test_rejected(self, cls, key, kind, bad):
        value = bad if kind is float else (bad,)
        required = {"vocab_size": 2} if cls is ModelConfig else {}
        named = re.escape(f"{cls.section}.{key} must be a finite number")
        with pytest.raises(ValidationError, match=named):
            cls.from_dict({**required, key: value})
        with pytest.raises(ValidationError, match=named):
            cls(**required, **{key: value})
