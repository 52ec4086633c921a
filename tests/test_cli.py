import json
import os
import subprocess
import sys

import numpy as np
import pytest

import flowtpp
from flowtpp import (Model, ModelConfig, SamplerConfig, generate, load_jsonl,
                     make_windows)
from flowtpp.cli import main

SMALL_MODEL = {
    "d": 8,
    "mark_embed_dim": 4,
    "time_embed_dim": 4,
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
        assert doc["version"] == 1
        assert doc["config"]["seed"] == 5
        assert doc["config"]["model"]["vocab_size"] == 3
        assert doc["config"]["train"]["epochs"] == 2
        assert "params" in doc

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
    ], ids=["unknown-key", "hidden-not-list", "size-not-integer"])
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


class TestSample:
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


@pytest.fixture(scope="module")
def context_checkpoint(workdir, data_path):
    """A model trained with mark noise drawn from the context's mark
    frequencies rather than uniformly."""
    cfg = workdir / "context_pi0.json"
    cfg.write_text(json.dumps({"model": dict(SMALL_MODEL, pi0_mode="context")}))
    path = workdir / "context_model.json"
    rc = main(["train", "--data", data_path, "--out", str(path),
               "--config", str(cfg), "--epochs", "2", "--batch-size", "4",
               "--horizon", "4", "--seed", "5"])
    assert rc == 0
    return str(path)


class TestSampleNoisePolicy:
    """Sampling draws its noise by the checkpoint's policy; a sampler config
    section may repeat a policy key but not contradict it."""

    def sample(self, out, checkpoint, data_path, config=None, tmp_path=None):
        argv = ["sample", "--checkpoint", checkpoint, "--data", data_path,
                "--out", str(out), "--steps", "2", "--seed", "5"]
        if config is not None:
            path = tmp_path / "sampler.json"
            path.write_text(json.dumps({"sampler": config}))
            argv += ["--config", str(path)]
        return main(argv)

    def test_context_pi0_checkpoint_samples_with_context_pi0(
            self, tmp_path, context_checkpoint, data_path):
        out = tmp_path / "pred.jsonl"
        assert self.sample(out, context_checkpoint, data_path) == 0
        model = Model.from_checkpoint(context_checkpoint)
        assert model.config.pi0_mode == "context"
        windows = make_windows(load_jsonl(data_path), 4)
        cfg = SamplerConfig(steps=2, seed=5)
        want = generate(model, windows, cfg)
        uniform = Model(ModelConfig.from_dict(
            dict(model.config.to_dict(), pi0_mode="uniform")), init=False)
        uniform.store.load_state(model.store.state_dict())
        other = generate(uniform, windows, cfg)
        preds = load_jsonl(out)
        assert len(preds) == len(want)
        for p, (x, y) in zip(preds, want):
            np.testing.assert_array_equal(p.inter_times, x)
            np.testing.assert_array_equal(p.marks, y)
        # the policy shows in the output: uniform mark noise samples otherwise
        assert any(not np.array_equal(p.inter_times, x)
                   for p, (x, _) in zip(preds, other))

    def test_conflicting_sampler_key_fails(self, tmp_path, context_checkpoint,
                                           data_path, capsys):
        rc = self.sample(tmp_path / "pred.jsonl", context_checkpoint, data_path,
                         {"pi0_mode": "uniform"}, tmp_path)
        assert rc == 1
        assert "sampler.pi0_mode" in capsys.readouterr().err
        assert not (tmp_path / "pred.jsonl").exists()

    def test_agreeing_sampler_keys_accepted(self, tmp_path, context_checkpoint,
                                            data_path):
        plain, repeated = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert self.sample(plain, context_checkpoint, data_path) == 0
        agree = {"pi0_mode": "context", "rate_mode": "context", "manual_rate": 1.0}
        assert self.sample(repeated, context_checkpoint, data_path, agree,
                           tmp_path) == 0
        assert plain.read_bytes() == repeated.read_bytes()


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
        assert doc["version"] == 1 and doc["seed"] == 5
        assert doc["window_count"] == 8
        assert doc["config"] == {"delete_cost": 1.0, "rmse_y_mode": "counts"}
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

    def test_explicit_paths(self, tmp_path, data_path):
        t, m = tmp_path / "t.csv", tmp_path / "m.csv"
        rc = main(["hist", "--data", data_path, "--out-times", str(t),
                   "--out-marks", str(m)])
        assert rc == 0
        assert t.exists() and m.exists()


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

    def test_bad_seed_count(self, tmp_path):
        assert main(["pipeline", "--workdir", str(tmp_path / "w"),
                     "--seeds", "0"]) == 1
