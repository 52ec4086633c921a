"""Acceptance gate: eight end-to-end checks.

1. gradient correctness against finite differences
2. overfit sanity on a fixed batch
3. distribution recovery on a homogeneous process
4. distribution recovery on a self-exciting process (vs a rate-matched
   exponential baseline)
5. alignment-metric oracle agreement
6. sampler invariants across all runs in this module
7. alignment cost grows with forecast length
8. byte-identical pipeline artifacts on repeat runs

Each test prints one PASS/FAIL line and then asserts it. The two trained
model fixtures are shared across criteria, so this module takes minutes,
not hours.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import (
    FD_STEP,
    FD_TOL,
    brute_force_otd,
    dyadic_arrivals,
    make_gru,
    make_mlp,
    max_grad_error,
)
from flowtpp import (
    EventSequence,
    HawkesSpec,
    Model,
    ModelConfig,
    OtdConfig,
    SamplerConfig,
    TrainConfig,
    generate,
    make_windows,
    otd,
    predictions_to_sequences,
    rmse_x,
    rmse_y,
    simulate_hawkes,
    simulate_poisson,
    smape,
    train,
)
from flowtpp import nn
from flowtpp.cli import main as cli_main
from flowtpp.metrics import histogram_tv
from flowtpp.sampler import INVARIANT_COUNTS


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} [{detail}]")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def poisson_run():
    """Train on a rate-1 homogeneous process with uniform marks over M=3,
    then sample 1000 held-out windows at L=20 with 8 flow steps."""
    t0 = time.time()
    probs = [1.0 / 3.0] * 3
    train_seqs = [simulate_poisson(1.0, probs, 40, seed=[11, 2, i])
                  for i in range(2000)]
    eval_seqs = [simulate_poisson(1.0, probs, 40, seed=[11, 5, i])
                 for i in range(1000)]
    model = Model(ModelConfig(vocab_size=3, horizon=20), seed=11)
    train(model, make_windows(train_seqs, 20),
          TrainConfig(epochs=100, batch_size=32, seed=11))
    samples = generate(model, make_windows(eval_seqs, 20),
                       SamplerConfig(steps=8, seed=11))
    dts = np.concatenate([x for x, _ in samples])
    marks = np.concatenate([y for _, y in samples])
    return {
        "mean": float(dts.mean()),
        "freqs": np.bincount(marks, minlength=3) / marks.size,
        "runtime": time.time() - t0,
    }


@pytest.fixture(scope="module")
def hawkes_family():
    """Three training seeds on a 2-type self-exciting process (total base
    rate 0.5, mark-dependent excitation with branching 0.4, decay 1.0).

    Returns per-seed total-variation distances at L=20 (model vs a
    rate-matched exponential baseline) and per-horizon alignment-cost means.
    """
    spec = HawkesSpec(np.array([0.25, 0.25]),
                      np.array([[0.3, 0.1], [0.1, 0.3]]), 1.0)
    train_seqs = [simulate_hawkes(spec, 40, seed=[21, 2, i])
                  for i in range(1200)]
    eval_seqs = [simulate_hawkes(spec, 45, seed=[21, 5, i])
                 for i in range(300)]
    train_windows = make_windows(train_seqs, 20)
    eval_windows = {length: make_windows(eval_seqs, length)
                    for length in (5, 10, 20)}
    truth_dts = np.concatenate(
        [w.target.inter_times for w in eval_windows[20]]
    )
    lam_hat = 1.0 / truth_dts.mean()

    tv_model, tv_baseline = [], []
    otd_means = {5: [], 10: [], 20: []}
    for s in range(3):
        model = Model(ModelConfig(vocab_size=2, horizon=20), seed=s)
        train(model, train_windows,
              TrainConfig(epochs=60, batch_size=32, seed=s))
        for length in (5, 10, 20):
            ws = eval_windows[length]
            samples = generate(model, ws, SamplerConfig(steps=8, seed=s))
            if length == 20:
                pred_dts = np.concatenate([x for x, _ in samples])
                tv_model.append(histogram_tv(pred_dts, truth_dts))
                baseline = np.random.default_rng([21, 4, s]).exponential(
                    1.0 / lam_hat, size=truth_dts.size
                )
                tv_baseline.append(histogram_tv(baseline, truth_dts))
            preds = predictions_to_sequences(samples, 2)
            otd_means[length].append(float(np.mean(
                [otd(p, w.target) for p, w in zip(preds, ws)]
            )))
    return {"tv_model": tv_model, "tv_baseline": tv_baseline,
            "otd": otd_means}


def test_criterion_1_gradient_correctness(rng):
    t0 = time.time()
    worst = 0.0

    for _ in range(20):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 6)),
                 int(rng.integers(1, 4))]
        store = make_mlp(rng, sizes)
        inp = nn.Tensor(rng.normal(0, 1, (3, sizes[0])), requires_grad=True)
        leaves = list(store.params.values()) + [inp]
        worst = max(worst, max_grad_error(
            lambda: nn.mlp_forward(store, inp, sizes).square().sum(),
            leaves, FD_STEP))

    for _ in range(20):
        in_dim, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        store = make_gru(rng, in_dim, d)
        xs = [nn.Tensor(rng.normal(0, 1, (2, in_dim)), requires_grad=True)
              for _ in range(3)]

        def unrolled():
            h = nn.Tensor(np.zeros((2, d)))
            for x in xs:
                h = nn.gru_step(store, x, h)
            return h.square().sum()

        worst = max(worst, max_grad_error(
            unrolled, list(store.params.values()) + xs, FD_STEP))

    for _ in range(20):
        table = nn.Tensor(rng.normal(0, 1, (5, 3)), requires_grad=True)
        idx = rng.integers(0, 5, size=7)
        worst = max(worst, max_grad_error(
            lambda: table.take_rows(idx).square().sum(), [table], FD_STEP))

    cfg = ModelConfig(vocab_size=3, horizon=2, d=4, t_embed_dim=2, vf_hidden=(5,),
                      head_hidden=(5,))
    for draw in range(20):
        model = Model(cfg, seed=1000 + draw)
        seqs = [simulate_poisson(1.0, [1 / 3] * 3, 5, seed=[60, 2, 2 * draw + i])
                for i in range(2)]
        windows = make_windows(seqs, 2)
        batch = model.build_flow_batch(windows, rng)

        def full_loss():
            h_c = model.encode_contexts([w.context for w in windows])
            return model.loss_total(batch, h_c)[0]

        worst = max(worst, max_grad_error(
            full_loss, list(model.store.params.values()), FD_STEP))

    elapsed = time.time() - t0
    ok = worst < FD_TOL and elapsed < 60.0
    _report(1, "gradient correctness", ok,
            f"max rel err {worst:.2e} (tol {FD_TOL}), {elapsed:.1f}s (limit 60s)")


def test_criterion_2_overfit_fixed_batch():
    t0 = time.time()
    seqs = [simulate_poisson(1.0, [1 / 3] * 3, 12, seed=[50, 2, i])
            for i in range(8)]
    windows = make_windows(seqs, 4)
    model = Model(ModelConfig(vocab_size=3, horizon=4), seed=0)
    batch = model.build_flow_batch(windows, np.random.default_rng(0))
    contexts = [w.context for w in windows]

    initial = None
    for _ in range(500):
        h_c = model.encode_contexts(contexts)
        total, _, _ = model.loss_total(batch, h_c)
        if initial is None:
            initial = float(total.data)
        nn.backward(total)
        nn.adam_step(model.store, lr=3e-3)
    final = float(total.data)

    proj_rows = model.project_contexts(contexts)[batch.window_idx]
    _, logits = model.predict(batch.x_t, batch.y_t, batch.t, proj_rows)
    accuracy = float((logits.argmax(axis=1) == batch.y1).mean())
    elapsed = time.time() - t0
    ok = final < 0.01 * initial and accuracy == 1.0 and elapsed < 120.0
    _report(2, "overfit sanity", ok,
            f"loss {initial:.3f} -> {final:.2e} "
            f"({final / initial:.2%} of initial, need <1%), "
            f"mark accuracy {accuracy:.0%}, {elapsed:.1f}s (limit 120s)")


def test_criterion_3_homogeneous_recovery(poisson_run):
    mean = poisson_run["mean"]
    freqs = poisson_run["freqs"]
    mean_ok = 0.85 <= mean <= 1.15
    freq_ok = bool(np.all(np.abs(freqs - 1 / 3) <= 0.05))
    ok = mean_ok and freq_ok
    _report(3, "homogeneous recovery", ok,
            f"inter-time mean {mean:.4f} (need 0.85..1.15), "
            f"mark freqs {np.round(freqs, 4).tolist()} (need 1/3 +- 0.05), "
            f"runtime {poisson_run['runtime']:.0f}s (target 600s)")


def test_criterion_4_self_exciting_recovery(hawkes_family):
    tv_model = float(np.mean(hawkes_family["tv_model"]))
    tv_baseline = float(np.mean(hawkes_family["tv_baseline"]))
    ok = tv_model < tv_baseline
    _report(4, "self-exciting recovery", ok,
            f"TV to truth: model {tv_model:.4f} vs rate-matched baseline "
            f"{tv_baseline:.4f} over 3 seeds "
            f"(per-seed model {np.round(hawkes_family['tv_model'], 4).tolist()}, "
            f"baseline {np.round(hawkes_family['tv_baseline'], 4).tolist()})")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(777)

    def dyadic_seq():
        n = int(rng.integers(0, 5))
        arrivals = dyadic_arrivals(rng, n)
        dts = np.diff(arrivals, prepend=0.0)
        return EventSequence(dts, rng.integers(0, 2, size=n), 2)

    pairs = 0
    exact = True
    for _ in range(220):
        a, b = dyadic_seq(), dyadic_seq()
        c_del = float(rng.choice([0.5, 1.0]))
        got = otd(a, b, OtdConfig(delete_cost=c_del))
        want = brute_force_otd(a.arrival_times(), a.marks,
                               b.arrival_times(), b.marks, c_del)
        exact = exact and (got == want)
        pairs += 1

    x_a = EventSequence(np.array([1.0, 2.0]), np.array([0, 0]), 2)
    x_b = EventSequence(np.array([1.0, 4.0]), np.array([0, 0]), 2)
    y_a = EventSequence(np.ones(3), np.array([0, 0, 1]), 2)
    y_b = EventSequence(np.ones(3), np.array([0, 1, 1]), 2)
    s_a = EventSequence(np.array([2.0]), np.array([0]), 1)
    s_b = EventSequence(np.array([1.0]), np.array([0]), 1)
    hand_ok = (
        abs(rmse_x(x_a, x_b) - np.sqrt(2.0)) < 1e-9
        and abs(rmse_y(y_a, y_b) - 1.0) < 1e-9
        and abs(smape(s_a, s_b) - 200.0 / 3.0) < 1e-9
    )
    ok = exact and pairs >= 200 and hand_ok
    _report(5, "metric oracles", ok,
            f"{pairs} random alignment pairs exact={exact}, "
            f"hand values to 1e-9: {hand_ok}")


def test_criterion_6_sampler_invariants(poisson_run, hawkes_family):
    checks = INVARIANT_COUNTS["checks"]
    violations = INVARIANT_COUNTS["violations"]
    ok = checks > 0 and violations == 0
    _report(6, "sampler invariants", ok,
            f"{checks} positivity/simplex/mark-range checks, "
            f"{violations} violations (need 0)")


def test_criterion_7_horizon_ordering(hawkes_family):
    m5, m10, m20 = (float(np.mean(hawkes_family["otd"][length]))
                    for length in (5, 10, 20))
    ok = m5 < m10 < m20
    _report(7, "alignment cost grows with horizon", ok,
            f"OTD means over 3 seeds: L=5 {m5:.3f} < L=10 {m10:.3f} "
            f"< L=20 {m20:.3f}")


def test_criterion_8_pipeline_reproducibility(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": {
        "d": 8, "t_embed_dim": 4,
        "vf_hidden": [8], "head_hidden": [8],
    }}))
    argv = ["pipeline", "--seeds", "2", "--config", str(cfg_path),
            "--num-seqs", "8", "--eval-seqs", "4", "--length", "16",
            "--horizon", "5", "--epochs", "2", "--batch-size", "4",
            "--steps", "4", "--seed", "13"]
    dirs = []
    for name in ("first", "second"):
        wd = tmp_path / name
        assert cli_main(argv + ["--workdir", str(wd)]) == 0
        dirs.append(wd)

    names_a = sorted(os.listdir(dirs[0]))
    names_b = sorted(os.listdir(dirs[1]))
    identical = names_a == names_b and all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
        for f in names_a
    )
    ok = identical and len(names_a) >= 13
    _report(8, "pipeline reproducibility", ok,
            f"{len(names_a)} artifacts byte-identical across repeat runs: "
            f"{identical}")
