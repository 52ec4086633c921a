import gc

import numpy as np
import pytest

from flowtpp import (
    EventSequence,
    Model,
    ModelConfig,
    NumericalError,
    SamplerConfig,
    ValidationError,
    estimate_lambda,
    generate,
    make_windows,
    predictions_to_sequences,
    simulate_poisson,
)
from flowtpp import sampler
from flowtpp.model import LAMBDA_MIN
from flowtpp.nn import softmax
from flowtpp.sampler import (
    EPS_TIME,
    INVARIANT_COUNTS,
    categorical_rows,
    flow_step,
    mark_probs,
)
from tape import reference_generate


def small_windows(n, horizon=4, m=3, seed_hi=31):
    seqs = [simulate_poisson(1.0, [1.0 / m] * m, 10, seed=[seed_hi, 2, i])
            for i in range(n)]
    return make_windows(seqs, horizon)


def gap_context(gap, m=3):
    """A context of three gaps averaging gap, whose noise rate is 1 / gap."""
    return EventSequence([gap, 0.5 * gap, 1.5 * gap], [0, 1, 2], m)


class ConstantField:
    """Duck-typed net: fixed vector field value and flat logits, with the
    model's noise."""

    draw_noise = Model.draw_noise

    def __init__(self, v, vocab_size=3, d=1):
        self.v = v
        self.calls = []
        self.config = ModelConfig(vocab_size=vocab_size, horizon=4, d=d)

    def project_contexts(self, contexts):
        return np.zeros((len(contexts), 1))

    def logits(self, y):
        return np.zeros((len(y), self.config.vocab_size))

    def predict(self, x, y, t, proj_rows, marks=True):
        self.calls.append((np.asarray(x, dtype=float).copy(), float(t), marks))
        return np.full(len(x), self.v), self.logits(y)


class TwoPhaseLogits(ConstantField):
    """Peaked logits that flip between the main and midpoint evaluations.
    Logits come back even when marks=False, so a sampler that read the
    midpoint's would draw mark 0."""

    def logits(self, y):
        logits = np.zeros((len(y), self.config.vocab_size))
        logits[:, 2 if len(self.calls) % 2 == 1 else 0] = 50.0
        return logits


class EchoMarks(ConstantField):
    """Logits peaked at the current marks: a one-step redraw keeps them."""

    def logits(self, y):
        logits = np.zeros((len(y), self.config.vocab_size))
        logits[np.arange(len(y)), y] = 50.0
        return logits


class NanFrom(ConstantField):
    """A zero field that turns NaN at flow times from nan_t on."""

    def __init__(self, nan_t):
        super().__init__(0.0)
        self.nan_t = nan_t

    def predict(self, x, y, t, proj_rows, marks=True):
        v, logits = super().predict(x, y, t, proj_rows, marks)
        return (v + np.nan if t >= self.nan_t else v), logits


def ragged_windows(n, horizon=4, m=3, seed_hi=32):
    seqs = [simulate_poisson(1.0, [1.0 / m] * m, horizon + 1 + i % 7,
                             seed=[seed_hi, 2, i]) for i in range(n)]
    return make_windows(seqs, horizon)


def one_window(n, seed=0):
    """streams argument of flow_step for a single window of n rows."""
    return [(0, n, np.random.default_rng(seed))]


class TestSamplerConfig:
    def test_step_width(self):
        assert SamplerConfig(steps=4).h == 0.25
        assert SamplerConfig(steps=8).h == 0.125

    def test_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(steps=0)
        with pytest.raises(ValidationError, match="sampler.seed must be >= 0"):
            SamplerConfig(seed=-1)
        # the guards and the chunk size are constants, the noise the model's
        for key in ("eps_time", "eps_prob", "chunk_size", "rate_mode"):
            with pytest.raises(TypeError):
                SamplerConfig(**{key: 1})


class TestInitNoise:
    """Model.draw_noise, the sampler's initial noise."""

    def test_exponential_mean(self):
        net = ConstantField(0.0)
        x, _ = net.draw_noise(gap_context(0.5), 10000, np.random.default_rng(0), 1e-6)
        assert 0.485 < x.mean() < 0.515
        assert np.all(x >= 1e-6)

    def test_floor(self):
        net = ConstantField(0.0)
        x, _ = net.draw_noise(gap_context(0.5), 200, np.random.default_rng(1), 0.5)
        assert x.min() == 0.5 and np.any(x > 0.5)

    def test_context_policy_replays(self):
        # x ~ Exp(estimate_lambda) first, then y uniform over the marks,
        # whatever the context's marks
        net = ConstantField(0.0)
        context = EventSequence([0.5, 0.25, 0.75], [2, 2, 0], 3)
        x, y = net.draw_noise(context, 50, np.random.default_rng(2), 1e-6)
        replay = np.random.default_rng(2)
        np.testing.assert_array_equal(
            x, np.maximum(replay.exponential(0.5, 50), 1e-6))
        np.testing.assert_array_equal(
            y, categorical_rows(np.full((50, 3), 1 / 3), replay))

    def test_deterministic(self):
        net = ConstantField(0.0, vocab_size=2)
        context = small_windows(1, m=2)[0].context
        a = net.draw_noise(context, 50, np.random.default_rng(7), 1e-6)
        b = net.draw_noise(context, 50, np.random.default_rng(7), 1e-6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_rate(self):
        # the rate is positive by construction: a context too sparse for
        # one is drawn at the floor LAMBDA_MIN
        net = ConstantField(0.0)
        x, _ = net.draw_noise(gap_context(1e9), 20, np.random.default_rng(3), 1e-6)
        replay = np.random.default_rng(3)
        np.testing.assert_array_equal(x, replay.exponential(1.0 / LAMBDA_MIN, 20))


class TestStepTime:
    def test_zero_field_is_identity(self):
        net = ConstantField(0.0)
        x = np.array([0.5, 1.0, 2.0])
        out, _ = flow_step(net, x, np.zeros(3, dtype=int), 0.0,
                           np.zeros((3, 1)), one_window(3), SamplerConfig(steps=8))
        np.testing.assert_array_equal(out, x)

    def test_negative_field_clamps_both_stages(self):
        net = ConstantField(-10.0)
        out, _ = flow_step(net, np.array([0.1]), np.zeros(1, dtype=int), 0.0,
                           np.zeros((1, 1)), one_window(1), SamplerConfig(steps=2))
        # midpoint state 0.1 - 2.5 and final state 0.1 - 5 both project to the floor
        assert out[0] == EPS_TIME == 1e-6
        mid_x, mid_t, _ = net.calls[1]
        assert mid_x[0] == EPS_TIME and mid_t == 0.25

    def test_constant_field_integrates_exactly(self):
        net = ConstantField(0.8)
        cfg = SamplerConfig(steps=8)
        x = np.array([0.3, 1.7])
        y = np.zeros(2, dtype=int)
        t = 0.0
        for _ in range(cfg.steps):
            x, y = flow_step(net, x, y, t, np.zeros((2, 1)), one_window(2), cfg)
            t += cfg.h
        np.testing.assert_allclose(x, [1.1, 2.5], rtol=0, atol=1e-12)

    def test_midpoint_evaluation_times(self):
        net = ConstantField(0.0)
        flow_step(net, np.ones(1), np.zeros(1, dtype=int), 0.25,
                  np.zeros((1, 1)), one_window(1), SamplerConfig(steps=8))
        assert [t for _, t, _ in net.calls] == [0.25, 0.3125]

    def test_midpoint_evaluates_field_only(self):
        net = ConstantField(0.0)
        flow_step(net, np.ones(2), np.zeros(2, dtype=int), 0.0,
                  np.zeros((2, 1)), one_window(2), SamplerConfig(steps=4))
        assert [marks for _, _, marks in net.calls] == [True, False]


class TestMarkProbs:
    def test_flat_logits_full_step_hand_trace(self):
        # p_t = [0.5, 0.5], u = ([0.5, 0.5] - [1, 0]) / 1, one full step lands on p_t
        p = mark_probs(np.zeros((1, 2)), np.array([0]), 0.0, 1.0)
        np.testing.assert_array_equal(p, [[0.5, 0.5]])

    def test_peaked_logits_hold_mass(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        p = mark_probs(logits, np.array([0]), 0.5, 0.125)
        assert p[0, 0] >= 1.0 - 3e-5
        assert np.all(p >= 0)

    def test_last_step_reaches_current_probs(self):
        # h / (1 - t) = 1 at t = 1 - h, so the update must land on p_t itself
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 1, size=(6, 4))
        target = softmax(logits, axis=1)
        assert np.all(target > 1e-5)
        p = mark_probs(logits, rng.integers(0, 4, 6), 0.875, 0.125)
        np.testing.assert_allclose(p, target, rtol=0, atol=1e-12)

    def test_singularity_guard(self):
        logits = np.array([[1.0, -1.0, 0.5]])
        for t in (1.0, 1.0 - 1e-12):
            p = mark_probs(logits, np.array([1]), t, 0.125)
            assert np.isfinite(p).all()
            np.testing.assert_allclose(p, softmax(logits, axis=1), atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        logits = rng.normal(0, 5, size=(40, 5))
        y = rng.integers(0, 5, 40)
        p = mark_probs(logits, y, 0.25, 0.125)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(40), atol=1e-14)
        assert np.all(p > 0)


class TestCategoricalRows:
    def test_degenerate_rows(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        out = categorical_rows(probs, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0, 1, 0])

    def test_frequencies(self):
        probs = np.tile([0.2, 0.8], (20000, 1))
        out = categorical_rows(probs, np.random.default_rng(1))
        assert abs((out == 1).mean() - 0.8) < 0.01


class TestStepMark:
    def test_uses_model_logits(self):
        net = ConstantField(0.0, vocab_size=2)
        _, y = flow_step(net, np.ones(500), np.zeros(500, dtype=int), 0.0,
                         np.zeros((500, 1)), one_window(500, seed=2),
                         SamplerConfig(steps=1))
        frac = (y == 1).mean()
        assert 0.44 < frac < 0.56


class TestGenerate:
    def test_zero_field_keeps_init_noise(self):
        # with v = 0 every time step is the identity, so the returned times
        # must equal the window's Model.draw_noise on its stream, floored at
        # EPS_TIME; the redraw then continues that stream
        net = ConstantField(0.0)
        windows = small_windows(5)
        cfg = SamplerConfig(steps=1, seed=99)
        out = generate(net, windows, cfg)
        for idx, w in enumerate(windows):
            rng = np.random.default_rng([cfg.seed, 3, idx])
            x_exp, y0 = net.draw_noise(w.context, w.horizon, rng, EPS_TIME)
            p_new = mark_probs(net.logits(y0), y0, 0.0, cfg.h)
            np.testing.assert_array_equal(out[idx][0], x_exp)
            np.testing.assert_array_equal(out[idx][1], categorical_rows(p_new, rng))

    def test_marks_come_from_pre_midpoint_logits(self):
        # main evaluation peaks mark 2, midpoint evaluation peaks mark 0;
        # redraws must follow the former
        net = TwoPhaseLogits(0.0)
        windows = small_windows(5)
        out = generate(net, windows, SamplerConfig(steps=1))
        marks = np.concatenate([y for _, y in out])
        assert np.all(marks == 2)

    def test_noise_follows_model_policy(self):
        # the context's rate and uniform marks, even where every context mark
        # is 0. A zero field and echoed marks return the init noise
        net = EchoMarks(0.0)
        rng = np.random.default_rng(4)
        seqs = [EventSequence(rng.exponential(0.5 + i, 10), np.zeros(10, dtype=int), 3)
                for i in range(6)]
        windows = make_windows(seqs, 4)
        cfg = SamplerConfig(steps=1, seed=8)
        out = generate(net, windows, cfg)
        for idx, w in enumerate(windows):
            replay = np.random.default_rng([cfg.seed, 3, idx])
            scale = 1.0 / estimate_lambda(w.context)
            np.testing.assert_array_equal(
                out[idx][0], np.maximum(replay.exponential(scale, 4), EPS_TIME))
            np.testing.assert_array_equal(
                out[idx][1], categorical_rows(np.full((4, 3), 1 / 3), replay))
        assert len(np.unique(np.concatenate([y for _, y in out]))) == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_tape_reference_loop(self, seed, monkeypatch):
        cfg_model = ModelConfig(vocab_size=3, horizon=4, d=8, vf_hidden=(16, 8),
                                head_hidden=(8,))
        model = Model(cfg_model, seed=seed)
        rng = np.random.default_rng([seed, 7])
        for t in model.store.params.values():
            t.data = t.data + rng.normal(0.0, 0.2, size=t.data.shape)
        windows = ragged_windows(9)
        monkeypatch.setattr(sampler, "CHUNK_SIZE", 4)  # 9 windows in 3 chunks
        cfg = SamplerConfig(steps=8, seed=seed)
        got = generate(model, windows, cfg)
        want = reference_generate(model, windows, cfg)
        for (x, y), (x_ref, y_ref) in zip(got, want):
            np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(y, y_ref)

    def test_leaves_no_cyclic_garbage(self):
        model = Model(ModelConfig(vocab_size=3, horizon=4, d=8,
                                  vf_hidden=(8,), head_hidden=(8,)), seed=0)
        windows = ragged_windows(5)
        generate(model, windows, SamplerConfig(steps=4))
        gc.collect()
        generate(model, windows, SamplerConfig(steps=4))
        assert gc.collect() == 0

    def test_shapes_and_ranges(self):
        model = Model(ModelConfig(vocab_size=3, horizon=4, d=8,
                                  vf_hidden=(8,), head_hidden=(8,)), seed=0)
        windows = small_windows(7)
        cfg = SamplerConfig(steps=4, seed=5)
        out = generate(model, windows, cfg)
        assert len(out) == 7
        for (x, y), w in zip(out, windows):
            assert x.shape == (w.horizon,) and y.shape == (w.horizon,)
            assert np.all(x >= EPS_TIME)
            assert np.all((y >= 0) & (y < 3))

    def test_deterministic(self):
        model = Model(ModelConfig(vocab_size=3, horizon=4, d=8,
                                  vf_hidden=(8,), head_hidden=(8,)), seed=1)
        windows = small_windows(6)
        cfg = SamplerConfig(steps=4, seed=3)
        a = generate(model, windows, cfg)
        b = generate(model, windows, cfg)
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_chunking_does_not_change_output(self, monkeypatch):
        model = Model(ModelConfig(vocab_size=3, horizon=4, d=8,
                                  vf_hidden=(8,), head_hidden=(8,)), seed=2)
        windows = small_windows(8)
        cfg = SamplerConfig(steps=4, seed=6)
        a = generate(model, windows, cfg)
        monkeypatch.setattr(sampler, "CHUNK_SIZE", 3)
        b = generate(model, windows, cfg)
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_allclose(xa, xb, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(ya, yb)

    def test_invariant_counters(self):
        before = dict(INVARIANT_COUNTS)
        net = ConstantField(0.0)
        generate(net, small_windows(4), SamplerConfig(steps=4))
        assert INVARIANT_COUNTS["checks"] == before["checks"] + 3 * 4
        assert INVARIANT_COUNTS["violations"] == before["violations"]

    # steps of 0.25: 0.375 is the second step's midpoint, 0.5 the third step
    @pytest.mark.parametrize("nan_t", [0.0, 0.375, 0.5])
    def test_nonfinite_field_names_flow_time(self, nan_t):
        with pytest.raises(NumericalError,
                           match=f"non-finite vector field at flow time t={nan_t:.6f}"):
            generate(NanFrom(nan_t), small_windows(3), SamplerConfig(steps=4))

    def test_vocab_mismatch_rejected(self):
        net = ConstantField(0.0, vocab_size=5)
        with pytest.raises(ValidationError, match="vocab"):
            generate(net, small_windows(2), SamplerConfig())

    def test_empty_windows(self):
        net = ConstantField(0.0)
        assert generate(net, [], SamplerConfig()) == []

    def test_predictions_to_sequences(self):
        samples = [(np.array([0.5, 1.0]), np.array([0, 2]))]
        seqs = predictions_to_sequences(samples, 3)
        assert len(seqs) == 1
        assert seqs[0].vocab_size == 3
        np.testing.assert_array_equal(seqs[0].inter_times, [0.5, 1.0])
