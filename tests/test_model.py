import dataclasses
import gc
import json

import numpy as np
import pytest

from conftest import assert_gradients_match
from flowtpp import (
    EventSequence,
    Model,
    ModelConfig,
    NumericalError,
    TrainConfig,
    ValidationError,
    corrupt_mark,
    estimate_lambda,
    interpolate_time,
    make_windows,
    simulate_poisson,
    train,
)
from flowtpp import nn
from flowtpp.model import ENCODER_PARAMS, LAMBDA_MIN, FlowSample
from flowtpp.synthgen import _TINY_DT, categorical_rows
from tape import forward, tape_encode_contexts, tape_loss_total

# critical values of the chi-squared distribution at p = 0.01
CHI2_CRIT = {2: 9.210, 3: 11.345}


def tiny_config(**kw):
    base = dict(vocab_size=3, horizon=4, d=8, t_embed_dim=4, vf_hidden=(8,),
                head_hidden=(8,))
    base.update(kw)
    return ModelConfig(**base)


def poisson_windows(n, horizon=4, length=10, m=3, seed_hi=77):
    seqs = [simulate_poisson(1.0, [1.0 / m] * m, length, seed=[seed_hi, 2, i])
            for i in range(n)]
    return make_windows(seqs, horizon)


def zero_params(model):
    for t in model.store.params.values():
        t.data = np.zeros_like(t.data)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            tiny_config(alpha=-0.5)
        with pytest.raises(ValidationError):
            tiny_config(d=0)
        with pytest.raises(ValidationError):
            tiny_config(t_embed_dim=5)
        # the noise policy is fixed: context rate, uniform marks
        for key in ("rate_mode", "manual_rate", "pi0_mode", "lambda_min"):
            with pytest.raises(TypeError):
                tiny_config(**{key: 1})

    def test_dict_roundtrip(self):
        cfg = tiny_config(alpha=0.5, vf_hidden=(16, 8))
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            ModelConfig.from_dict({"vocab_size": 2, "horizon": 4, "bogus": 1})

    @pytest.mark.parametrize("key,value", [
        ("d", "abc"), ("d", 2.5), ("d", True), ("horizon", None),
        ("vf_hidden", 5), ("vf_hidden", "64"), ("head_hidden", [8, "x"]),
        ("alpha", "1"), ("lambda_min", None),  # a removed key is unknown
    ])
    def test_malformed_values_rejected(self, key, value):
        with pytest.raises(ValidationError, match=key):
            ModelConfig.from_dict({"vocab_size": 2, "horizon": 4, key: value})

    def test_sizes_accept_numpy_integers(self):
        cfg = tiny_config(d=np.int64(8), vf_hidden=[np.int32(4)])
        assert cfg.d == 8 and type(cfg.d) is int and cfg.vf_hidden == (4,)

    def test_unsupported_activation(self):
        # the networks have one activation, tanh; it is not a setting
        for value in ("tanh", "relu"):
            with pytest.raises(ValidationError, match="model.activation"):
                ModelConfig.from_dict(
                    {"vocab_size": 2, "horizon": 4, "activation": value})
        with pytest.raises(TypeError):
            nn.mlp_forward(nn.ParamStore(), np.ones((1, 3)), [3, 2],
                           activation="relu")

    def test_required_sizes(self):
        with pytest.raises(ValidationError, match="model.vocab_size is required"):
            ModelConfig.from_dict({"horizon": 4})


class TestInterpolateTime:
    def test_endpoints_and_midpoint(self):
        assert interpolate_time(2.0, 4.0, 0.0) == 2.0
        assert interpolate_time(2.0, 4.0, 1.0) == 4.0
        assert interpolate_time(2.0, 4.0, 0.5) == 3.0

    def test_endpoints_exact_on_random_draws(self, rng):
        x0 = rng.exponential(1.0, 100) + 1e-9
        x1 = rng.exponential(1.0, 100) + 1e-9
        np.testing.assert_array_equal(interpolate_time(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(interpolate_time(x0, x1, 1.0), x1)


def noisy_marks(y1, t, pi0, rng):
    """build_flow_batch's mark path: y0 ~ Cat(pi0), then corrupt_mark."""
    y1 = np.asarray(y1)
    y0 = categorical_rows(np.broadcast_to(pi0, (y1.shape[0], len(pi0))),
                          rng.random(y1.shape[0]))
    return corrupt_mark(y1, t, y0, rng.random(y1.shape[0]))


class TestCorruptMark:
    def test_t_one_keeps_clean_label(self, rng):
        y1 = rng.integers(0, 3, size=500)
        out = noisy_marks(y1, 1.0, [1 / 3] * 3, rng)
        np.testing.assert_array_equal(out, y1)

    def test_t_zero_matches_pi0_chi2(self):
        rng = np.random.default_rng(5)
        pi0 = np.array([0.2, 0.3, 0.5])
        n = 10000
        out = noisy_marks(np.zeros(n, dtype=int), 0.0, pi0, rng)
        counts = np.bincount(out, minlength=3)
        chi2 = float((((counts - n * pi0) ** 2) / (n * pi0)).sum())
        assert chi2 < CHI2_CRIT[2]

    def test_half_mixture_frequency(self):
        # P(y_t = y1) = t + (1-t) * pi0[y1] = 0.5 + 0.5/4 = 0.625
        rng = np.random.default_rng(6)
        n = 10000
        out = noisy_marks(np.full(n, 2), 0.5, [0.25] * 4, rng)
        assert abs((out == 2).mean() - 0.625) < 0.02

    def test_marginal_matches_mixture_within_3_sigma(self):
        rng = np.random.default_rng(7)
        t, n = 0.3, 10000
        pi0 = np.array([0.5, 0.3, 0.2])
        y1 = 1
        expected = (1 - t) * pi0 + t * np.eye(3)[y1]
        out = noisy_marks(np.full(n, y1), t, pi0, rng)
        freqs = np.bincount(out, minlength=3) / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freqs - expected) <= 3 * sigma)

    def test_mixes_given_noise_marks(self):
        # one uniform per row decides keep, and nothing else is drawn
        t = np.linspace(0.0, 1.0, 50)
        y1 = np.arange(50) % 3
        y0 = (y1 + 1) % 3
        rng, replay = np.random.default_rng(8), np.random.default_rng(8)
        out = corrupt_mark(y1, t, y0, rng.random(50))
        keep = replay.random(50) < t
        np.testing.assert_array_equal(out, np.where(keep, y1, y0))
        assert rng.random() == replay.random()


class TestFlowBatchNoise:
    def test_replays_draw_noise(self):
        # per window, in stream order: t, then Model.draw_noise, then keep
        model = Model(tiny_config(), seed=0)
        windows = poisson_windows(5)
        batch = model.build_flow_batch(windows, np.random.default_rng(12))
        replay = np.random.default_rng(12)
        rows = 0
        for w in windows:
            span = slice(rows, rows + w.horizon)
            rows = span.stop
            t = replay.random(w.horizon)
            x0, y0 = model.draw_noise(w.context, w.horizon, replay, _TINY_DT)
            keep = replay.random(w.horizon) < t
            np.testing.assert_array_equal(batch.t[span], t)
            np.testing.assert_array_equal(batch.x0[span], x0)
            np.testing.assert_array_equal(batch.y_t[span],
                                          np.where(keep, w.target.marks, y0))
        assert rows == len(batch)


class TestRateAndPi0:
    def test_estimate_lambda_examples(self):
        s = EventSequence(np.array([0.5, 1.5]), np.array([0, 0]), 1)
        assert estimate_lambda(s) == 1.0
        s = EventSequence(np.array([2.0]), np.array([0]), 1)
        assert estimate_lambda(s) == 0.5

    def test_estimate_lambda_floor(self):
        s = EventSequence(np.array([1e9]), np.array([0]), 1)
        assert estimate_lambda(s) == LAMBDA_MIN == 1e-6


class TestEncodeContext:
    def test_zero_params_zero_context(self):
        model = Model(tiny_config(), seed=0)
        zero_params(model)
        ctx = EventSequence(np.array([0.5, 1.0]), np.array([0, 2]), 3)
        h = model.encode_contexts([ctx])
        np.testing.assert_array_equal(h.data, np.zeros((1, 8)))

    def test_order_sensitivity(self):
        model = Model(tiny_config(), seed=1)
        a = EventSequence(np.array([0.5, 2.0]), np.array([0, 1]), 3)
        b = EventSequence(np.array([2.0, 0.5]), np.array([1, 0]), 3)
        ha = model.encode_contexts([a]).data
        hb = model.encode_contexts([b]).data
        assert not np.allclose(ha, hb)

    def test_vocab_mismatch_rejected(self):
        model = Model(tiny_config(), seed=0)
        ctx = EventSequence(np.array([1.0]), np.array([0]), 5)
        with pytest.raises(ValidationError, match="vocab"):
            model.encode_contexts([ctx])

    def test_batch_matches_single(self):
        model = Model(tiny_config(), seed=2)
        ctxs = [
            EventSequence(np.array([0.5, 1.0]), np.array([0, 1]), 3),
            EventSequence(np.array([2.0, 0.1]), np.array([2, 2]), 3),
        ]
        batched = model.encode_contexts(ctxs).data
        singles = np.vstack([model.encode_contexts([c]).data for c in ctxs])
        # BLAS sums batched and single-row matmuls in different orders
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-15)

    def test_variable_lengths_match_singles(self):
        model = Model(tiny_config(), seed=3)
        ctxs = [
            EventSequence(np.array([0.5]), np.array([0]), 3),
            EventSequence(np.array([2.0, 0.1, 0.3]), np.array([2, 1, 0]), 3),
        ]
        batched = model.encode_contexts(ctxs).data
        singles = np.vstack([model.encode_contexts([c]).data for c in ctxs])
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-15)

    def test_gradient_through_encoder(self, rng):
        model = Model(tiny_config(d=4, vf_hidden=(6,), head_hidden=(6,)), seed=4)
        ctx = EventSequence(np.array([0.5, 1.0]), np.array([0, 1]), 3)

        def loss():
            return model.encode_contexts([ctx]).square().sum()

        assert_gradients_match(loss, list(model.store.params.values()))


class TestForward:
    def test_deterministic_and_shapes(self):
        model = Model(tiny_config(), seed=5)
        ctx = EventSequence(np.array([0.5, 1.0]), np.array([0, 1]), 3)
        proj = np.repeat(model.project_contexts([ctx]), 4, axis=0)
        assert proj.shape == (4, 16)
        x = np.array([0.5, 1.0, 2.0, 0.1])
        y = np.array([0, 1, 2, 0])
        v1, l1 = model.predict(x, y, 0.3, proj)
        v2, l2 = model.predict(x, y, 0.3, proj)
        assert v1.shape == (4,) and l1.shape == (4, 3)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(l1, l2)

    def test_field_only(self):
        model = Model(tiny_config(), seed=5)
        proj = np.zeros((2, 16))
        v, logits = model.predict(np.ones(2), np.array([0, 2]), 0.5, proj,
                                  marks=False)
        assert v.shape == (2,) and logits is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 0.375, 0.9375])
    def test_scalar_time_is_per_row_time(self, m, t):
        """The sampler's scalar t and one t per row take the same path."""
        rng = np.random.default_rng([m, 5])
        model = jittered_model(ModelConfig(vocab_size=m), m)
        ctxs = random_contexts(rng, 6, m, max_len=9)
        proj = np.repeat(model.project_contexts(ctxs), 20, axis=0)
        x, y = rng.exponential(1.0, 120), rng.integers(0, m, 120)
        v, logits = model.predict(x, y, t, proj)
        v_rows, logits_rows = model.predict(x, y, np.full(120, t), proj)
        np.testing.assert_array_equal(v, v_rows)
        np.testing.assert_array_equal(logits, logits_rows)

    def test_mark_out_of_vocab_rejected(self):
        model = Model(tiny_config(), seed=5)
        with pytest.raises(ValidationError, match="vocab"):
            model.predict(np.ones(1), np.array([3]), 0.5, np.zeros((1, 16)))

    @pytest.mark.parametrize("change", ["first-layer-edit", "hidden-layer-edit",
                                        "adam-step", "load-state"])
    def test_reads_parameters_at_call_time(self, change):
        """Whatever sets the parameters, predict equals a model built fresh
        with the same values: it keeps no copy of a weight array."""
        cfg = tiny_config(vf_hidden=(8, 8), head_hidden=(8, 8))
        model = jittered_model(cfg, 4)
        rng = np.random.default_rng(8)
        x, y = rng.exponential(1.0, 12), rng.integers(0, 3, 12)
        proj = rng.normal(size=(12, 16))
        before = model.predict(x, y, 0.25, proj)
        if change == "first-layer-edit":  # row 1 of head.0.W reads mark 0
            model.store["head.0.W"].data.reshape(-1)[1 * 8 + 3] += 0.5
        elif change == "hidden-layer-edit":
            model.store["vf.1.W"].data.reshape(-1)[5] += 0.5
        elif change == "adam-step":
            for t in model.store.params.values():
                t.grad = np.full_like(t.data, 0.1)
            nn.adam_step(model.store, 1e-2)
        else:
            model.store.load_state(jittered_model(cfg, 11).store.state_dict())
        fresh = Model(cfg, init=False)
        for path, t in fresh.store.params.items():
            t.data = model.store[path].data.copy()
        after = model.predict(x, y, 0.25, proj)
        for got, want in zip(after, fresh.predict(x, y, 0.25, proj)):
            np.testing.assert_array_equal(got, want)
        assert not all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("t", [0.625, "rows"])
    def test_field_only_is_the_full_call_field(self, t):
        # each net has its own first-layer product, so the two agree bit for bit
        rng = np.random.default_rng(9)
        model = jittered_model(ModelConfig(vocab_size=3), 9)
        x, y = rng.exponential(1.0, 40), rng.integers(0, 3, 40)
        t = rng.random(40) if t == "rows" else t
        proj = rng.normal(size=(40, 256))
        v, _ = model.predict(x, y, t, proj)
        v_field, _ = model.predict(x, y, t, proj, marks=False)
        np.testing.assert_array_equal(v_field, v)


def jittered_model(cfg, seed):
    """A model whose biases are non-zero too, so every parameter block
    reaches the output."""
    model = Model(cfg, seed=seed)
    rng = np.random.default_rng([seed, 99])
    for t in model.store.params.values():
        t.data = t.data + rng.normal(0.0, 0.2, size=t.data.shape)
    return model


def random_contexts(rng, n, vocab_size, max_len):
    lens = rng.integers(1, max_len + 1, size=n)
    return [EventSequence(rng.exponential(1.0, k), rng.integers(0, vocab_size, k),
                          vocab_size) for k in lens]


PARITY_TOL = 1e-12


class TestPlainForwardParity:
    """The tape-free inference path against the tape path it replaces at
    inference: same values up to summation order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_encode_plain_matches_tape(self, seed):
        rng = np.random.default_rng([seed, 1])
        model = jittered_model(tiny_config(), seed)
        # ragged lengths exercise the padding branch of the reference
        ctxs = random_contexts(rng, 7, 3, max_len=12)
        want = tape_encode_contexts(model, ctxs).data
        got = model.encode_plain(ctxs)
        np.testing.assert_allclose(got, want, rtol=0, atol=PARITY_TOL)

    def test_padding_leaves_hidden_state_untouched(self):
        # batches of the same shape whose long contexts differ only after
        # the short one's last step: its state must not move by one bit.
        # (Against a batch of one it may: BLAS rounds by matrix shape.)
        model = jittered_model(tiny_config(), 3)
        rng = np.random.default_rng(3)

        def draw(n):
            return rng.exponential(1.0, n), rng.integers(0, 3, n)

        for _ in range(5):
            short = random_contexts(rng, 1, 3, max_len=4)[0]
            k = len(short)
            long_ = [EventSequence(*draw(n), 3) for n in k + rng.integers(1, 6, 2)]
            other = []  # long_ with every event after the k-th redrawn
            for c in long_:
                dts, marks = draw(len(c) - k)
                other.append(EventSequence(np.concatenate([c.inter_times[:k], dts]),
                                           np.concatenate([c.marks[:k], marks]), 3))
            first = model.encode_plain([long_[0], short, long_[1]])
            second = model.encode_plain([other[0], short, other[1]])
            assert not np.array_equal(first[0], second[0])
            np.testing.assert_array_equal(first[1], second[1])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("hidden", [((8,), (8,)), ((8, 6), (5,)), ((), (4,))])
    def test_predict_matches_forward(self, seed, hidden):
        rng = np.random.default_rng([seed, 2])
        model = jittered_model(tiny_config(vf_hidden=hidden[0],
                                           head_hidden=hidden[1]), seed)
        ctxs = random_contexts(rng, 5, 3, max_len=9)
        rows = rng.integers(0, 5, size=23)
        x = rng.exponential(1.0, 23)
        y = rng.integers(0, 3, 23)
        h_rows = model.encode_contexts(ctxs).take_rows(rows)
        proj_rows = model.project_contexts(ctxs)[rows]
        for t in (float(rng.random()), rng.random(23)):
            v, logits = forward(model, x, y, t, h_rows)
            v_fast, logits_fast = model.predict(x, y, t, proj_rows)
            v_field, _ = model.predict(x, y, t, proj_rows, marks=False)
            np.testing.assert_allclose(v_fast, v.data.ravel(), rtol=0, atol=PARITY_TOL)
            np.testing.assert_allclose(v_field, v.data.ravel(), rtol=0, atol=PARITY_TOL)
            np.testing.assert_allclose(logits_fast, logits.data, rtol=0,
                                       atol=PARITY_TOL)


def frozen_batch(model, windows, seed=0):
    rng = np.random.default_rng(seed)
    return model.build_flow_batch(windows, rng)


def ragged_windows(rng, n, horizon=4, m=3):
    seqs = [simulate_poisson(1.0, [1.0 / m] * m, int(k), seed=[88, 2, i])
            for i, k in enumerate(rng.integers(horizon + 1, horizon + 12, size=n))]
    return make_windows(seqs, horizon)


def permuted(batch, rng):
    perm = rng.permutation(len(batch))
    return FlowSample(**{f: getattr(batch, f)[perm] for f in batch.__dataclass_fields__})


def param_grads(model, loss_fn):
    """(loss_fn's outputs, {path: gradient}) after one backward sweep."""
    model.store.zero_grads()
    out = loss_fn()
    nn.backward(out[0])
    return out, {path: t.grad for path, t in model.store.params.items()}


HIDDEN_SHAPES = [((8,), (8,)), ((8, 6), (5,)), ((), (4,)), ((5,), ())]


class TestTrainingNodeParity:
    """encode_contexts and loss_total, each one tape node with a hand-written
    backward, against the generic tape they replace in training."""

    @pytest.mark.parametrize("seed", range(4))
    def test_encode_contexts_is_encode_plain(self, seed):
        rng = np.random.default_rng([seed, 3])
        model = jittered_model(tiny_config(), seed)
        ctxs = random_contexts(rng, 9, 3, max_len=15)
        np.testing.assert_array_equal(model.encode_contexts(ctxs).data,
                                      model.encode_plain(ctxs))

    @pytest.mark.parametrize("seed", range(4))
    def test_encoder_gradients_match_tape(self, seed):
        rng = np.random.default_rng([seed, 4])
        model = jittered_model(tiny_config(), seed)
        ctxs = random_contexts(rng, 9, 3, max_len=15)
        weights = nn.Tensor(rng.normal(0.0, 1.0, (9, 8)))
        (got,), g_got = param_grads(
            model, lambda: ((model.encode_contexts(ctxs) * weights).sum(),))
        (want,), g_want = param_grads(
            model, lambda: ((tape_encode_contexts(model, ctxs) * weights).sum(),))
        assert abs(float(got.data) - float(want.data)) <= PARITY_TOL
        for path in ENCODER_PARAMS:
            np.testing.assert_allclose(g_got[path], g_want[path],
                                       rtol=PARITY_TOL, atol=PARITY_TOL, err_msg=path)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_loss_and_gradients_match_tape(self, seed, hidden, alpha):
        rng = np.random.default_rng([seed, 5])
        model = jittered_model(tiny_config(vf_hidden=hidden[0],
                                           head_hidden=hidden[1], alpha=alpha), seed)
        windows = ragged_windows(rng, 6)
        ctxs = [w.context for w in windows]
        batch = permuted(frozen_batch(model, windows, seed), rng)
        got, g_got = param_grads(
            model, lambda: model.loss_total(batch, model.encode_contexts(ctxs)))
        want, g_want = param_grads(
            model, lambda: tape_loss_total(model, batch,
                                           tape_encode_contexts(model, ctxs), alpha))
        np.testing.assert_allclose(
            [float(got[0].data), got[1], got[2]],
            [float(want[0].data), want[1], want[2]], rtol=PARITY_TOL, atol=0)
        assert set(g_got) == set(g_want)
        for path in g_want:
            np.testing.assert_allclose(g_got[path], g_want[path],
                                       rtol=PARITY_TOL, atol=PARITY_TOL, err_msg=path)

    @pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_context_gradient_matches_tape(self, hidden, alpha):
        rng = np.random.default_rng(6)
        model = jittered_model(tiny_config(vf_hidden=hidden[0],
                                           head_hidden=hidden[1], alpha=alpha), 6)
        windows = ragged_windows(rng, 5)
        batch = permuted(frozen_batch(model, windows), rng)
        h_data = rng.normal(0.0, 1.0, (5, 8))
        grads = []
        for loss in (model.loss_total, lambda *a: tape_loss_total(model, *a, alpha)):
            h_c = nn.Tensor(h_data, requires_grad=True)
            nn.backward(loss(batch, h_c)[0])
            grads.append(h_c.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=PARITY_TOL,
                                   atol=PARITY_TOL)

    def test_two_nodes_per_batch(self):
        model = Model(tiny_config(), seed=0)
        windows = poisson_windows(3)
        h_c = model.encode_contexts([w.context for w in windows])
        total, _, _ = model.loss_total(frozen_batch(model, windows), h_c)
        assert total._parents[0] is h_c
        head = {p for p in model.store.params if p.split(".")[0] in ("vf", "head")}
        assert {id(model.store[p]) for p in head} == {id(t) for t in total._parents[1:]}
        assert [id(t) for t in h_c._parents] == [
            id(model.store[p]) for p in ENCODER_PARAMS]


class TestLosses:
    def setup_method(self):
        self.model = Model(tiny_config(), seed=6)
        self.windows = poisson_windows(3)

    def test_flow_batch_consistency(self):
        batch = frozen_batch(self.model, self.windows)
        np.testing.assert_array_equal(
            batch.x_t, (1 - batch.t) * batch.x0 + batch.t * batch.x1
        )
        assert np.all((batch.t >= 0) & (batch.t < 1))
        assert np.all(batch.x0 > 0) and np.all(batch.x1 > 0)
        expected_idx = np.repeat(np.arange(len(self.windows)),
                                 [w.horizon for w in self.windows])
        np.testing.assert_array_equal(batch.window_idx, expected_idx)

    def test_stub_zero_field_squared_target(self):
        # all params zero => v identically 0; single sample x0=1, x1=3
        model = Model(tiny_config(), seed=0)
        zero_params(model)
        w = self.windows[0]
        batch = FlowSample(
            t=np.array([0.5]), x0=np.array([1.0]), x1=np.array([3.0]),
            x_t=np.array([2.0]), y1=np.array([1]),
            y_t=np.array([1]), window_idx=np.array([0]),
        )
        h_c = model.encode_contexts([w.context])
        assert model.loss_total(batch, h_c)[1] == 4.0

    def test_stub_exact_field_zero_loss(self):
        # constant bias c == x1 - x0 on a single sample => loss 0
        model = Model(tiny_config(), seed=0)
        zero_params(model)
        model.store["vf.1.b"].data = np.array([2.0])
        w = self.windows[0]
        batch = FlowSample(
            t=np.array([0.25]), x0=np.array([1.0]), x1=np.array([3.0]),
            x_t=np.array([1.5]), y1=np.array([1]),
            y_t=np.array([0]), window_idx=np.array([0]),
        )
        h_c = model.encode_contexts([w.context])
        assert model.loss_total(batch, h_c)[1] == 0.0

    def test_uniform_logits_ce_is_log_m(self):
        model = Model(tiny_config(vocab_size=4), seed=0)
        zero_params(model)
        windows = poisson_windows(2, m=4)
        batch = frozen_batch(model, windows)
        h_c = model.encode_contexts([w.context for w in windows])
        assert abs(model.loss_total(batch, h_c)[2] - np.log(4.0)) < 1e-12

    def test_saturated_logits_ce_near_zero(self):
        model = Model(tiny_config(), seed=0)
        zero_params(model)
        w = self.windows[0]
        batch = FlowSample(
            t=np.array([0.5]), x0=np.array([1.0]), x1=np.array([1.0]),
            x_t=np.array([1.0]), y1=np.array([2]),
            y_t=np.array([0]), window_idx=np.array([0]),
        )
        bias = np.zeros(3)
        bias[2] = 50.0
        model.store["head.1.b"].data = bias
        h_c = model.encode_contexts([w.context])
        assert model.loss_total(batch, h_c)[2] < 1e-8

    def loss_at(self, alpha, batch, h_c):
        """loss_total with the model's config.alpha set to alpha."""
        self.model.config = dataclasses.replace(self.model.config, alpha=alpha)
        return self.model.loss_total(batch, h_c)

    def test_total_is_time_plus_alpha_mark(self):
        batch = frozen_batch(self.model, self.windows)
        h_c = self.model.encode_contexts([w.context for w in self.windows])
        total, lt, lm = self.loss_at(1.0, batch, h_c)
        assert abs(float(total.data) - (lt + lm)) < 1e-12
        total0, lt0, _ = self.loss_at(0.0, batch, h_c)
        assert float(total0.data) == lt0
        total7, lt7, lm7 = self.loss_at(0.7, batch, h_c)
        assert abs(float(total7.data) - (lt7 + 0.7 * lm7)) < 1e-12

    def test_gradient_linearity_in_alpha(self):
        batch = frozen_batch(self.model, self.windows)
        h_fn = lambda: self.model.encode_contexts([w.context for w in self.windows])

        def grads_of(loss_tensor):
            self.model.store.zero_grads()
            nn.backward(loss_tensor)
            # params untouched by a loss term keep grad None, i.e. zero
            return {p: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for p, t in self.model.store.params.items()}

        # alpha = 0 is the time loss alone; alpha = 1 adds the mark loss once
        g_time = grads_of(self.loss_at(0.0, batch, h_fn())[0])
        g_both = grads_of(self.loss_at(1.0, batch, h_fn())[0])
        g_tot = grads_of(self.loss_at(0.7, batch, h_fn())[0])
        for path in g_tot:
            g_mark = g_both[path] - g_time[path]
            np.testing.assert_allclose(
                g_tot[path], g_time[path] + 0.7 * g_mark, atol=1e-10
            )

    def test_loss_nonnegative(self):
        batch = frozen_batch(self.model, self.windows)
        h_c = self.model.encode_contexts([w.context for w in self.windows])
        total, lt, lm = self.model.loss_total(batch, h_c)
        assert lt >= 0 and lm >= 0 and float(total.data) >= 0

    def test_within_batch_permutation_invariance(self):
        batch = frozen_batch(self.model, self.windows)
        h_c = self.model.encode_contexts([w.context for w in self.windows])
        perm = np.random.default_rng(0).permutation(len(batch))
        shuffled = FlowSample(
            t=batch.t[perm], x0=batch.x0[perm], x1=batch.x1[perm],
            x_t=batch.x_t[perm], y1=batch.y1[perm],
            y_t=batch.y_t[perm], window_idx=batch.window_idx[perm],
        )
        a = float(self.model.loss_total(batch, h_c)[0].data)
        b = float(self.model.loss_total(shuffled, h_c)[0].data)
        assert abs(a - b) < 1e-12

    def test_empty_batch_rejected(self):
        empty = FlowSample(*[np.zeros(0)] * 6, window_idx=np.zeros(0, dtype=int))
        h_c = self.model.encode_contexts([self.windows[0].context])
        with pytest.raises(ValidationError):
            self.model.loss_total(empty, h_c)

    def test_full_loss_gradcheck(self):
        model = Model(
            tiny_config(d=4, t_embed_dim=2, vf_hidden=(5,), head_hidden=(5,), horizon=2),
            seed=7,
        )
        windows = poisson_windows(2, horizon=2, length=5)
        batch = frozen_batch(model, windows)

        def loss():
            h_c = model.encode_contexts([w.context for w in windows])
            return model.loss_total(batch, h_c)[0]

        assert_gradients_match(loss, list(model.store.params.values()))


class TestTrain:
    def test_deterministic_checkpoints(self):
        windows = poisson_windows(8)
        states = []
        for _ in range(2):
            model = Model(tiny_config(), seed=9)
            train(model, windows, TrainConfig(epochs=2, batch_size=4, seed=9))
            states.append(model.store.state_dict())
        assert states[0] == states[1]

    def test_trace_format_and_decrease(self):
        windows = poisson_windows(32, horizon=4, length=12)
        model = Model(tiny_config(), seed=10)
        trace = train(model, windows, TrainConfig(epochs=30, batch_size=16, seed=10))
        assert [r["epoch"] for r in trace] == list(range(30))
        assert set(trace[0]) == {"epoch", "loss_total", "loss_time", "loss_mark"}
        first = np.mean([r["loss_total"] for r in trace[:10]])
        last = np.mean([r["loss_total"] for r in trace[-10:]])
        assert last < first

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_abort_has_diagnostics(self):
        # an absurd learning rate blows the params up after the first step,
        # so the second batch overflows and the run must abort with context
        windows = poisson_windows(4)
        model = Model(tiny_config(), seed=11)
        with pytest.raises(NumericalError, match="epoch 0"):
            train(model, windows, TrainConfig(epochs=2, batch_size=2, lr=1e280, seed=11))

    def test_empty_dataset_rejected(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(ValidationError):
            train(model, [], TrainConfig(epochs=1))

    def test_leaves_no_cyclic_garbage(self):
        model = Model(tiny_config(), seed=0)
        windows = poisson_windows(6)
        cfg = TrainConfig(epochs=1, batch_size=4)
        train(model, windows, cfg)
        gc.collect()
        train(model, windows, cfg)
        assert gc.collect() == 0

    def test_zero_epochs_leaves_params(self):
        windows = poisson_windows(4)
        model = Model(tiny_config(), seed=12)
        before = model.store.state_dict()
        trace = train(model, windows, TrainConfig(epochs=0))
        assert trace == []
        assert model.store.state_dict() == before


class TestModelCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = Model(tiny_config(), seed=13)
        path = tmp_path / "m.json"
        model.save_checkpoint(path, {"seed": 13})
        back = Model.from_checkpoint(path)
        assert back.config == model.config
        ctx = EventSequence(np.array([0.5, 1.0]), np.array([0, 1]), 3)
        x = np.array([0.5, 0.7])
        y = np.array([0, 2])
        proj_a = np.repeat(model.project_contexts([ctx]), 2, axis=0)
        proj_b = np.repeat(back.project_contexts([ctx]), 2, axis=0)
        np.testing.assert_array_equal(proj_a, proj_b)
        va, la = model.predict(x, y, 0.4, proj_a)
        vb, lb = back.predict(x, y, 0.4, proj_b)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(la, lb)

    def with_activation(self, tmp_path, value):
        """A checkpoint whose model config also stores an activation, as
        version-1 checkpoints could."""
        model = Model(tiny_config(), seed=13)
        path = tmp_path / "act.json"
        model.save_checkpoint(path, {"seed": 13})
        doc = json.loads(path.read_text())
        assert doc["version"] == nn.CHECKPOINT_VERSION
        assert "activation" not in doc["config"]["model"]
        doc["config"]["model"]["activation"] = value
        path.write_text(json.dumps(doc, sort_keys=True))
        return model, path

    def test_stored_tanh_activation_rejected(self, tmp_path):
        _, path = self.with_activation(tmp_path, "tanh")
        with pytest.raises(ValidationError, match="model.activation"):
            Model.from_checkpoint(path)

    @pytest.mark.parametrize("doc,named", [
        ([1, 2], "unsupported version"),
        ({"version": nn.CHECKPOINT_VERSION, "config": [], "params": {}},
         "missing config object"),
        ({"version": nn.CHECKPOINT_VERSION, "config": {"model": "x"}, "params": {}},
         "'model' must be an object"),
        # the model section is config["model"], never the config itself
        ({"version": nn.CHECKPOINT_VERSION, "config": {"vocab_size": 3}, "params": {}},
         "'model' must be an object"),
    ])
    def test_malformed_document_rejected(self, tmp_path, doc, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=named):
            Model.from_checkpoint(path)

    def test_stored_other_activation_rejected(self, tmp_path):
        _, path = self.with_activation(tmp_path, "relu")
        with pytest.raises(ValidationError, match="model.activation"):
            Model.from_checkpoint(path)
