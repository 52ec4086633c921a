import base64
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import assert_gradients_match, make_gru, make_mlp
from flowtpp import NumericalError, ValidationError
from flowtpp import nn
from tape import concat, exp, log, log_softmax, mean, select_columns

N_DRAWS = 20


def leaf(rng, *shape, scale=1.0, positive=False):
    data = rng.normal(0.0, scale, size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return nn.Tensor(data, requires_grad=True)


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    def test_add_broadcast(self, rng):
        for _ in range(N_DRAWS):
            a, b = leaf(rng, 3, 4), leaf(rng, 4)
            assert_gradients_match(lambda: (a + b).sum(), [a, b])

    def test_sub_neg(self, rng):
        for _ in range(N_DRAWS):
            a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
            assert_gradients_match(lambda: (a - b).sum(), [a, b])
            assert_gradients_match(lambda: (-a).sum(), [a])

    def test_mul_broadcast(self, rng):
        for _ in range(N_DRAWS):
            a, b = leaf(rng, 3, 4), leaf(rng, 1, 4)
            assert_gradients_match(lambda: (a * b).sum(), [a, b])

    def test_matmul(self, rng):
        for _ in range(N_DRAWS):
            a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
            assert_gradients_match(lambda: (a @ b).sum(), [a, b])

    def test_tanh(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4)
            assert_gradients_match(lambda: a.tanh().sum(), [a])

    def test_sigmoid(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4)
            assert_gradients_match(lambda: a.sigmoid().sum(), [a])

    def test_exp(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4, scale=0.5)
            assert_gradients_match(lambda: exp(a).sum(), [a])

    def test_log(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4, positive=True)
            assert_gradients_match(lambda: log(a).sum(), [a])

    def test_square(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4)
            assert_gradients_match(lambda: a.square().sum(), [a])

    def test_sum_axes(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 4)
            assert_gradients_match(lambda: (a.sum(axis=0) * a.sum(axis=0)).sum(), [a])
            assert_gradients_match(
                lambda: (a.sum(axis=1, keepdims=True) * a).sum(), [a]
            )

    def test_mean(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 5, 2)
            assert_gradients_match(lambda: mean(a).square(), [a])
            assert_gradients_match(lambda: mean(a, axis=0).square().sum(), [a])

    def test_take_rows(self, rng):
        for _ in range(N_DRAWS):
            table = leaf(rng, 6, 3)
            idx = rng.integers(0, 6, size=8)  # repeats exercise scatter-add
            assert_gradients_match(lambda: table.take_rows(idx).square().sum(),
                                   [table])

    def test_select_columns(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 5, 4)
            idx = rng.integers(0, 4, size=5)
            assert_gradients_match(lambda: select_columns(a, idx).square().sum(), [a])

    def test_concat(self, rng):
        for _ in range(N_DRAWS):
            a, b = leaf(rng, 3, 2), leaf(rng, 3, 5)
            assert_gradients_match(lambda: concat([a, b], axis=1).square().sum(),
                                   [a, b])

    def test_log_softmax(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 4, 5, scale=2.0)
            idx = rng.integers(0, 5, size=4)
            assert_gradients_match(
                lambda: -mean(select_columns(log_softmax(a, axis=1), idx)), [a]
            )

    def test_reused_node_accumulates(self, rng):
        for _ in range(N_DRAWS):
            a = leaf(rng, 3, 3)
            assert_gradients_match(lambda: (a * a + a.tanh() * a).sum(), [a])


class TestMlpForward:
    def test_zero_weights_give_final_bias(self, rng):
        store = make_mlp(rng, [3, 4, 2])
        for path, t in store.params.items():
            if path.endswith(".W"):
                t.data = np.zeros_like(t.data)
        store["mlp.1.b"].data = np.array([5.0, -1.0])
        out = nn.mlp_forward(store, np.ones((6, 3)), [3, 4, 2])
        # hidden tanh(b0) contributes 0 only when b0 = 0 too
        store["mlp.0.b"].data = np.zeros(4)
        out = nn.mlp_forward(store, rng.normal(size=(6, 3)), [3, 4, 2])
        np.testing.assert_allclose(out.data, np.tile([5.0, -1.0], (6, 1)))

    def test_identity_single_layer(self):
        store = nn.ParamStore()
        store.add("mlp.0.W", np.eye(3))
        store.add("mlp.0.b", np.zeros(3))
        x = np.arange(6.0).reshape(2, 3)
        out = nn.mlp_forward(store, x, [3, 3])
        np.testing.assert_array_equal(out.data, x)

    def test_gradcheck(self, rng):
        for _ in range(N_DRAWS):
            store = make_mlp(rng, [3, 5, 2])
            x = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            leaves = [x] + list(store.params.values())
            assert_gradients_match(
                lambda: mean(nn.mlp_forward(store, x, [3, 5, 2]).square()), leaves
            )

    def test_shape_error_names_layer(self, rng):
        store = make_mlp(rng, [3, 4, 2])
        with pytest.raises(ValidationError, match="mlp.0"):
            nn.mlp_forward(store, np.ones((2, 7)), [3, 4, 2])


class TestGruStep:
    def test_zero_params_zero_hidden(self):
        store = make_gru(np.random.default_rng(0), 3, 4)
        for t in store.params.values():
            t.data = np.zeros_like(t.data)
        out = nn.gru_step(store, np.ones((2, 3)), np.zeros((2, 4)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_gradcheck_three_unrolled_steps(self, rng):
        for _ in range(N_DRAWS):
            store = make_gru(rng, 2, 3)
            xs = [nn.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
                  for _ in range(3)]

            def loss():
                h = nn.Tensor(np.zeros((2, 3)))
                for x in xs:
                    h = nn.gru_step(store, x, h)
                return h.square().sum()

            assert_gradients_match(loss, xs + list(store.params.values()))

    def test_hidden_stays_bounded(self, rng):
        store = make_gru(rng, 2, 4, scale=1.0)
        h = nn.Tensor(np.zeros((1, 4)))
        for _ in range(50):
            h = nn.gru_step(store, np.zeros((1, 2)), h)
        assert np.all(np.abs(h.data) < 1.0)

    def test_shape_error(self, rng):
        store = make_gru(rng, 3, 4)
        with pytest.raises(ValidationError, match="gru"):
            nn.gru_step(store, np.ones((2, 5)), np.zeros((2, 4)))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        store = nn.ParamStore()
        p = store.add("w", np.array([1.0, -2.0]))
        g = np.array([0.3, -0.7])
        p.grad = g.copy()
        nn.adam_step(store, lr=0.01)
        delta = p.data - np.array([1.0, -2.0])
        expected = -0.01 * np.sign(g)
        assert np.all(np.abs(delta - expected) <= 0.01 * 1e-8 / np.abs(g) + 1e-15)

    def test_zero_grad_no_move(self):
        store = nn.ParamStore()
        p = store.add("w", np.array([3.0]))
        p.grad = np.zeros(1)
        nn.adam_step(store, lr=0.5)
        assert p.data[0] == 3.0

    def test_constant_grad_steps_shrink_or_hold(self):
        store = nn.ParamStore()
        p = store.add("w", np.array([1.0]))
        g = np.array([0.4])
        p.grad = g.copy()
        nn.adam_step(store, lr=0.01)
        d1 = abs(p.data[0] - 1.0)
        before = p.data[0]
        p.grad = g.copy()
        nn.adam_step(store, lr=0.01)
        d2 = abs(p.data[0] - before)
        assert d2 <= d1 + 1e-12

    def test_missing_grad_names_parameter(self):
        store = nn.ParamStore()
        store.add("enc.Wz", np.ones(2))
        with pytest.raises(ValidationError, match="enc.Wz"):
            nn.adam_step(store, lr=0.1)

    def test_grads_zeroed_and_counter_incremented(self):
        store = nn.ParamStore()
        p = store.add("w", np.array([1.0]))
        p.grad = np.ones(1)
        nn.adam_step(store, lr=0.1)
        assert p.grad is None
        assert store.step_count == 1

    def test_nonfinite_grad_checked(self):
        store = nn.ParamStore()
        p = store.add("w", np.array([1.0]))
        p.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="w"):
            nn.adam_step(store, lr=0.1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_update_names_parameter(self):
        # the first step moves by -lr * sign(g): -1.7e308 - 1e308 overflows
        store = nn.ParamStore()
        store.add("head.0.b", np.ones(2))
        p = store.add("vf.1.W", np.array([-1.7e308]))
        store["head.0.b"].grad = np.ones(2)
        p.grad = np.ones(1)
        with pytest.raises(NumericalError, match="non-finite value in parameter "
                                                 "'vf.1.W' after update"):
            nn.adam_step(store, lr=1e308)


class TestBackward:
    def test_nonscalar_rejected(self, rng):
        a = leaf(rng, 3)
        with pytest.raises(ValidationError):
            nn.backward(a + a)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nan_loss_is_checked_failure(self):
        a = nn.Tensor(np.array([1e308]), requires_grad=True)
        loss = (a * a).sum()  # overflows to inf
        with pytest.raises(NumericalError):
            nn.backward(loss)

    def test_tape_freed_without_cyclic_gc(self, rng):
        store = make_mlp(rng, [3, 4, 2])
        hidden = nn.mlp_forward(store, rng.normal(size=(5, 3)), [3, 4])
        out = hidden.tanh() @ store["mlp.1.W"] + store["mlp.1.b"]
        loss = mean(out.square())
        probe = weakref.ref(hidden)
        del hidden
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert probe() is not None  # held by the loss's tape
            nn.backward(loss)
            del loss
            assert probe() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_forward_deterministic(self, rng):
        store = make_mlp(rng, [3, 4, 2])
        x = rng.normal(size=(5, 3))
        a = nn.mlp_forward(store, x, [3, 4, 2]).data
        b = nn.mlp_forward(store, x, [3, 4, 2]).data
        np.testing.assert_array_equal(a, b)


def b64(values) -> str:
    """A checkpoint's data field for values: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


class TestCheckpoint:
    def test_roundtrip(self, rng, tmp_path):
        store = make_mlp(rng, [3, 4, 2])
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {"layers": [3, 4, 2]}, store)
        config, state = nn.load_checkpoint(path)
        assert config == {"layers": [3, 4, 2]}
        fresh = make_mlp(np.random.default_rng(99), [3, 4, 2])
        fresh.load_state(state)
        for path_name, t in store.params.items():
            np.testing.assert_array_equal(fresh[path_name].data, t.data)

    def test_document_shape(self, rng, tmp_path):
        store = make_mlp(rng, [2, 2])
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {}, store)
        doc = json.loads(path.read_text())
        assert doc["version"] == nn.CHECKPOINT_VERSION == 3
        assert set(doc) == {"version", "config", "params"}
        entry = doc["params"]["mlp.0.W"]
        assert entry == {"shape": [2, 2], "data": b64(store["mlp.0.W"].data)}
        assert len(base64.b64decode(entry["data"])) == 4 * 8

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.booleans())
    @example(np.array([-0.0, 5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, 0.0]), False)
    @example(np.zeros((3, 0, 2)), False)
    @example(np.arange(6.0).reshape(2, 3), True)
    def test_any_finite_array_roundtrips_bit_exact(self, tmp_path_factory,
                                                  values, transpose):
        values = values.T if transpose else values
        store = nn.ParamStore()
        store.add("w", values)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        nn.save_checkpoint(path, {}, store)
        fresh = nn.ParamStore()
        fresh.add("w", np.ones(values.shape))
        fresh.load_state(nn.load_checkpoint(path)[1])
        back = fresh["w"].data
        assert back.dtype == np.float64 and back.shape == values.shape
        assert back.flags.c_contiguous and back.flags.writeable
        assert back.tobytes() == np.ascontiguousarray(values).tobytes()

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        store = make_mlp(rng, [3, 4, 2])
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {}, store)
        _, state = nn.load_checkpoint(path)
        other = make_mlp(rng, [3, 5, 2])
        with pytest.raises(ValidationError, match="shape"):
            other.load_state(state)

    def test_missing_param_rejected(self, rng, tmp_path):
        store = make_mlp(rng, [3, 2])
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {}, store)
        _, state = nn.load_checkpoint(path)
        other = make_mlp(rng, [3, 4, 2])
        with pytest.raises(ValidationError, match="mismatch"):
            other.load_state(state)

    @pytest.mark.parametrize("entry", [
        {"shape": [True, 2], "data": b64([0.0, 1.0])},
        {"shape": [-1, 2], "data": b64([0.0, 1.0])},
        {"shape": [1, 2], "data": b64([0.0, 1.0])[:12] + "!" + b64([0.0, 1.0])[12:]},
        {"shape": [1, 2], "data": b64([0.0])},
        {"shape": [1, 2], "data": b64([0.0, float("inf")])},
        ["shape", "data"],
        {"shape": [1, 2], "data": [0.0, 1.0]},
        {"shape": [1, 2], "data": b64([float("nan"), 1.0])},
        {"shape": [1, 2], "data": b64([0.0, 1.0]).rstrip("=")},
        {"shape": [1, 2], "data": "é" + b64([0.0, 1.0])[1:]},
    ])
    def test_malformed_entry_names_path(self, entry):
        # bool and negative dimensions, invalid base64, one value short, inf,
        # not an object, the version-1 list of numbers, NaN, padding cut,
        # text that is not ASCII
        store = nn.ParamStore()
        store.add("w", np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="parameter 'w'"):
            store.load_state({"w": entry})

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        # version 2 wrote the noise policy and Adam's constants in config
        for version in (1, 2, 99, None):
            path.write_text(json.dumps(
                {"version": version, "config": {}, "params": {}}))
            with pytest.raises(ValidationError,
                               match=f"unsupported version {version}.*retrain"):
                nn.load_checkpoint(path)

    def test_duplicate_path_rejected(self):
        store = nn.ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ValidationError, match="duplicate"):
            store.add("w", np.ones(1))
