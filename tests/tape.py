"""The model written out on the generic autodiff tape: the reference that
the tests check the package's fused paths against.

The package runs one forward pass, Model.predict (shared with loss_total),
and two tape nodes with hand-written backward passes. Here the same model
is built from generic tape ops instead: concat, log_softmax and the
element-wise ops below, nn.mlp_forward and nn.gru_step. Every op's
gradient is checked against finite differences in test_nn.py.
"""

import numpy as np

from flowtpp import nn
from flowtpp.errors import ValidationError
from flowtpp.model import sinusoidal_features
from flowtpp.sampler import EPS_TIME, mark_probs
from flowtpp.synthgen import categorical_rows

# ---- ops ------------------------------------------------------------------


def _node(value, parents, backward):
    """A tape node over parents whose backward is backward(out)."""
    out = nn.Tensor(value, parents=parents)
    out._backward = (lambda: backward(out)) if out.requires_grad else None
    return out


def exp(t: nn.Tensor) -> nn.Tensor:
    val = np.exp(t.data)
    return _node(val, (t,), lambda out: t._accum(out.grad * val))


def log(t: nn.Tensor) -> nn.Tensor:
    return _node(np.log(t.data), (t,), lambda out: t._accum(out.grad / t.data))


def mean(t: nn.Tensor, axis=None, keepdims: bool = False) -> nn.Tensor:
    n = t.data.size if axis is None else t.data.shape[axis]
    return t.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def select_columns(t: nn.Tensor, idx) -> nn.Tensor:
    """Per-row column pick: out[i] = t[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(t.data.shape[0])

    def backward(out):
        acc = np.zeros_like(t.data)
        np.add.at(acc, (rows, idx), out.grad)
        t._accum(acc)

    return _node(t.data[rows, idx], (t,), backward)


def concat(tensors, axis: int = 1) -> nn.Tensor:
    parts = [nn.as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def backward(out):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(lo, hi)
            part._accum(out.grad[tuple(sl)])

    return _node(np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), backward)


def log_softmax(t: nn.Tensor, axis: int = 1) -> nn.Tensor:
    # max-shift is a detached constant; the gradient identity is unaffected
    shift = t - nn.Tensor(t.data.max(axis=axis, keepdims=True))
    return shift - log(exp(shift).sum(axis=axis, keepdims=True))


# ---- the model --------------------------------------------------------------


def forward(model, x_t, y_t, t, h_rows) -> tuple:
    """Vector field value and mark logits at (x_t, y_t, t | h_c).

    h_rows is the per-sample context vector, already expanded to one row
    per sample; returns (v (n,1), logits (n,M)) as tape Tensors.
    """
    cfg = model.config
    x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
    y_t = np.atleast_1d(np.asarray(y_t, dtype=np.int64))
    n = x_t.shape[0]
    if np.any(y_t < 0) or np.any(y_t >= cfg.vocab_size):
        raise ValidationError("mark out of vocabulary in forward input")
    t_arr = np.full(n, t, dtype=np.float64) if np.ndim(t) == 0 else np.asarray(
        t, dtype=np.float64
    )
    onehot = np.zeros((n, cfg.vocab_size))
    onehot[np.arange(n), y_t] = 1.0
    feats = concat(
        [
            nn.Tensor(x_t[:, None]),
            nn.Tensor(onehot),
            nn.Tensor(sinusoidal_features(t_arr, cfg.t_embed_dim)),
            nn.as_tensor(h_rows),
        ],
        axis=1,
    )
    v = nn.mlp_forward(model.store, feats, model._vf_sizes, prefix="vf")
    logits = nn.mlp_forward(model.store, feats, model._head_sizes, prefix="head")
    return v, logits


def tape_encode_contexts(model, contexts):
    """Reference encoder on the generic tape: every row steps through the
    longest context on the features [onehot(mark), log1p(gap)], and a mask
    blends padded steps back to the old state."""
    cfg = model.config
    marks, logdts, lens = model._pad_contexts(contexts)
    b, maxlen = marks.shape
    active = (np.arange(maxlen)[None, :] < lens[:, None]).astype(np.float64)
    h = nn.Tensor(np.zeros((b, cfg.d)))
    one = nn.Tensor(1.0)
    for k in range(maxlen):
        feats = np.zeros((b, cfg.vocab_size + 1))
        feats[np.arange(b), marks[:, k]] = 1.0
        feats[:, -1] = logdts[:, k]
        h_new = nn.gru_step(model.store, feats, h, prefix="enc")
        m = nn.Tensor(active[:, k : k + 1])
        h = m * h_new + (one - m) * h
    return h


def tape_loss_total(model, batch, h_c, alpha):
    """Reference joint loss on the generic tape through forward."""
    v, logits = forward(model, batch.x_t, batch.y_t, batch.t,
                        h_c.take_rows(batch.window_idx))
    target = nn.Tensor((batch.x1 - batch.x0)[:, None])
    l_time = mean((v - target).square())
    l_mark = -mean(select_columns(log_softmax(logits, axis=1), batch.y1))
    total = l_time + nn.Tensor(float(alpha)) * l_mark
    return total, float(l_time.data), float(l_mark.data)


def reference_generate(model, windows, cfg):
    """The sampler written out on the tape path, one window at a time: S
    midpoint steps of forward, marks redrawn from the pre-midpoint logits,
    window i drawing from stream [seed, 3, i]."""
    h_c = model.encode_contexts([w.context for w in windows])
    out = []
    for i, w in enumerate(windows):
        rng = np.random.default_rng([cfg.seed, 3, i])
        x, y = model.draw_noise(w.context, w.horizon, rng, EPS_TIME)
        h_rows = h_c.take_rows(np.full(w.horizon, i))
        for k in range(cfg.steps):
            t = k / cfg.steps
            v0, logits = forward(model, x, y, t, h_rows)
            x_mid = np.maximum(x + 0.5 * cfg.h * v0.data.ravel(), EPS_TIME)
            v_mid, _ = forward(model, x_mid, y, t + 0.5 * cfg.h, h_rows)
            x = np.maximum(x + cfg.h * v_mid.data.ravel(), EPS_TIME)
            p_new = mark_probs(logits.data, y, t, cfg.h)
            y = categorical_rows(p_new, rng.random(w.horizon))
        out.append((x, y))
    return out
