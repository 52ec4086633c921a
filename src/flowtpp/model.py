"""Joint continuous/discrete flow model over marked event sequences.

A GRU encodes the observed context into h_c. Conditioned on h_c, a vector
field predicts the time-derivative of inter-event times along a linear
noise-to-data path, and a classifier head denoises corrupted marks. Both are
trained jointly: squared error on the derivative plus alpha * cross-entropy
on the clean mark.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import Config, NumericalError, ValidationError, check_memory
from .events import EventSequence, ForecastWindow
from .synthgen import _TINY_DT, categorical_rows

log = logging.getLogger(__name__)

# floor of the context rate estimate_lambda returns
LAMBDA_MIN = 1e-6

# parameters of the context encoder, the parents of encode_contexts' node
ENCODER_PARAMS = tuple(f"enc.{w}{g}" for g in "zrh" for w in "WUb")


@functools.cache
def _frequencies(half: int) -> np.ndarray:
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    freqs.flags.writeable = False  # one table, shared by every call
    return freqs


def sinusoidal_features(t, dim: int) -> np.ndarray:
    """Fixed sin/cos features of flow time t with log-spaced frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    angles = t[:, None] * _frequencies(dim // 2)[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@functools.lru_cache(maxsize=64)  # both flow times of each step, up to 32 steps
def _scalar_features(t: float, dim: int) -> np.ndarray:
    """sinusoidal_features of one flow time t, kept read-only for reuse; past
    32 sampler steps every lookup misses and phi is computed afresh."""
    row = sinusoidal_features(t, dim)
    row.flags.writeable = False
    return row


@dataclass(frozen=True)
class ModelConfig(Config, section="model"):
    vocab_size: int
    horizon: int = 20
    d: int = 64
    t_embed_dim: int = 16
    vf_hidden: tuple[int, ...] = (128, 128)
    head_hidden: tuple[int, ...] = (128, 128)
    alpha: float = 1.0

    def validate(self):
        for key in ("vocab_size", "horizon", "d", "t_embed_dim"):
            self.require(getattr(self, key) >= 1, key, ">= 1")
        for key in ("vf_hidden", "head_hidden"):
            self.require(all(v >= 1 for v in getattr(self, key)), key,
                         "all >= 1")
        self.require(self.t_embed_dim % 2 == 0, "t_embed_dim", "even (sin/cos pairs)")
        self.require(self.alpha >= 0, "alpha", ">= 0")

    @property
    def input_dim(self) -> int:
        return 1 + self.vocab_size + self.t_embed_dim + self.d


@dataclass
class FlowSample:
    """A batch of flow-path draws; all fields are parallel arrays of length n."""

    t: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    x_t: np.ndarray
    y1: np.ndarray
    y_t: np.ndarray
    window_idx: np.ndarray

    def __len__(self):
        return self.t.shape[0]


def interpolate_time(x0, x1, t):
    """Linear path value (1-t)*x0 + t*x1; endpoints are hit exactly."""
    return (1.0 - t) * np.asarray(x0, dtype=np.float64) + t * np.asarray(
        x1, dtype=np.float64
    )


def corrupt_mark(y1, t, y0, u) -> np.ndarray:
    """Mixture draw: keep the clean mark y1 where the uniform u < t (so with
    probability t), else the noise mark y0."""
    return np.where(u < t, y1, y0)


def estimate_lambda(context: EventSequence) -> float:
    """Reciprocal of the mean context inter-event time, floored at LAMBDA_MIN."""
    if len(context) < 1:
        raise ValidationError("cannot estimate a rate from an empty context")
    return max(1.0 / float(np.mean(context.inter_times)), LAMBDA_MIN)


class Model:
    """Context encoder + vector field + mark-logit head over one ParamStore."""

    def __init__(self, config: ModelConfig, seed=0, init: bool = True):
        self.config = config
        self.store = nn.ParamStore()
        rng = np.random.default_rng([seed, 0]) if init else None
        self._build(rng)

    def _build(self, rng):
        """Every parameter, in a fixed order: weights drawn from N(0, 1/fan_in)
        by rng (zeros when rng is None), biases zero. Sizes whose values and
        two Adam moments would not fit in the machine's memory are a
        ValidationError naming them, raised before anything is allocated."""
        cfg = self.config
        layout = []

        def add_affine(prefix, sizes):
            for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
                layout.append((f"{prefix}.{i}.W", (fan_in, fan_out), fan_in))
                layout.append((f"{prefix}.{i}.b", (fan_out,), None))

        # GRU input [onehot(mark), log1p(gap)]: M mark rows of W, then the gap row
        gru_in = cfg.vocab_size + 1
        for gate in ("z", "r", "h"):
            layout.append((f"enc.W{gate}", (gru_in, cfg.d), gru_in))
            layout.append((f"enc.U{gate}", (cfg.d, cfg.d), cfg.d))
            layout.append((f"enc.b{gate}", (cfg.d,), None))
        self._vf_sizes = [cfg.input_dim, *cfg.vf_hidden, 1]
        self._head_sizes = [cfg.input_dim, *cfg.head_hidden, cfg.vocab_size]
        add_affine("vf", self._vf_sizes)
        add_affine("head", self._head_sizes)
        check_memory(3 * 8 * sum(math.prod(shape) for _, shape, _ in layout), "model",
                     ", ".join(f"model.{key}={value}" for key, value in cfg.to_dict().items()
                               if key not in ("horizon", "alpha")))
        for path, shape, fan_in in layout:
            self.store.add(path, np.zeros(shape) if rng is None or fan_in is None
                           else rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape))
        # (W, b) tensors of vf, then head, first layer first; read .data per call
        self._layers = [[(self.store[f"{net}.{i}.W"], self.store[f"{net}.{i}.b"])
                         for i in range(len(sizes) - 1)]
                        for net, sizes in (("vf", self._vf_sizes), ("head", self._head_sizes))]

    # ---- context encoding -------------------------------------------------

    def _pad_contexts(self, contexts) -> tuple:
        """Checked GRU inputs: marks and log1p gaps padded to (B, T), lengths (B,)."""
        cfg = self.config
        if not contexts:
            raise ValidationError("encode_contexts needs at least one context")
        for c in contexts:
            if c.vocab_size != cfg.vocab_size:
                raise ValidationError(
                    f"context vocab_size {c.vocab_size} != model {cfg.vocab_size}"
                )
            if len(c) < 1:
                raise ValidationError("context must contain at least one event")
        lens = np.array([len(c) for c in contexts])
        marks = np.zeros((len(contexts), int(lens.max())), dtype=np.int64)
        logdts = np.zeros(marks.shape)
        for i, c in enumerate(contexts):
            marks[i, : lens[i]] = c.marks
            logdts[i, : lens[i]] = np.log1p(c.inter_times)
        return marks, logdts, lens

    def encode_contexts(self, contexts) -> nn.Tensor:
        """Final GRU hidden states (B, d) as one tape node whose parents are
        the encoder parameters.

        The forward is encode_plain's. The backward is backpropagation
        through time over each step's live rows, then one matmul for the
        input-projection gradients of all steps.
        """
        h_c, saved = self._gru(contexts, keep=True)
        params = tuple(self.store[path] for path in ENCODER_PARAMS)
        out = nn.Tensor(h_c, parents=params)

        def backward():
            for path, grad in self._gru_backward(out.grad, saved).items():
                self.store[path]._accum(grad)

        out._backward = backward
        return out

    def encode_plain(self, contexts) -> np.ndarray:
        """encode_contexts on plain arrays, with no tape; returns (B, d)."""
        return self._gru(contexts)[0]

    def _gru(self, contexts, keep: bool = False) -> tuple:
        """GRU over each context: (h_c (B, d), saved activations or None).

        Each event enters as the features [onehot(mark), log1p(gap)]. Rows
        are visited longest context first, so step k updates only the rows
        still inside their context, and padded steps leave h bit-identical.
        The input projections of all live (step, row) cells are one matmul
        ahead of the recurrence, with the z/r/h gates side by side. With
        keep, each step's activations are saved for _gru_backward.
        """
        p = self.store
        marks, logdts, lens = self._pad_contexts(contexts)
        order = np.argsort(-lens, kind="stable")
        is_live = lens[order] > np.arange(marks.shape[1])[:, None]
        live = is_live.sum(axis=1)
        # step k owns rows cells[k]:cells[k + 1] of feats and gates
        cells = np.concatenate([[0], np.cumsum(live)])
        m = self.config.vocab_size
        feats = np.zeros((cells[-1], m + 1))
        feats[np.arange(cells[-1]), marks[order].T[is_live]] = 1.0
        feats[:, m] = logdts[order].T[is_live]
        gates = feats @ np.concatenate([p[f"enc.W{g}"].data for g in "zrh"], axis=1)
        gates += np.concatenate([p[f"enc.b{g}"].data for g in "zrh"])
        d = self.config.d
        u_zr = np.concatenate([p["enc.Uz"].data, p["enc.Ur"].data], axis=1)
        u_h = p["enc.Uh"].data
        h = np.zeros((len(lens), d))
        steps = []
        for k, n in enumerate(live):
            g, h_k = gates[cells[k] : cells[k + 1]], h[:n]
            zr = h_k @ u_zr
            zr += g[:, : 2 * d]
            zr = 1.0 / (1.0 + np.exp(-zr))
            z, r = zr[:, :d], zr[:, d:]
            rh = r * h_k
            cand = rh @ u_h
            cand += g[:, 2 * d :]
            np.tanh(cand, out=cand)
            h_new = (1.0 - z) * h_k + z * cand
            h[:n] = h_new
            if keep:
                steps.append((zr, rh, cand, h_new))
        out = np.empty_like(h)
        out[order] = h
        return out, (order, feats, cells, live, steps, u_zr) if keep else None

    def _gru_backward(self, grad, saved) -> dict:
        """Encoder parameter gradients from dL/dh_c (B, d), by path."""
        order, feats, cells, live, steps, u_zr = saved
        d = self.config.d
        u_h = self.store["enc.Uh"].data
        h_prev = np.concatenate([np.zeros((live[0], d))] + [
            steps[k - 1][3][:n] for k, n in enumerate(live) if k])
        dgates = np.empty((cells[-1], 3 * d))
        dh = grad[order]
        for k in range(len(live) - 1, -1, -1):
            n, rows = live[k], slice(cells[k], cells[k + 1])
            zr, _, cand, _ = steps[k]
            z, r = zr[:, :d], zr[:, d:]
            h_k, da, dh_new = h_prev[rows], dgates[rows], dh[:n]
            da[:, 2 * d :] = dh_new * z * (1.0 - cand * cand)
            drh = da[:, 2 * d :] @ u_h.T
            da[:, :d] = dh_new * (cand - h_k) * z * (1.0 - z)
            da[:, d : 2 * d] = drh * h_k * r * (1.0 - r)
            dh[:n] = dh_new * (1.0 - z) + drh * r + da[:, : 2 * d] @ u_zr.T
        # recurrent and input weights: one matmul each over all live cells
        du_h = np.concatenate([s[1] for s in steps]).T @ dgates[:, 2 * d :]
        du_zr = h_prev.T @ dgates[:, : 2 * d]
        dw_in = feats.T @ dgates
        db_in = dgates.sum(axis=0)
        grads = {"enc.Uz": du_zr[:, :d], "enc.Ur": du_zr[:, d:], "enc.Uh": du_h}
        for i, g in enumerate("zrh"):
            cols = slice(i * d, (i + 1) * d)
            grads[f"enc.W{g}"], grads[f"enc.b{g}"] = dw_in[:, cols], db_in[cols]
        return grads

    # ---- source distribution ------------------------------------------------

    def draw_noise(self, context: EventSequence, length: int,
                   rng: np.random.Generator, floor: float) -> tuple:
        """Source noise for length events after context: x0 ~ Exp(rate)
        with the context's rate (estimate_lambda), floored at floor, then
        y0 uniform over the marks. Training and sampling both start the flow
        here."""
        x0 = np.maximum(rng.exponential(1.0 / estimate_lambda(context), size=length),
                        floor)
        m = self.config.vocab_size
        return x0, categorical_rows(np.full((length, m), 1.0 / m), rng.random(length))

    # ---- networks: plain arrays, no tape --------------------------------------
    #
    # Both networks read concat([x, onehot(y), phi(t), h_c]), so each first
    # layer is [x, onehot(y), phi(t)]·W + (h_c·W_h + b), W the net's own rows
    # above W_h. The bracket is fixed for a window; project_contexts computes
    # it once. The loss runs the same forward, and its backward reuses the
    # input matrix and the tanh activations.

    def _context_weights(self) -> tuple:
        """(W_h, b) of both first layers side by side, vf columns first."""
        h_rows = slice(self.config.input_dim - self.config.d, None)
        firsts = [layers[0] for layers in self._layers]
        return (np.concatenate([w.data[h_rows] for w, _ in firsts], axis=1),
                np.concatenate([b.data for _, b in firsts]))

    def _project(self, h_c: np.ndarray) -> np.ndarray:
        w_h, b = self._context_weights()
        out = h_c @ w_h
        out += b
        return out

    def project_contexts(self, contexts) -> np.ndarray:
        """Context term of both first layers, biases included: (B, Hv + Hh),
        vf columns first, from a tape-free encoding."""
        return self._project(self.encode_plain(contexts))

    def predict(self, x_t, y_t, t, proj_rows, marks: bool = True) -> tuple:
        """Tape-free forward on plain arrays: (v (n,), logits (n, M)).

        proj_rows is project_contexts gathered to one row per sample; t is a
        scalar or one flow time per row. With marks=False only the vector
        field runs and logits is None.
        """
        return self._run_nets(x_t, y_t, t, proj_rows, marks)

    def _run_nets(self, x_t, y_t, t, proj_rows, marks: bool, acts=None) -> tuple:
        """predict's forward; with a list acts, the first-layer inputs
        [x, onehot(y), phi(t)] and then each net's tanh outputs, one list per
        net, are appended to it."""
        cfg = self.config
        x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
        y_t = np.atleast_1d(np.asarray(y_t, dtype=np.int64))
        if y_t.size and (y_t.min() < 0 or y_t.max() >= cfg.vocab_size):
            raise ValidationError("mark out of vocabulary in predict input")
        inputs = np.zeros((x_t.shape[0], cfg.input_dim - cfg.d))
        inputs[:, 0] = x_t
        inputs[np.arange(x_t.shape[0]), 1 + y_t] = 1.0
        inputs[:, 1 + cfg.vocab_size :] = (_scalar_features(float(t), cfg.t_embed_dim)
            if np.ndim(t) == 0 else sinusoidal_features(t, cfg.t_embed_dim))
        if acts is not None:
            acts.append(inputs)
        outs, lo = [], 0
        for (w_in, _), *rest in self._layers if marks else self._layers[:1]:
            h = inputs @ w_in.data[: inputs.shape[1]]
            h += proj_rows[:, lo : lo + h.shape[1]]
            lo += h.shape[1]
            tanh_outs = []
            for w, b in rest:
                tanh_outs.append(np.tanh(h, out=h))
                h = h @ w.data
                h += b.data
            outs.append(h)
            if acts is not None:
                acts.append(tanh_outs)
        return outs[0].ravel(), outs[1] if marks else None

    # ---- flow-path construction ---------------------------------------------

    def build_flow_batch(self, windows, rng: np.random.Generator) -> FlowSample:
        """Independent-coupling draws: every target event gets its own
        (t, x0, y_t); endpoints x1/y1 come from the window targets."""
        draws = []
        for w in windows:
            t = rng.random(w.horizon)
            x0, y0 = self.draw_noise(w.context, w.horizon, rng, _TINY_DT)
            draws.append((t, x0, y0, rng.random(w.horizon)))
        t, x0, y0, keep_u = map(np.concatenate, zip(*draws))
        x1 = np.concatenate([w.target.inter_times for w in windows])
        y1 = np.concatenate([w.target.marks for w in windows])
        horizons = [w.horizon for w in windows]
        return FlowSample(
            t=t, x0=x0, x1=x1, x_t=interpolate_time(x0, x1, t),
            y1=y1, y_t=corrupt_mark(y1, t, y0, keep_u),
            window_idx=np.repeat(np.arange(len(windows), dtype=np.int64), horizons),
        )

    # ---- loss --------------------------------------------------------------

    def loss_total(self, batch: FlowSample, h_c: nn.Tensor) -> tuple:
        """Joint objective; returns (total Tensor, loss_time, loss_mark floats).

        total = mean squared error of the field against x1 - x0, plus
        config.alpha times the mean cross-entropy of the logits against the
        clean marks. It is one tape node whose parents are h_c and the vf/head
        parameters. The forward is predict's, with the context term
        h_c·W_h + b computed once per window; the backward reuses its input
        matrix and tanh activations.
        """
        if len(batch) == 0:
            raise ValidationError("empty flow batch")
        n, alpha = len(batch), self.config.alpha
        acts = []
        v, logits = self._run_nets(batch.x_t, batch.y_t, batch.t,
                                   self._project(h_c.data)[batch.window_idx],
                                   True, acts)
        inputs, *acts = acts
        resid = v - (batch.x1 - batch.x0)
        l_time = (resid * resid).sum() / n
        shift = logits - logits.max(axis=1, keepdims=True)
        exp_shift = np.exp(shift)
        sum_exp = exp_shift.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        l_mark = -(shift[rows, batch.y1] - np.log(sum_exp[:, 0])).sum() / n
        params = tuple(p for layers in self._layers for pair in layers for p in pair)
        out = nn.Tensor(l_time + alpha * l_mark, parents=(h_c, *params))

        def backward():
            g = float(out.grad)
            d_logits = exp_shift / sum_exp
            d_logits[rows, batch.y1] -= 1.0
            d_logits *= alpha * g / n
            d_outs = [(2.0 * g / n) * resid[:, None], d_logits]
            d_first = []
            for layers, d, net_acts in zip(self._layers, d_outs, acts):
                for (w, b), a_in in zip(layers[:0:-1], net_acts[::-1]):
                    w._accum(a_in.T @ d)
                    b._accum(d.sum(axis=0))
                    d = d @ w.data.T
                    d *= 1.0 - a_in * a_in
                d_first.append(d)
            d_a = np.concatenate(d_first, axis=1)
            # the scatter to windows is a one-hot matmul
            to_window = batch.window_idx == np.arange(h_c.shape[0])[:, None]
            d_proj = to_window.astype(np.float64) @ d_a
            d_w = np.concatenate([inputs.T @ d_a, h_c.data.T @ d_proj])
            d_b = d_a.sum(axis=0)
            lo = 0
            for (w, b), *_ in self._layers:
                w._accum(d_w[:, lo : lo + b.shape[0]])
                b._accum(d_b[lo : lo + b.shape[0]])
                lo += b.shape[0]
            if h_c.requires_grad:
                h_c._accum(d_proj @ self._context_weights()[0].T)

        out._backward = backward
        return out, float(l_time), float(l_mark)

    # ---- persistence -----------------------------------------------------------

    def save_checkpoint(self, path, extra_config: dict | None = None):
        nn.save_checkpoint(path, {"model": self.config.to_dict(), **(extra_config or {})},
                           self.store)

    @classmethod
    def from_checkpoint(cls, path) -> "Model":
        """The model save_checkpoint wrote to path; unknown "model" keys fail."""
        cfg_doc, state = nn.load_checkpoint(path)
        model = cls(ModelConfig.from_dict(cfg_doc.get("model")), init=False)
        model.store.load_state(state)
        return model


@dataclass(frozen=True)
class TrainConfig(Config, section="train"):
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def validate(self):
        self.require(self.epochs >= 0, "epochs", ">= 0")
        self.require(self.batch_size >= 1, "batch_size", ">= 1")
        self.require(self.lr > 0, "lr", "> 0")


def train(model: Model, windows, cfg: TrainConfig) -> list:
    """Minibatch Adam training; returns one trace row per epoch.

    Deterministic given cfg.seed: shuffling and all flow-path draws come from
    one derived stream, and batches are visited in a fixed order. A non-finite
    loss or gradient aborts with epoch/batch diagnostics.
    """
    if not windows:
        raise ValidationError("training needs at least one window")
    for w in windows:
        if not isinstance(w, ForecastWindow):
            raise ValidationError("training data must be forecast windows")
    rng = np.random.default_rng([cfg.seed, 1])
    trace = []
    n = len(windows)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)
        count = 0
        for start in range(0, n, cfg.batch_size):
            batch_windows = [windows[i] for i in order[start : start + cfg.batch_size]]
            try:
                h_c = model.encode_contexts([w.context for w in batch_windows])
                batch = model.build_flow_batch(batch_windows, rng)
                total, l_time, l_mark = model.loss_total(batch, h_c)
                nn.backward(total)
                nn.adam_step(model.store, cfg.lr)
            except NumericalError as exc:
                norms = {
                    path: float(np.linalg.norm(t.data))
                    for path, t in sorted(model.store.params.items())
                }
                worst = max(norms, key=norms.get)
                raise NumericalError(
                    f"training aborted at epoch {epoch}, batch {start // cfg.batch_size}: "
                    f"{exc} (largest parameter norm {norms[worst]:.3e} at {worst!r})"
                ) from exc
            k = len(batch)
            sums += k * np.array([float(total.data), l_time, l_mark])
            count += k
        row = {
            "epoch": epoch,
            "loss_total": float(sums[0] / count),
            "loss_time": float(sums[1] / count),
            "loss_mark": float(sums[2] / count),
        }
        trace.append(row)
        log.info(
            "epoch %d: loss_total=%.6f loss_time=%.6f loss_mark=%.6f",
            epoch, row["loss_total"], row["loss_time"], row["loss_mark"],
        )
    return trace
