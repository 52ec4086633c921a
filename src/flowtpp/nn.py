"""Minimal reverse-mode autodiff core: tensors, layers, Adam, checkpoints.

Everything is float64 numpy; checkpoints store it bit-exact, as base64 of
little-endian bytes in C order. Gradients are computed over an explicit tape
(the object graph of Tensor parents) with no graph optimization. NaN/Inf is
a checked failure: `backward` refuses a non-finite loss, and `adam_step`
refuses non-finite gradients or updates, so numerical blowups surface as
NumericalError instead of propagating silently.

Tensor keeps the ops that mlp_forward and gru_step build on, plus sum,
square and take_rows, which perfbench/selftest.py and the acceptance
gradient check call. Training puts two nodes with hand-written backward
passes on the tape (Model.encode_contexts and Model.loss_total); the
generic-tape model they are checked against is tests/tape.py.
"""

from __future__ import annotations

import base64
import json
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError, parse_json, read_text

CHECKPOINT_VERSION = 3

# Adam's moment decay rates and the denominator guard
BETA1, BETA2, EPS_OPT = 0.9, 0.999, 1e-8


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast so it matches `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node in the autodiff tape: float64 data, optional grad, parent links."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, grad: np.ndarray):
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ---- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward():
            self._accum(out.grad)
            other._accum(out.grad)

        out._backward = backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))

        def backward():
            self._accum(-out.grad)

        out._backward = backward if out.requires_grad else None
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward():
            self._accum(out.grad * other.data)
            other._accum(out.grad * self.data)

        out._backward = backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def backward():
            self._accum(out.grad @ other.data.T)
            other._accum(self.data.T @ out.grad)

        out._backward = backward if out.requires_grad else None
        return out

    # ---- nonlinearities ---------------------------------------------------

    def tanh(self):
        val = np.tanh(self.data)
        out = Tensor(val, parents=(self,))

        def backward():
            self._accum(out.grad * (1.0 - val * val))

        out._backward = backward if out.requires_grad else None
        return out

    def sigmoid(self):
        val = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(val, parents=(self,))

        def backward():
            self._accum(out.grad * val * (1.0 - val))

        out._backward = backward if out.requires_grad else None
        return out

    def square(self):
        out = Tensor(self.data * self.data, parents=(self,))

        def backward():
            self._accum(out.grad * 2.0 * self.data)

        out._backward = backward if out.requires_grad else None
        return out

    # ---- reductions / reshaping ------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def take_rows(self, idx: np.ndarray):
        """Row gather (embedding lookup); backward scatter-adds."""
        idx = np.asarray(idx, dtype=np.int64)
        out = Tensor(self.data[idx], parents=(self,))

        def backward():
            acc = np.zeros_like(self.data)
            np.add.at(acc, idx, out.grad)
            self._accum(acc)

        out._backward = backward if out.requires_grad else None
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy softmax for inference paths (no tape)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _toposort(root: Tensor):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss; grads accumulate on leaves.

    The sweep consumes the tape: afterwards the visited nodes keep their
    data and grads but no longer link to parents, so a second backward from
    the same loss reaches only the loss itself.
    """
    if loss.data.size != 1:
        raise ValidationError(f"backward needs a scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericalError("non-finite loss; aborting backward")
    loss.grad = np.ones_like(loss.data)
    order = _toposort(loss)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    # every closure holds its own output tensor (out._backward -> out); cut
    # those cycles so the tape is freed by reference counting, not by the GC
    for node in order:
        node._backward = None
        node._parents = ()


class ParamStore:
    """Named parameter tensors plus per-parameter Adam state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, path: str, data) -> Tensor:
        if path in self.params:
            raise ValidationError(f"duplicate parameter path {path!r}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self.params[path] = t
        self.moment1[path] = np.zeros_like(t.data)
        self.moment2[path] = np.zeros_like(t.data)
        return t

    def __getitem__(self, path: str) -> Tensor:
        try:
            return self.params[path]
        except KeyError:
            raise ValidationError(f"unknown parameter path {path!r}") from None

    def zero_grads(self):
        for t in self.params.values():
            t.grad = None

    def state_dict(self) -> dict:
        return {path: {"shape": list(t.data.shape), "data": base64.b64encode(
                    np.ascontiguousarray(t.data, "<f8").tobytes()).decode()}
                for path, t in sorted(self.params.items())}

    def load_state(self, state: dict):
        missing = sorted(set(self.params) - set(state))
        extra = sorted(set(state) - set(self.params))
        if missing or extra:
            raise ValidationError(
                f"parameter mismatch: missing {missing}, unexpected {extra}")
        for path, t in self.params.items():
            values = _checked_entry(path, state[path])
            if values.shape != t.data.shape:
                raise ValidationError(f"shape mismatch for {path!r}: checkpoint "
                                      f"{values.shape}, model {t.data.shape}")
            t.data = values


def _checked_entry(path: str, entry) -> np.ndarray:
    """The values of one state entry, as a writable float64 copy: an object
    with a list of non-negative integers "shape" and a str "data", the base64
    of finite little-endian float64 values filling shape in C order."""
    entry = entry if isinstance(entry, dict) else {}
    shape, data = entry.get("shape"), entry.get("data")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValidationError(
            f"parameter {path!r}: shape must be a list of non-negative integers")
    try:  # TypeError: data is not a str; ValueError: not base64 filling shape
        values = np.frombuffer(base64.b64decode(data, validate=True), "<f8").reshape(shape)
    except (TypeError, ValueError):
        values = None
    if values is None or not np.isfinite(values).all():
        raise ValidationError(f"parameter {path!r}: data must be base64 of finite "
                              f"little-endian float64s filling shape {shape}")
    return values.astype(np.float64)


def mlp_forward(params: ParamStore, input, layer_sizes,
                prefix: str = "mlp") -> Tensor:
    """Affine+tanh stack; the final layer is linear.

    Expects parameters at `{prefix}.{i}.W` / `{prefix}.{i}.b` with shapes
    (layer_sizes[i], layer_sizes[i+1]) and (layer_sizes[i+1],).
    """
    h = as_tensor(input)
    n_layers = len(layer_sizes) - 1
    for i in range(n_layers):
        w = params[f"{prefix}.{i}.W"]
        b = params[f"{prefix}.{i}.b"]
        if h.data.shape[-1] != w.data.shape[0]:
            raise ValidationError(
                f"layer {prefix}.{i}: input dim {h.data.shape[-1]} "
                f"!= weight rows {w.data.shape[0]}"
            )
        h = h @ w + b
        if i < n_layers - 1:
            h = h.tanh()
    return h


def gru_step(params: ParamStore, input, hidden, prefix: str = "gru") -> Tensor:
    """One gated-recurrent update: gates z/r, candidate n, convex blend.

    With all-zero parameters and h=0 the gates sit at 0.5 and the candidate
    at tanh(0)=0, so the new hidden state is exactly 0.
    """
    x = as_tensor(input)
    h = as_tensor(hidden)
    wz, uz, bz = params[f"{prefix}.Wz"], params[f"{prefix}.Uz"], params[f"{prefix}.bz"]
    if x.data.shape[-1] != wz.data.shape[0] or h.data.shape[-1] != uz.data.shape[0]:
        raise ValidationError(
            f"gru {prefix}: input dim {x.data.shape[-1]} / hidden dim "
            f"{h.data.shape[-1]} do not match weights "
            f"({wz.data.shape[0]}, {uz.data.shape[0]})"
        )
    z = (x @ wz + h @ uz + bz).sigmoid()
    r = (x @ params[f"{prefix}.Wr"] + h @ params[f"{prefix}.Ur"]
         + params[f"{prefix}.br"]).sigmoid()
    n = (x @ params[f"{prefix}.Wh"] + (r * h) @ params[f"{prefix}.Uh"]
         + params[f"{prefix}.bh"]).tanh()
    one = Tensor(1.0)
    return (one - z) * h + z * n


def adam_step(store: ParamStore, lr: float):
    """Bias-corrected Adam update in place; grads are zeroed afterwards."""
    for path, t in store.params.items():
        if t.grad is None:
            raise ValidationError(f"missing gradient for parameter {path!r}")
        if not np.isfinite(t.grad).all():
            raise NumericalError(f"non-finite gradient for parameter {path!r}")
    store.step_count += 1
    t_step = store.step_count
    for path, tensor in store.params.items():
        g = tensor.grad
        m = store.moment1[path]
        v = store.moment2[path]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t_step)
        v_hat = v / (1.0 - BETA2 ** t_step)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + EPS_OPT)
        if not np.isfinite(tensor.data).all():
            raise NumericalError(f"non-finite value in parameter {path!r} after update")
    store.zero_grads()


def save_checkpoint(path, config: dict, store: ParamStore):
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": config,
        "params": store.state_dict(),
    }
    # one dumps and one write: json.dump streams through the slower
    # pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple:
    """Returns (config dict, raw params state); shape checks happen on bind."""
    doc = parse_json(read_text(path), f"checkpoint {path}")
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValidationError(f"checkpoint {path}: unsupported version {version!r}; "
                              f"retrain to write version {CHECKPOINT_VERSION}")
    if not all(isinstance(doc.get(key), dict) for key in ("config", "params")):
        raise ValidationError(f"checkpoint {path}: missing config object or params")
    return doc["config"], doc["params"]
