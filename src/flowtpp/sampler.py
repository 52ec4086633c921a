"""Non-autoregressive joint sampler for times and marks.

Times follow a second-order midpoint ODE step with a positivity projection;
marks follow a clamped simplex-velocity update with a categorical redraw per
step. All S steps are applied to the whole horizon at once; there is no
autoregression. Contexts are encoded a chunk of windows at a time, and each
chunk is integrated in cache-sized blocks of rows. Each window draws from its
own seeded stream, so serial, chunked and blocked runs draw the same numbers
and differ at most in rounding: times agree to a relative 1e-12 (README
"Determinism").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Config, NumericalError, ValidationError
from .events import EventSequence
from .model import Model
from .nn import softmax
from .synthgen import categorical_rows

# every flow_step call, one per block and step, counts its invariant checks
# here; a violation also raises NumericalError naming the invariant and the
# flow time
INVARIANT_COUNTS = {"checks": 0, "violations": 0}

_T_SINGULARITY = 1e-9
EPS_TIME = 1e-6  # floor of every sampled inter-event time
EPS_PROB = 1e-5  # floor of each mark's redraw probability before normalizing
# windows encoded together: the GRU costs per step, so it wants wide batches
CHUNK_SIZE = 256
# rows integrated together, cut across windows, so the networks' (rows, 128)
# temporaries stay in a core's L2 cache. Blocks start at multiples of 1024, a
# multiple of a BLAS kernel's row unroll, so each row meets the kernel it
# meets in one whole-chunk product. Each window draws from its own stream, so
# both sizes change at most rounding: times agree to a relative 1e-12 (README
# "Determinism")
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SamplerConfig(Config, section="sampler"):
    """Integration settings: S midpoint steps, and the seed of the
    per-window streams. The noise is Model.draw_noise's."""

    steps: int = 8
    seed: int = 0

    def validate(self):
        self.require(self.steps >= 1, "steps", ">= 1")

    @property
    def h(self) -> float:
        return 1.0 / self.steps


def _check_finite(values: np.ndarray, t: float, what: str):
    if not np.isfinite(values).all():
        raise NumericalError(f"non-finite {what} at flow time t={t:.6f}")


def mark_probs(logits: np.ndarray, y: np.ndarray, t: float, h: float) -> np.ndarray:
    """Clamped simplex-velocity update; returns the normalized redraw
    distribution per row.

    Near t=1 the velocity denominator vanishes; at and beyond the guard the
    current probability p_t is used directly (at t = 1-h the update equals
    p_t anyway, since h/(1-t) = 1).
    """
    p_t = softmax(logits, axis=1)
    if t >= 1.0 - _T_SINGULARITY:
        p_new = p_t.copy()
    else:
        onehot = np.zeros_like(p_t)
        onehot[np.arange(p_t.shape[0]), y] = 1.0
        p_new = np.maximum(onehot + h * ((p_t - onehot) / (1.0 - t)), EPS_PROB)
    return p_new / p_new.sum(axis=1, keepdims=True)


def flow_step(model, x, y, t: float, proj_rows, u,
              config: SamplerConfig) -> tuple:
    """One joint step from flow time t to t + h; returns the new (x, y).

    One full evaluation at (x, y, t) gives the field and the mark logits; a
    vector-field-only evaluation at the midpoint gives the time update,
    projected onto [EPS_TIME, inf). Marks are redrawn from the pre-midpoint
    logits, row i by the uniform u[i]. Both evaluations are Model.predict,
    which builds no tape.
    """
    h = config.h
    v0, logits = model.predict(x, y, t, proj_rows)
    _check_finite(v0, t, "vector field")
    _check_finite(logits, t, "mark logits")
    x_mid = np.maximum(x + 0.5 * h * v0, EPS_TIME)
    v_mid, _ = model.predict(x_mid, y, t + 0.5 * h, proj_rows, marks=False)
    _check_finite(v_mid, t + 0.5 * h, "vector field")
    x = np.maximum(x + h * v_mid, EPS_TIME)

    p_new = mark_probs(logits, y, t, h)
    y = categorical_rows(p_new, u)

    invariants = (("positivity violated: inter-time below EPS_TIME", (x >= EPS_TIME).all()),
                  ("simplex violated: redraw distribution not normalized",
                   (np.abs(p_new.sum(axis=1) - 1.0) < 1e-12).all() and (p_new >= 0).all()),
                  ("mark out of range after redraw", ((y >= 0) & (y < logits.shape[1])).all()))
    violated = [what for what, ok in invariants if not ok]
    INVARIANT_COUNTS["checks"] += 3
    INVARIANT_COUNTS["violations"] += len(violated)
    if violated:
        raise NumericalError(f"{'; '.join(violated)} at flow time t={t:.6f}")
    return x, y


def generate(model: Model, windows, config: SamplerConfig) -> list:
    """Sample L future (inter-time, mark) pairs for each forecast window.

    Per window w (global index i): the context term of the networks is
    projected once, a chunk of CHUNK_SIZE windows per Model.project_contexts
    call; source noise from Model.draw_noise on stream [seed, 3, i], floored
    at EPS_TIME; then S flow_steps at flow times k / S, each redrawing the
    window's marks by L uniforms from the same stream. The steps run on one
    block of BLOCK_ROWS rows of the chunk at a time.
    """
    if not windows:
        return []
    m = model.config.vocab_size
    for w in windows:
        if w.vocab_size != m:
            raise ValidationError(
                f"window vocab_size {w.vocab_size} != checkpoint {m}"
            )
    out = []
    for chunk_start in range(0, len(windows), CHUNK_SIZE):
        chunk = windows[chunk_start : chunk_start + CHUNK_SIZE]
        proj = model.project_contexts([w.context for w in chunk])
        horizons = [w.horizon for w in chunk]
        rngs = [
            np.random.default_rng([config.seed, 3, chunk_start + j])
            for j in range(len(chunk))
        ]
        xs, ys = zip(*(model.draw_noise(w.context, w.horizon, rng, EPS_TIME)
                       for w, rng in zip(chunk, rngs)))
        x, y = np.concatenate(xs), np.concatenate(ys)
        # row k holds each window's redraw uniforms of step k: one (S, L)
        # draw is the S draws of L in stream order
        u = np.concatenate([rng.random((config.steps, n)) for rng, n in zip(rngs, horizons)],
                           axis=1)
        window_of_row = np.repeat(np.arange(len(chunk)), horizons)
        for lo in range(0, len(x), BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            xb, yb, ub = x[block], y[block], u[:, block]
            proj_rows = proj[window_of_row[block]]
            for k in range(config.steps):
                xb, yb = flow_step(model, xb, yb, k / config.steps, proj_rows, ub[k], config)
            x[block], y[block] = xb, yb

        bounds = np.cumsum([0] + horizons)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out.append((x[lo:hi].copy(), y[lo:hi].copy()))
    return out


def predictions_to_sequences(samples, vocab_size: int) -> list:
    return [EventSequence(x, y, vocab_size) for x, y in samples]
