"""Synthetic marked-point-process generators used as ground-truth oracles.

All randomness flows from numpy's PCG64 (``np.random.default_rng``); a fixed
seed reproduces byte-identical datasets on a pinned numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ValidationError
from .events import EventSequence

# exponential draws of exactly 0.0 are astronomically rare but would violate
# the strict-positivity invariant
_TINY_DT = 1e-300


def _validate_simplex(probs, tol=1e-9) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValidationError("mark_probs must be a 1-d simplex")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValidationError("mark_probs entries must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > tol:
        raise ValidationError(f"mark_probs must sum to 1 (got {float(p.sum())!r})")
    return p


def poisson_mark_probs(rate: float, mark_probs) -> np.ndarray:
    """The checked mark distribution of a Poisson process with this rate."""
    if not (np.isfinite(rate) and rate > 0):
        raise ValidationError(f"rate must be positive, got {rate}")
    return _validate_simplex(mark_probs)


def categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per row of an (n, M) probability matrix: row i
    is the first k with u[i] < cdf[i, k], for the uniforms u in [0, 1)."""
    cdf = np.cumsum(probs, axis=1)
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1).astype(np.int64)


@dataclass(frozen=True)
class HawkesSpec:
    """Exponential-kernel multivariate self-exciting process parameters.

    ``excite[k, j]`` is the jump in type-k intensity caused by a past type-j
    event; the jump decays as exp(-decay * dt). Stability requires the
    spectral radius of excite/decay to be below 1.
    """

    base_rates: np.ndarray
    excite: np.ndarray
    decay: float

    def __post_init__(self):
        mu = np.ascontiguousarray(self.base_rates, dtype=np.float64)
        alpha = np.ascontiguousarray(self.excite, dtype=np.float64)
        if mu.ndim != 1 or mu.size < 1:
            raise ValidationError("base_rates must be a non-empty 1-d array")
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ValidationError("base_rates must be finite and positive")
        if alpha.shape != (mu.size, mu.size):
            raise ValidationError(
                f"excite must be {mu.size}x{mu.size}, got {alpha.shape}"
            )
        if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
            raise ValidationError("excite entries must be finite and non-negative")
        if not (np.isfinite(self.decay) and self.decay > 0):
            raise ValidationError(f"decay must be positive, got {self.decay}")
        radius = float(np.max(np.abs(np.linalg.eigvals(alpha / self.decay))))
        if radius >= 1.0:
            raise ValidationError(
                f"excite must keep the process stable (spectral radius of "
                f"excite/decay below 1), got spectral radius {radius:.4f}"
            )
        mu.flags.writeable = False
        alpha.flags.writeable = False
        object.__setattr__(self, "base_rates", mu)
        object.__setattr__(self, "excite", alpha)
        object.__setattr__(self, "decay", float(self.decay))

    @property
    def vocab_size(self) -> int:
        return self.base_rates.shape[0]


def simulate_poisson(rate: float, mark_probs, length: int, seed) -> EventSequence:
    """Homogeneous Poisson process with i.i.d. categorical marks."""
    probs = poisson_mark_probs(rate, mark_probs)
    if length < 1:
        raise ValidationError(f"length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    dts = np.maximum(rng.exponential(1.0 / rate, size=length), _TINY_DT)
    marks = categorical_rows(np.broadcast_to(probs, (length, probs.shape[0])),
                             rng.random(length))
    return EventSequence(dts, marks, probs.shape[0])


def simulate_hawkes(spec: HawkesSpec, length: int, seed) -> EventSequence:
    """Exact sampling via Ogata thinning (see kernels.hawkes_thinning)."""
    if length < 1:
        raise ValidationError(f"length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    uniforms = rng.random(max(256, 4 * length))
    dts = np.empty(length, dtype=np.float64)
    marks = np.empty(length, dtype=np.int64)
    while True:
        emitted, _ = kernels.hawkes_thinning(
            spec.base_rates, spec.excite, spec.decay, length, uniforms, dts, marks
        )
        if emitted == length:
            break
        # extend the same stream and re-run; the kernel re-consumes the
        # identical prefix, so emitted events are unchanged
        uniforms = np.concatenate([uniforms, rng.random(uniforms.shape[0])])
    dts = np.maximum(dts, _TINY_DT)
    return EventSequence(dts, marks, spec.vocab_size)
