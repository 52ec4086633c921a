"""Shared test helpers: finite-difference gradient checking, a
brute-force alignment-cost oracle, and the hypothesis profile."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from flowtpp import nn

# the same examples on every run, however long each one takes
settings.register_profile("flowtpp", derandomize=True, deadline=None, database=None)
settings.load_profile("flowtpp")

FD_STEP = 1e-5
FD_TOL = 1e-4


def max_grad_error(loss_fn, leaves, step=FD_STEP):
    """Worst relative error between tape gradients and central differences.

    loss_fn must rebuild the graph from the leaves' current .data on every
    call; leaf data is perturbed in place and restored.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = loss_fn()
    nn.backward(loss)
    worst = 0.0
    for leaf in leaves:
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lo_hi = float(loss_fn().data)
            flat[i] = orig - step
            lo_lo = float(loss_fn().data)
            flat[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst


def assert_gradients_match(loss_fn, leaves, tol=FD_TOL):
    worst = max_grad_error(loss_fn, leaves)
    assert worst < tol, f"max relative gradient error {worst:.3e} >= {tol}"


def brute_force_otd(a_times, a_marks, b_times, b_marks, delete_cost):
    """Enumerate every order-preserving same-mark matching explicitly.

    Independent of the DP: picks equal-size index subsets from both sides,
    pairs them in order, and keeps the cheapest total. Only feasible for
    tiny sequences.
    """
    a_times = np.asarray(a_times, dtype=np.float64)
    b_times = np.asarray(b_times, dtype=np.float64)
    n, m = len(a_times), len(b_times)
    best = delete_cost * (n + m)
    for k in range(1, min(n, m) + 1):
        for ai in itertools.combinations(range(n), k):
            for bi in itertools.combinations(range(m), k):
                if any(a_marks[i] != b_marks[j] for i, j in zip(ai, bi)):
                    continue
                cost = delete_cost * (n + m - 2 * k)
                for i, j in zip(ai, bi):
                    cost += abs(a_times[i] - b_times[j])
                best = min(best, cost)
    return best


def dyadic_arrivals(rng, length):
    """Strictly increasing arrival times on a 1/64 grid; dyadic values keep
    every float sum exact, so DP and enumeration agree bit for bit."""
    steps = rng.integers(1, 65, size=length)
    return np.cumsum(steps).astype(np.float64) / 64.0


def make_mlp(rng, sizes, prefix="mlp"):
    store = nn.ParamStore()
    for i in range(len(sizes) - 1):
        store.add(f"{prefix}.{i}.W",
                  rng.normal(0, 1.0 / np.sqrt(sizes[i]), (sizes[i], sizes[i + 1])))
        store.add(f"{prefix}.{i}.b", rng.normal(0, 0.1, sizes[i + 1]))
    return store


def make_gru(rng, in_dim, d, prefix="gru", scale=None):
    store = nn.ParamStore()
    for gate in ("z", "r", "h"):
        store.add(f"{prefix}.W{gate}",
                  rng.normal(0, scale or 1.0 / np.sqrt(in_dim), (in_dim, d)))
        store.add(f"{prefix}.U{gate}",
                  rng.normal(0, scale or 1.0 / np.sqrt(d), (d, d)))
        store.add(f"{prefix}.b{gate}", np.zeros(d))
    return store


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
