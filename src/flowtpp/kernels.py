"""Scalar-loop kernels: Ogata thinning and the event-alignment grid.

Both functions are compiled with numba when it is installed (see
:mod:`flowtpp.accel`) and run as the identical pure-Python source otherwise.
"""

import numpy as np

from .accel import njit


@njit(cache=True)
def hawkes_thinning(base_rates, excite, decay, n_events, uniforms, out_dts, out_marks):
    """Thinning inner loop for an exponential-kernel self-exciting process.

    Consumes pre-drawn uniforms from ``uniforms`` (the caller owns the RNG);
    each candidate needs up to 3 draws, and the loop exits early when fewer
    than 3 remain so the caller can extend the buffer and re-run. The run is
    a pure function of the buffer prefix, so a re-run with an extended buffer
    reproduces the emitted prefix exactly.

    The intensity of an exponential kernel is non-increasing between events,
    so the total intensity at the last accepted event (or at the last
    rejected candidate) is an exact upper bound for the next proposal.

    Returns (events_emitted, uniforms_consumed).
    """
    n_types = base_rates.shape[0]
    excitation = np.zeros(n_types)
    gap = 0.0
    pos = 0
    emitted = 0

    total_base = 0.0
    for k in range(n_types):
        total_base += base_rates[k]
    bound = total_base

    while emitted < n_events:
        if pos + 3 > uniforms.shape[0]:
            return emitted, pos
        # 1 - u is in (0, 1], so the log is finite
        wait = -np.log1p(-uniforms[pos]) / bound
        pos += 1
        shrink = np.exp(-decay * wait)
        lam_cand = 0.0
        for k in range(n_types):
            excitation[k] *= shrink
            lam_cand += base_rates[k] + excitation[k]
        # exact bound (monotone decay) => acceptance ratio in (0, 1]
        assert lam_cand <= bound * (1.0 + 1e-12)
        gap += wait
        accept = uniforms[pos] * bound
        pos += 1
        if accept <= lam_cand:
            draw = uniforms[pos] * lam_cand
            pos += 1
            acc = 0.0
            mark = n_types - 1
            for k in range(n_types):
                acc += base_rates[k] + excitation[k]
                if draw <= acc:
                    mark = k
                    break
            out_dts[emitted] = gap
            out_marks[emitted] = mark
            gap = 0.0
            emitted += 1
            for k in range(n_types):
                excitation[k] += excite[k, mark]
            bound = lam_cand
            for k in range(n_types):
                bound += excite[k, mark]
        else:
            bound = lam_cand
    return emitted, pos


@njit(cache=True)
def otd_align(a_times, a_marks, b_times, b_marks, delete_cost):
    """Minimum-cost order-preserving alignment of two marked event streams.

    Aligned pairs must share a mark and cost the absolute arrival-time
    difference; every unmatched event costs ``delete_cost``. Standard
    O(n*m) edit-distance grid.
    """
    n = a_times.shape[0]
    m = b_times.shape[0]
    grid = np.empty((n + 1, m + 1))
    for i in range(n + 1):
        grid[i, 0] = i * delete_cost
    for j in range(m + 1):
        grid[0, j] = j * delete_cost
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            best = grid[i - 1, j] + delete_cost
            skip_b = grid[i, j - 1] + delete_cost
            if skip_b < best:
                best = skip_b
            if a_marks[i - 1] == b_marks[j - 1]:
                match = grid[i - 1, j - 1] + abs(a_times[i - 1] - b_times[j - 1])
                if match < best:
                    best = match
            grid[i, j] = best
    return grid[n, m]
