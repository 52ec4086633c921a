"""Reference kernels for :mod:`flowtpp.kernels`.

``hawkes_thinning`` and ``otd_align`` index numpy arrays one element at a
time; ``otd_band`` is the band alignment with its gains and tie-breaks in
two parallel lists. ``kernels.hawkes_thinning`` must return exactly what
its loop returns and ``kernels.otd_align`` exactly what ``otd_band``
returns; ``kernels.otd_align`` sums in another order than the full grid,
so it agrees with that to a tolerance."""

import numpy as np


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


def otd_band(a_times, a_marks, b_times, b_marks, delete_cost):
    """The band alignment of ``kernels.otd_align``, with ``gain[k]`` the best
    gain over the columns before k and ``held[k]`` its (pairs, -sum|dt|),
    compared field by field."""
    d = float(delete_cost)
    two_d = 2.0 * d
    n, m = len(a_times), len(b_times)
    los = np.searchsorted(b_times, a_times - two_d, "left").tolist()
    his = np.searchsorted(b_times, a_times + two_d, "right").tolist()
    bt, bm = [0.0, *b_times.tolist()], [-1, *b_marks.tolist()]
    gain, held = [0.0] * (m + 1), [(0, 0.0)] * (m + 1)
    reach = 0
    for ta, ma, lo, hi in zip(a_times.tolist(), a_marks.tolist(), los, his):
        if lo >= hi:
            continue
        if hi > reach:
            gain[reach + 1:hi + 1] = [gain[reach]] * (hi - reach)
            held[reach + 1:hi + 1] = [held[reach]] * (hi - reach)
            reach = hi
        diag_g = left_g = gain[lo]
        diag_h = left_h = held[lo]
        for k in range(lo + 1, hi + 1):
            up_g, up_h = gain[k], held[k]
            if up_g > left_g or up_g == left_g and up_h > left_h:
                left_g, left_h = up_g, up_h
            if bm[k] == ma:
                dt = abs(ta - bt[k])
                if dt < two_d:
                    cand_g = diag_g + (two_d - dt)
                    if cand_g >= left_g:
                        cand_h = (diag_h[0] + 1, diag_h[1] - dt)
                        if cand_g > left_g or cand_h > left_h:
                            left_g, left_h = cand_g, cand_h
            gain[k], held[k] = left_g, left_h
            diag_g, diag_h = up_g, up_h
    pairs, neg_sum = held[reach]
    return d * (n + m - 2 * pairs) - neg_sum
