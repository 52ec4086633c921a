"""Scalar-loop kernels: Ogata thinning and the event-alignment DP.

Both loop over Python floats and ints taken once with ``.tolist()``.
``hawkes_thinning``'s float operations match the numpy loop in
``tests/kernel_reference.py`` one for one and in order, so its results are
bit-identical to it. ``otd_align`` visits only the band of the alignment
grid where a match can beat two deletions; it finds the same optimum as
the full grid in ``tests/kernel_reference.py``, summed in another order,
so the two agree to 1e-12 * max(1, cost).
"""

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

    ``np.log1p``/``np.exp`` stay: ``math`` rounds differently on some inputs.

    Returns (events_emitted, uniforms_consumed).
    """
    base = base_rates.tolist()
    jumps = excite.T.tolist()  # jumps[j][k] = excite[k, j]
    types = range(len(base))
    excitation = [0.0] * len(base)
    u = uniforms.tolist()
    # 1 - u is in (0, 1], so the log is finite
    exposures = (-np.log1p(-uniforms)).tolist()
    exp = np.exp
    last = len(u) - 3
    dts, marks = [], []
    gap = 0.0
    pos = 0

    bound = 0.0
    for rate in base:
        bound += rate

    while len(dts) < n_events and pos <= last:
        wait = exposures[pos] / bound
        shrink = float(exp(-decay * wait))
        lam_cand = 0.0
        for k in types:
            excitation[k] *= shrink
            lam_cand += base[k] + excitation[k]
        # exact bound (monotone decay) => acceptance ratio in (0, 1]
        assert lam_cand <= bound * (1.0 + 1e-12)
        gap += wait
        if u[pos + 1] * bound <= lam_cand:
            draw = u[pos + 2] * lam_cand
            pos += 3
            acc = 0.0
            mark = len(base) - 1
            for k in types:
                acc += base[k] + excitation[k]
                if draw <= acc:
                    mark = k
                    break
            dts.append(gap)
            marks.append(mark)
            gap = 0.0
            bound = lam_cand
            for k, jump in enumerate(jumps[mark]):
                excitation[k] += jump
                bound += jump
        else:
            pos += 2
            bound = lam_cand
    out_dts[:len(dts)] = dts
    out_marks[:len(marks)] = marks
    return len(dts), pos


def otd_align(a_times, a_marks, b_times, b_marks, delete_cost):
    """Minimum-cost order-preserving alignment of two marked event streams.

    Aligned pairs must share a mark and cost the absolute arrival-time
    difference; every unmatched event costs ``delete_cost`` (d). Both
    arrival sequences must be sorted.

    The cost is d*(n + m) minus the largest total gain sum(2d - |dt|) over
    matchings, and only a pair with |dt| < 2d gains anything. Row i's such
    columns form one interval [lo_i, hi_i), found by binary search, and
    both ends are non-decreasing in i. ``best[k]`` holds the best
    (gain, pairs, -sum|dt|) over the columns before k; tuple order breaks
    exact gain ties by more pairs, then by the smaller sum. Row i changes
    only the cells in (lo_i, hi_i]; beyond the farthest hi so far every
    cell equals the last one, so cells are filled only when a band reaches
    them. Work is the sum of the band widths: typically O(n * band),
    O(n * m) when every pair is within 2d.

    Returns d*(n + m - 2*pairs) + sum|dt| of the chosen matching, which is
    exact wherever the sums are (dyadic inputs, or identical streams).
    """
    d = float(delete_cost)
    two_d = 2.0 * d
    n, m = len(a_times), len(b_times)
    # 'left'/'right' keep every pair whose rounded |dt| is below 2d
    los = np.searchsorted(b_times, a_times - two_d, "left").tolist()
    his = np.searchsorted(b_times, a_times + two_d, "right").tolist()
    # shifted by one, so that column k of the grid reads b's event k - 1
    bt, bm = [0.0, *b_times.tolist()], [-1, *b_marks.tolist()]
    best = [(0.0, 0, 0.0)] * (m + 1)
    reach = 0
    for ta, ma, lo, hi in zip(a_times.tolist(), a_marks.tolist(), los, his):
        if lo >= hi:
            continue
        if hi > reach:
            best[reach + 1:hi + 1] = [best[reach]] * (hi - reach)
            reach = hi
        diag = left = best[lo]
        for k in range(lo + 1, hi + 1):
            up = best[k]
            if up > left:
                left = up
            if bm[k] == ma:
                dt = abs(ta - bt[k])
                if dt < two_d:
                    gain = diag[0] + (two_d - dt)
                    # a tuple only for a candidate that can win
                    if gain >= left[0]:
                        cand = (gain, diag[1] + 1, diag[2] - dt)
                        if cand > left:
                            left = cand
            best[k] = left
            diag = up
    _, pairs, neg_sum = best[reach]
    return d * (n + m - 2 * pairs) - neg_sum
