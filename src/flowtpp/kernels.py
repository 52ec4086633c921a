"""Scalar-loop kernels: Ogata thinning and the event-alignment grid.

Both loop over Python floats and ints taken once with ``.tolist()``. Their
float operations match the numpy loop in ``tests/kernel_reference.py`` one
for one and in order, so results are bit-identical to it.
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
    difference; every unmatched event costs ``delete_cost``. Standard
    O(n*m) edit-distance grid, kept as two rolling rows.
    """
    d = float(delete_cost)
    bt, bm = b_times.tolist(), b_marks.tolist()
    prev = [j * d for j in range(len(bt) + 1)]
    for i, (ta, ma) in enumerate(zip(a_times.tolist(), a_marks.tolist()), 1):
        left = i * d
        row = [left]
        for up, diag, tb, mb in zip(prev[1:], prev, bt, bm):
            # min(up, left) + d == min(up + d, left + d): rounding is monotone
            left = (up if up < left else left) + d
            if ma == mb:
                match = diag + abs(ta - tb)
                if match < left:
                    left = match
            row.append(left)
        prev = row
    return prev[-1]
