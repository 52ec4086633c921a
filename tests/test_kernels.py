"""The kernels against the loops in ``kernel_reference``.

``hawkes_thinning`` must return exactly what its loop returns: every float
operation is the same IEEE operation in the same order, so datasets stay
byte-identical. ``otd_align`` finds the same optimum as the full grid but
sums in another order, so it must agree to ``OTD_RTOL * max(1, cost)``,
and exactly wherever the sums are exact. It must return the bits of
``otd_band``, the same band loop with its gains and tie-breaks in two
lists."""

import hashlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import kernel_reference as ref
from conftest import brute_force_otd, dyadic_arrivals
from flowtpp import HawkesSpec, simulate_hawkes
from flowtpp.kernels import hawkes_thinning, otd_align

DELETE_COST_VALUES = (0.3, 1.0, 1.7, 2.5, 0.1 + 0.2)
DELETE_COSTS = st.sampled_from(DELETE_COST_VALUES)
OTD_RTOL = 1e-12


def assert_close_to_reference(case):
    got, want = otd_align(*case), ref.otd_align(*case)
    # equal infinite costs pass too
    assert got == want or abs(got - want) <= OTD_RTOL * max(1.0, want), (got, want)


@st.composite
def marked_stream(draw, max_len, vocab):
    """Arrival times as the metrics compute them (a cumulative sum of
    arbitrary, mostly non-dyadic gaps) and marks in [0, vocab)."""
    n = draw(st.integers(0, max_len))
    gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n))
    return np.cumsum(np.array(gaps, dtype=np.float64)), np.array(marks, dtype=np.int64)


@st.composite
def alignment_case(draw, max_len=40):
    vocab = draw(st.integers(1, 4))
    a_t, a_m = draw(marked_stream(max_len, vocab))
    b_t, b_m = draw(marked_stream(max_len, vocab))
    return a_t, a_m, b_t, b_m, draw(DELETE_COSTS)


@st.composite
def stable_spec(draw):
    """(base_rates, excite, decay) with spectral radius of excite/decay < 1."""
    m = draw(st.integers(1, 4))
    base = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=m, max_size=m)))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m)))
    decay = draw(st.floats(0.2, 5.0))
    radius = max(float(np.max(np.abs(np.linalg.eigvals(raw.reshape(m, m) / decay)))), 1e-9)
    excite = raw.reshape(m, m) * (draw(st.floats(0.0, 0.95)) / radius)
    return base, excite, decay


def thin(kernel, spec, n_events, uniforms):
    base, excite, decay = spec
    # sentinels: slots the kernel does not write must stay as they are
    dts = np.full(n_events, -1.0)
    marks = np.full(n_events, -1, dtype=np.int64)
    emitted, consumed = kernel(base, excite, decay, n_events, uniforms, dts, marks)
    return emitted, consumed, dts.tobytes(), marks.tolist()


class TestOtdAlign:
    @given(alignment_case())
    def test_matches_reference(self, case):
        assert_close_to_reference(case)

    @given(st.integers(0, 40), st.integers(0, 40), st.floats(1e-4, 0.05),
           st.integers(0, 2**32 - 1), DELETE_COSTS)
    def test_every_pair_a_candidate(self, n, m, scale, seed, cost):
        # one mark and gaps far below the cost: every band spans its whole
        # row, so a band end off by one drops a match
        rng = np.random.default_rng(seed)
        a_t = np.cumsum(rng.uniform(0.5, 1.0, n) * scale)
        b_t = np.cumsum(rng.uniform(0.5, 1.0, m) * scale)
        assert_close_to_reference(
            (a_t, np.zeros(n, np.int64), b_t, np.zeros(m, np.int64), cost))

    @given(marked_stream(40, 3))
    def test_identical_streams_cost_zero(self, stream):
        times, marks = stream
        for cost in DELETE_COST_VALUES:
            assert otd_align(times, marks, times, marks, cost) == 0.0

    @given(marked_stream(8, 3), st.lists(st.floats(1e-6, 10.0), min_size=8, max_size=8),
           st.integers(0, 8))
    def test_cost_past_half_the_largest_float(self, stream, gaps, drop):
        # 2d overflows, so every gain is infinite and the pair count and
        # the sum of |dt| must decide; b has a's marks, less the one at
        # drop if there is one, so a matching with at most one deletion
        # has a finite cost
        times, marks = stream
        other_marks = np.delete(marks, drop) if drop < len(marks) else marks
        other = np.cumsum(np.array(gaps[:len(other_marks)]))
        with np.errstate(over="ignore"):
            assert_close_to_reference((times, marks, other, other_marks, 1e308))

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3))
    def test_empty_side_deletes_everything(self, n, m, vocab):
        rng = np.random.default_rng([n, m, vocab])
        for a_len, b_len in ((n, 0), (0, m)):
            case = (dyadic_arrivals(rng, a_len), rng.integers(0, vocab, a_len),
                    dyadic_arrivals(rng, b_len), rng.integers(0, vocab, b_len))
            for cost in (0.25, 0.3, 1.75):
                assert otd_align(*case, cost) == ref.otd_align(*case, cost)
                assert otd_align(*case, cost) == brute_force_otd(*case, cost)

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0, 1.75]))
    def test_matches_brute_force_on_dyadic_times(self, n, m, vocab, seed, cost):
        # dyadic times and a dyadic cost keep every sum exact, so the DP and
        # the enumeration agree bit for bit
        rng = np.random.default_rng(seed)
        a_t, b_t = dyadic_arrivals(rng, n), dyadic_arrivals(rng, m)
        a_m, b_m = rng.integers(0, vocab, n), rng.integers(0, vocab, m)
        assert otd_align(a_t, a_m, b_t, b_m, cost) == brute_force_otd(
            a_t, a_m, b_t, b_m, cost)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.25, 0.5, 1.0, 1.75]))
    def test_band_edges_on_dyadic_times(self, n, seed, cost):
        # b's events sit exactly 2d from one of a's, or one grid step inside
        # that: a pair at |dt| = 2d gains nothing, one inside it does
        rng = np.random.default_rng(seed)
        a_t = dyadic_arrivals(rng, n)
        shifts = rng.choice([-2 * cost, -2 * cost + 1 / 64, 2 * cost - 1 / 64,
                             2 * cost], size=n)
        b_t = np.unique(np.clip(a_t + shifts, 1 / 64, None))
        a_m, b_m = rng.integers(0, 2, n), rng.integers(0, 2, len(b_t))
        assert otd_align(a_t, a_m, b_t, b_m, cost) == brute_force_otd(
            a_t, a_m, b_t, b_m, cost)


def assert_same_bits_as_band(case):
    got, want = otd_align(*case), ref.otd_band(*case)
    assert got.hex() == want.hex(), (got, want)


class TestOtdTupleKeys:
    """One (gain, pairs, -sum|dt|) tuple per cell, ordered as tuples, picks
    the matching that the two-list loop picks, exact ties included. Where
    every sum is exact, matchings of equal gain cost the same; with
    d = 1e308 every gain is infinite, so the tie-breaks alone decide."""

    @given(alignment_case())
    def test_random_streams(self, case):
        assert_same_bits_as_band(case)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0, 1.75, 1e308]))
    def test_dyadic_arrivals(self, n, m, vocab, seed, cost):
        rng = np.random.default_rng(seed)
        assert_same_bits_as_band((dyadic_arrivals(rng, n), rng.integers(0, vocab, n),
                                  dyadic_arrivals(rng, m), rng.integers(0, vocab, m), cost))

    @given(st.integers(1, 12), st.integers(0, 3), st.sampled_from([0.25, 0.5, 1.0, 1e308]))
    def test_equal_gains(self, n, shift, cost):
        # one mark, a on a grid of 1/2 and b shifted by `shift` quarters:
        # with shift 1, event i of a is as close to i as to i + 1 of b
        a_t = np.arange(1, n + 1) / 2.0
        b_t = a_t + shift / 4.0
        marks = np.zeros(n, np.int64)
        assert_same_bits_as_band((a_t, marks, b_t, marks, cost))

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 2**32 - 1),
           st.sampled_from([0.25, 1.0, 1.75, 1e308]))
    def test_all_candidates(self, n, m, seed, cost):
        # one mark and dyadic gaps of at most 1/256: every pair is within 2d
        rng = np.random.default_rng(seed)
        a_t = np.cumsum(rng.integers(1, 5, n)) / 1024.0
        b_t = np.cumsum(rng.integers(1, 5, m)) / 1024.0
        assert_same_bits_as_band((a_t, np.zeros(n, np.int64), b_t,
                                  np.zeros(m, np.int64), cost))


class TestHawkesThinning:
    @given(stable_spec(), st.integers(1, 120), st.integers(0, 2**32 - 1),
           st.floats(0.0, 10.0))
    def test_matches_reference(self, spec, n_events, seed, buffer_per_event):
        # buffers shorter than the run needs take the early return
        uniforms = np.random.default_rng(seed).random(int(buffer_per_event * n_events))
        got = thin(hawkes_thinning, spec, n_events, uniforms)
        assert got == thin(ref.hawkes_thinning, spec, n_events, uniforms)

    @given(stable_spec(), st.integers(2, 120), st.integers(0, 2**32 - 1))
    def test_prefix_rerun_matches_reference(self, spec, n_events, seed):
        # the retry in simulate_hawkes: a short buffer returns early, and the
        # rerun over the extended buffer reproduces the emitted prefix
        uniforms = np.random.default_rng(seed).random(12 * n_events + 8)
        short = uniforms[: n_events]
        first = thin(hawkes_thinning, spec, n_events, short)
        assert first == thin(ref.hawkes_thinning, spec, n_events, short)
        assert first[0] < n_events
        rerun = thin(hawkes_thinning, spec, n_events, uniforms)
        assert rerun == thin(ref.hawkes_thinning, spec, n_events, uniforms)
        emitted = first[0]
        assert rerun[2][: 8 * emitted] == first[2][: 8 * emitted]
        assert rerun[3][:emitted] == first[3][:emitted]


# the two benchmark specs (perfbench/workloads.py): hawkes-batch, long-horizon
M2 = HawkesSpec(np.array([0.25, 0.25]), np.array([[0.3, 0.1], [0.1, 0.3]]), 1.0)
M4 = HawkesSpec(np.array([0.2, 0.2, 0.2, 0.2]),
                np.array([[0.5, 0.05, 0.05, 0.05],
                          [0.05, 0.5, 0.05, 0.05],
                          [0.05, 0.05, 0.5, 0.05],
                          [0.05, 0.05, 0.05, 0.5]]), 1.0)

# sha256 over (inter_times, little-endian int64 marks) of a 40- and a
# 300-event sequence from streams [seed, 2, 0] and [seed, 2, 1], taken
# from the element-by-element kernel. A mismatch on another host most
# likely comes from numpy's vectorised log1p rounding differently from
# its scalar call.
PINNED = {
    ("M2", 1): "feda738d2710702c983377a9e9df67815e1919b053124318da10e907147f402d",
    ("M2", 2): "0ae08dc66b9a8f482b417a831a91cb26d9ac1fbdb5bb39bef9bbe9e632ea227a",
    ("M2", 3): "db6c249a40ad708e74cc55f013c67f11746e240f0f1ce58b1a9a73abae467e2c",
    ("M4", 1): "1e254269ec022e37382b2d87afef7fde0d706f111031a82776b556642ff27eda",
    ("M4", 2): "72cafce9ac55a9c501d79735e45c9875477eb9bd2c89aa3eb2be6db15414787f",
    ("M4", 3): "ae94985b830b9698a07ba2baf012a2bcb5d3926c2df4fbab22afdd00d956480b",
}


def test_simulate_hawkes_pinned_digests():
    got = {}
    for name, spec in (("M2", M2), ("M4", M4)):
        for seed in (1, 2, 3):
            h = hashlib.sha256()
            for i, n in enumerate((40, 300)):
                s = simulate_hawkes(spec, n, seed=[seed, 2, i])
                h.update(s.inter_times.astype("<f8").tobytes())
                h.update(s.marks.astype("<i8").tobytes())
            got[name, seed] = h.hexdigest()
    assert got == PINNED
