import csv

import numpy as np
import pytest

from conftest import brute_force_otd, dyadic_arrivals
from flowtpp import (
    EventSequence,
    OtdConfig,
    ValidationError,
    evaluate_windows,
    otd,
    rmse_x,
    rmse_y,
    smape,
)
from flowtpp.metrics import (
    distribution_summary,
    histogram_tv,
    write_mark_frequency_csv,
    write_time_histogram_csv,
)


def seq_from_arrivals(arrivals, marks, vocab=2):
    dts = np.diff(np.asarray(arrivals, dtype=np.float64), prepend=0.0)
    return EventSequence(dts, np.asarray(marks, dtype=np.int64), vocab)


def random_dyadic_seq(rng, max_len=4, vocab=2):
    n = int(rng.integers(0, max_len + 1))
    arrivals = dyadic_arrivals(rng, n)
    marks = rng.integers(0, vocab, size=n)
    return seq_from_arrivals(arrivals, marks, vocab)


class TestOtdAgainstBruteForce:
    def test_matches_enumeration_exactly(self):
        # dyadic times keep every partial sum exact, so the recurrence and
        # the subset enumeration must agree bit for bit
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(220):
            a = random_dyadic_seq(rng)
            b = random_dyadic_seq(rng)
            c_del = float(rng.choice([0.5, 1.0, 1.5]))
            got = otd(a, b, OtdConfig(delete_cost=c_del))
            want = brute_force_otd(
                a.arrival_times(), a.marks,
                b.arrival_times(), b.marks, c_del,
            )
            assert got == want
            checked += 1
        assert checked >= 200

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = random_dyadic_seq(rng)
            b = random_dyadic_seq(rng)
            assert otd(a, b) == otd(b, a)

    def test_identity_is_zero(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            a = random_dyadic_seq(rng, max_len=6)
            assert otd(a, a) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            a = random_dyadic_seq(rng)
            b = random_dyadic_seq(rng)
            c = random_dyadic_seq(rng)
            assert otd(a, c) <= otd(a, b) + otd(b, c) + 1e-12


class TestOtdHandValues:
    def test_empty_vs_three_events(self):
        empty = EventSequence(np.zeros(0), np.zeros(0, dtype=int), 2)
        three = seq_from_arrivals([0.5, 1.0, 2.0], [0, 1, 0])
        assert otd(empty, three, OtdConfig(delete_cost=1.0)) == 3.0
        assert otd(three, empty, OtdConfig(delete_cost=0.5)) == 1.5

    def test_match_beats_double_deletion(self):
        # matching the two type-0 events costs |1.0 - 1.5| = 0.5, plus one
        # deletion at cost 2; deleting everything would cost 6
        a = seq_from_arrivals([1.0, 2.0], [0, 1])
        b = seq_from_arrivals([1.5], [0])
        assert otd(a, b, OtdConfig(delete_cost=2.0)) == 2.5

    def test_different_marks_never_match(self):
        a = seq_from_arrivals([1.0, 2.0], [0, 0])
        b = seq_from_arrivals([1.0, 2.0], [1, 1])
        assert otd(a, b, OtdConfig(delete_cost=1.0)) == 4.0

    def test_vocab_mismatch_rejected(self):
        a = seq_from_arrivals([1.0], [0], vocab=2)
        b = seq_from_arrivals([1.0], [0], vocab=3)
        with pytest.raises(ValidationError, match="vocab"):
            otd(a, b)

    def test_bad_delete_cost(self):
        with pytest.raises(ValidationError):
            OtdConfig(delete_cost=0.0)


class TestRmseX:
    def test_hand_value(self):
        a = EventSequence(np.array([1.0, 2.0]), np.array([0, 0]), 2)
        b = EventSequence(np.array([1.0, 4.0]), np.array([0, 0]), 2)
        assert abs(rmse_x(a, b) - np.sqrt(2.0)) < 1e-9

    def test_homogeneity(self, rng):
        dts_a = rng.exponential(1.0, 20) + 1e-9
        dts_b = rng.exponential(1.0, 20) + 1e-9
        marks = np.zeros(20, dtype=int)
        base = rmse_x(EventSequence(dts_a, marks, 1),
                      EventSequence(dts_b, marks, 1))
        scaled = rmse_x(EventSequence(3.0 * dts_a, marks, 1),
                        EventSequence(3.0 * dts_b, marks, 1))
        assert abs(scaled - 3.0 * base) < 1e-9

    def test_length_mismatch(self):
        a = EventSequence(np.array([1.0]), np.array([0]), 1)
        b = EventSequence(np.array([1.0, 1.0]), np.array([0, 0]), 1)
        with pytest.raises(ValidationError, match="length"):
            rmse_x(a, b)

    def test_empty_rejected(self):
        e = EventSequence(np.zeros(0), np.zeros(0, dtype=int), 1)
        with pytest.raises(ValidationError):
            rmse_x(e, e)


class TestRmseY:
    def test_counts_hand_value(self):
        a = EventSequence(np.ones(3), np.array([0, 0, 1]), 2)
        b = EventSequence(np.ones(3), np.array([0, 1, 1]), 2)
        assert rmse_y(a, b) == 1.0

    def test_counts_maximal_disagreement(self):
        length = 7
        a = EventSequence(np.ones(length), np.zeros(length, dtype=int), 2)
        b = EventSequence(np.ones(length), np.ones(length, dtype=int), 2)
        assert rmse_y(a, b) == float(length)

    def test_counts_ignores_order_and_length(self):
        a = EventSequence(np.ones(2), np.array([1, 0]), 2)
        b = EventSequence(np.ones(3), np.array([0, 1, 1]), 2)
        # counts [1,1] vs [1,2]
        assert abs(rmse_y(a, b) - np.sqrt(0.5)) < 1e-12

    def test_position_mode(self):
        a = EventSequence(np.ones(3), np.array([0, 0, 1]), 2)
        b = EventSequence(np.ones(3), np.array([0, 1, 1]), 2)
        assert abs(rmse_y(a, b, mode="position") - np.sqrt(1 / 3)) < 1e-12

    def test_unknown_mode(self):
        a = EventSequence(np.ones(1), np.array([0]), 1)
        with pytest.raises(ValidationError, match="mode"):
            rmse_y(a, a, mode="hamming")


class TestSmape:
    def test_hand_value(self):
        a = EventSequence(np.array([2.0]), np.array([0]), 1)
        b = EventSequence(np.array([1.0]), np.array([0]), 1)
        assert abs(smape(a, b) - 200.0 / 3.0) < 1e-9

    def test_bounds(self, rng):
        for _ in range(20):
            dts_a = rng.exponential(1.0, 15) + 1e-9
            dts_b = rng.exponential(1.0, 15) + 1e-9
            marks = np.zeros(15, dtype=int)
            val = smape(EventSequence(dts_a, marks, 1),
                        EventSequence(dts_b, marks, 1))
            assert 0.0 <= val <= 200.0

    def test_identical_is_zero(self, rng):
        dts = rng.exponential(1.0, 10) + 1e-9
        s = EventSequence(dts, np.zeros(10, dtype=int), 1)
        assert smape(s, s) == 0.0


class TestEvaluateWindows:
    def make_pairs(self, n, seed=0):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n):
            dts_a = rng.exponential(1.0, 5) + 1e-9
            dts_b = rng.exponential(1.0, 5) + 1e-9
            pairs.append((
                EventSequence(dts_a, rng.integers(0, 2, 5), 2),
                EventSequence(dts_b, rng.integers(0, 2, 5), 2),
            ))
        return pairs

    def test_report_shape(self):
        pairs = self.make_pairs(6)
        report = evaluate_windows([p for p, _ in pairs], [t for _, t in pairs])
        assert report.window_count == 6
        for name in ("otd", "rmse_x", "rmse_y", "smape"):
            assert len(report.per_window[name]) == 6
            assert set(report.aggregate[name]) == {"mean", "sd"}
        doc = report.to_dict()
        assert set(doc) == {"window_count", "aggregate", "per_window"}

    def test_aggregate_permutation_invariant(self):
        pairs = self.make_pairs(8, seed=3)
        preds = [p for p, _ in pairs]
        truths = [t for _, t in pairs]
        a = evaluate_windows(preds, truths).aggregate
        perm = np.random.default_rng(1).permutation(8)
        b = evaluate_windows([preds[i] for i in perm],
                             [truths[i] for i in perm]).aggregate
        for name in a:
            assert abs(a[name]["mean"] - b[name]["mean"]) < 1e-12
            assert abs(a[name]["sd"] - b[name]["sd"]) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_aggregate_equals_per_column_reductions(self, n):
        pairs = self.make_pairs(n, seed=n)
        report = evaluate_windows([p for p, _ in pairs], [t for _, t in pairs])
        for name, vals in report.per_window.items():
            assert report.aggregate[name] == {"mean": float(np.mean(vals)),
                                              "sd": float(np.std(vals))}

    def test_count_mismatch(self):
        pairs = self.make_pairs(3)
        with pytest.raises(ValidationError, match="count"):
            evaluate_windows([p for p, _ in pairs], [pairs[0][1]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_windows([], [])

    def test_perfect_prediction_scores_zero(self):
        truths = [t for _, t in self.make_pairs(4, seed=9)]
        report = evaluate_windows(truths, truths)
        for name in ("otd", "rmse_x", "rmse_y", "smape"):
            assert report.aggregate[name]["mean"] == 0.0


class TestDistributionSummary:
    def test_single_mark_type(self):
        seqs = [EventSequence(np.ones(5), np.zeros(5, dtype=int), 3)]
        s = distribution_summary(seqs)
        np.testing.assert_array_equal(s.mark_freqs, [1.0, 0.0, 0.0])

    def test_uniform_marks(self):
        rng = np.random.default_rng(2)
        marks = rng.integers(0, 3, 30000)
        seqs = [EventSequence(np.ones(30000), marks, 3)]
        s = distribution_summary(seqs)
        assert np.all(np.abs(s.mark_freqs - 1 / 3) < 0.01)

    def test_constant_dt_concentrates(self):
        seqs = [EventSequence(np.full(100, 1.0), np.zeros(100, dtype=int), 1)]
        s = distribution_summary(seqs, bins=10)
        assert s.overflow == 0
        assert s.time_counts.sum() == 100
        assert s.time_counts[-1] == 100
        assert abs(s.time_freqs.sum() - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            distribution_summary([])


class TestHistogramTv:
    def test_identical_samples(self):
        rng = np.random.default_rng(4)
        d = rng.exponential(1.0, 500)
        assert histogram_tv(d, d) == 0.0

    def test_disjoint_supports(self):
        rng = np.random.default_rng(5)
        truth = rng.random(1000) + 0.001
        pred = truth + 100.0
        assert histogram_tv(pred, truth) > 0.95

    def test_bounded(self, rng):
        a = rng.exponential(1.0, 300)
        b = rng.exponential(2.0, 300)
        assert 0.0 <= histogram_tv(a, b) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            histogram_tv(np.zeros(0), np.ones(3))


class TestCsvWriters:
    def test_time_histogram_file(self, tmp_path):
        seqs = [EventSequence(np.ones(20), np.zeros(20, dtype=int), 2)]
        s = distribution_summary(seqs, bins=5)
        path = tmp_path / "times.csv"
        write_time_histogram_csv(path, s, seed=7)
        lines = path.read_text().splitlines()
        assert lines[0] == "# version=1 seed=7"
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "freq"]
        assert rows[-1][0] == "overflow"
        freq_sum = sum(float(r[3]) for r in rows[1:])
        assert abs(freq_sum - 1.0) < 1e-9

    def test_mark_frequency_file(self, tmp_path):
        seqs = [EventSequence(np.ones(4), np.array([0, 1, 1, 1]), 2)]
        s = distribution_summary(seqs)
        path = tmp_path / "marks.csv"
        write_mark_frequency_csv(path, s, seed=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "# version=1 seed=3"
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["mark", "count", "freq"]
        assert [r[1] for r in rows[1:]] == ["1", "3"]
        assert float(rows[1][2]) == 0.25
