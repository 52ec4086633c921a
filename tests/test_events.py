import json
import re

import numpy as np
import pytest

from flowtpp import (
    EventSequence,
    ForecastWindow,
    ValidationError,
    load_jsonl,
    make_windows,
    save_jsonl,
    split_window,
    to_inter_event,
)


def seq(dts, marks, m=3):
    return EventSequence(np.asarray(dts, float), np.asarray(marks), m)


class NoScan(np.ndarray):
    """An array that fails any item-by-item read."""

    def __iter__(self):
        raise AssertionError("array scanned item by item")

    def tolist(self):
        raise AssertionError("array scanned item by item")


class TestEventSequence:
    def test_basic_fields(self):
        s = seq([0.5, 1.0], [0, 2])
        assert len(s) == 2
        assert s.vocab_size == 3
        assert s.inter_times.dtype == np.float64
        assert s.marks.dtype == np.int64

    def test_arrival_times_cumsum(self):
        s = seq([0.5, 1.0, 0.25], [0, 1, 2])
        np.testing.assert_allclose(s.arrival_times(), [0.5, 1.5, 1.75])

    def test_empty_allowed(self):
        s = seq([], [])
        assert len(s) == 0
        assert s.arrival_times().shape == (0,)

    def test_immutable(self):
        s = seq([1.0], [0])
        with pytest.raises(ValueError):
            s.inter_times[0] = 2.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError, match="index 1"):
            seq([1.0, 0.0], [0, 1])
        with pytest.raises(ValidationError, match="index 0"):
            seq([-0.5, 1.0], [0, 1])

    def test_rejects_bad_marks(self):
        with pytest.raises(ValidationError, match="index 1"):
            seq([1.0, 1.0], [0, 3])
        with pytest.raises(ValidationError):
            seq([1.0], [-1])

    @pytest.mark.parametrize("marks", [
        [0.7, 1.2], [1.0, 2.5], [True, False], np.array([True, False]),
        [1, True], ["1", "0"], [0.0, np.nan]])
    def test_rejects_non_integer_marks(self, marks):
        with pytest.raises(ValidationError, match="not an integer"):
            EventSequence([1.0, 2.0], marks, 3)

    def test_whole_marks_accepted(self):
        for marks in ([0.0, 2.0], np.array([0, 2], dtype=np.int32),
                      [np.int64(0), np.uint8(2)], (0, 2)):
            s = EventSequence([1.0, 2.0], marks, 3)
            np.testing.assert_array_equal(s.marks, [0, 2])
            assert s.marks.dtype == np.int64

    @pytest.mark.parametrize("dts", [
        [True, 2.5], np.array([True, False]), [1.0, "2.5"], ["1", "2"], [1.0, None]])
    def test_rejects_non_number_inter_times(self, dts):
        with pytest.raises(ValidationError, match="inter-event time at index"):
            EventSequence(dts, [0, 1], 3)

    def test_number_inter_times_accepted(self):
        for dts in ([1, 2.5], (np.float32(1.0), np.int64(2)), np.array([1, 2])):
            s = EventSequence(dts, [0, 1], 3)
            np.testing.assert_array_equal(s.inter_times, np.asarray(dts, float))

    def test_integer_array_is_not_scanned(self):
        # one sequence per forecast window: an integer array is checked in O(1)
        s = EventSequence([1.0, 2.0], np.array([0, 2]).view(NoScan), 3)
        np.testing.assert_array_equal(s.marks, [0, 2])

    def test_float_array_is_not_scanned(self):
        s = EventSequence(np.array([1.0, 2.0]).view(NoScan), [0, 2], 3)
        np.testing.assert_array_equal(s.inter_times, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            seq([np.inf], [0])

    def test_rejects_2d_inter_times(self):
        with pytest.raises(ValidationError, match="must be 1-d"):
            EventSequence([[1.0, 2.0]], [0, 1], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            seq([1.0, 2.0], [0])

    def test_rejects_bad_vocab(self):
        with pytest.raises(ValidationError):
            seq([1.0], [0], m=0)


class TestToInterEvent:
    def test_diff_with_zero_origin(self):
        np.testing.assert_allclose(to_inter_event([1.0, 3.0, 3.5]), [1.0, 2.0, 0.5])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError, match="index 2"):
            to_inter_event([1.0, 2.0, 2.0])

    @pytest.mark.parametrize("ts", [["1", 2.0], [True, 2.0], np.array([True])])
    def test_rejects_non_number_timestamps(self, ts):
        with pytest.raises(ValidationError, match="timestamp at index 0"):
            to_inter_event(ts)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="timestamps must be 1-d"):
            to_inter_event([[1.0, 2.0]])

    def test_float_array_is_not_scanned(self):
        np.testing.assert_array_equal(
            to_inter_event(np.array([1.0, 3.0]).view(NoScan)), [1.0, 2.0])

    def test_rejects_nonpositive_first(self):
        with pytest.raises(ValidationError):
            to_inter_event([0.0, 1.0])


class TestWindows:
    def test_split(self):
        s = seq([1, 2, 3, 4, 5.0], [0, 1, 2, 0, 1])
        w = split_window(s, 2)
        assert isinstance(w, ForecastWindow)
        assert len(w.context) == 3
        assert w.horizon == 2
        np.testing.assert_allclose(w.target.inter_times, [4.0, 5.0])
        np.testing.assert_array_equal(w.target.marks, [0, 1])

    def test_split_too_short_returns_none(self):
        s = seq([1.0, 2.0], [0, 1])
        assert split_window(s, 2) is None
        assert split_window(s, 5) is None

    def test_make_windows_skips_short(self):
        seqs = [seq([1, 2, 3.0], [0, 1, 2]), seq([1.0], [0])]
        wins = make_windows(seqs, 2)
        assert len(wins) == 1

    def test_make_windows_warns_once_for_all_skipped(self, caplog):
        seqs = [seq([1.0, 2.0], [0, 1])] * 5 + [seq([1, 2, 3.0], [0, 1, 2])]
        with caplog.at_level("WARNING"):
            wins = make_windows(seqs, 2)
        assert len(wins) == 1
        assert [r.message for r in caplog.records] == [
            "skipped 5 of 6 sequences with at most 2 events"]

    def test_window_validation(self):
        c = seq([1.0], [0])
        with pytest.raises(ValidationError):
            ForecastWindow(c, seq([], []))
        with pytest.raises(ValidationError, match="vocab_size differ"):
            ForecastWindow(c, seq([1.0], [0], m=4))


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        seqs = [seq([0.5, 1.5], [0, 2]), seq([1.0], [1])]
        save_jsonl(path, seqs, 3, seed=7)
        back = load_jsonl(path)
        assert len(back) == 2
        np.testing.assert_allclose(back[0].inter_times, [0.5, 1.5])
        np.testing.assert_array_equal(back[1].marks, [1])
        assert back[0].vocab_size == 3

    def test_header_carries_seed_and_version(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_jsonl(path, [seq([1.0], [0])], 3, seed=9)
        meta = json.loads(path.read_text().splitlines()[0])["meta"]
        assert meta["seed"] == 9
        assert meta["version"] == 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"dts": [1.0], "marks": [0]}\n')
        with pytest.raises(ValidationError, match="line 1"):
            load_jsonl(path)

    def test_vocab_cross_check(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_jsonl(path, [seq([1.0], [0])], 3)
        with pytest.raises(ValidationError, match="vocab"):
            load_jsonl(path, vocab_size=5)

    def test_timestamp_lines_converted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"vocab_size":2}}\n{"ts":[1.0,3.0],"marks":[0,1]}\n'
        )
        back = load_jsonl(path)
        np.testing.assert_allclose(back[0].inter_times, [1.0, 2.0])

    def test_malformed_json_is_hard_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"vocab_size":2}}\n{not json\n')
        with pytest.raises(ValidationError, match="line 2"):
            load_jsonl(path)

    def test_errors_and_warnings_name_file_and_line(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"vocab_size":2}}\n{"dts":[-1.0],"marks":[0]}\n')
        with caplog.at_level("WARNING"):
            assert load_jsonl(path) == []
        rejected = [r.message for r in caplog.records if "rejected" in r.message]
        assert rejected[0].startswith(f"{path} line 2 rejected:")
        path.write_text('{"meta":{"vocab_size":2}}\n\n[1, 2]\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path} line 3: expected")):
            load_jsonl(path)

    def test_domain_violation_skips_line(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"vocab_size":2}}\n'
            '{"dts":[-1.0],"marks":[0]}\n'
            '{"dts":[1.0],"marks":[1]}\n'
        )
        with caplog.at_level("WARNING"):
            back = load_jsonl(path)
        assert len(back) == 1
        assert any("line 2" in r.message for r in caplog.records)

    def test_non_integer_marks_skip_line(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"vocab_size":2}}\n'
            '{"dts":[1.0,2.0],"marks":[0.7,1.2]}\n'
            '{"dts":[1.0,2.0],"marks":[true,false]}\n'
            '{"dts":[1.0,2.0],"marks":[1,0]}\n'
        )
        with caplog.at_level("WARNING"):
            back = load_jsonl(path)
        assert len(back) == 1
        np.testing.assert_array_equal(back[0].marks, [1, 0])
        rejected = [r.message for r in caplog.records if "rejected" in r.message]
        assert len(rejected) == 2
        assert "line 2" in rejected[0] and "line 3" in rejected[1]

    def test_non_number_times_skip_line(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"meta":{"vocab_size":2}}\n'
            '{"dts":[true,"2.5"],"marks":[1,0]}\n'
            '{"ts":["1",2.0],"marks":[1,0]}\n'
            '{"dts":[1,2.5],"marks":[1,0]}\n'
        )
        with caplog.at_level("WARNING"):
            back = load_jsonl(path)
        assert len(back) == 1
        np.testing.assert_array_equal(back[0].inter_times, [1.0, 2.5])
        rejected = [r.message for r in caplog.records if "rejected" in r.message]
        assert len(rejected) == 2
        assert "line 2" in rejected[0] and "inter-event time" in rejected[0]
        assert "line 3" in rejected[1] and "timestamp" in rejected[1]

    def test_nonfinite_timestamp_skips_line(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"vocab_size":2}}\n{"ts":[NaN,2.0],"marks":[0,1]}\n')
        with caplog.at_level("WARNING"):
            assert load_jsonl(path) == []
        assert [r.message for r in caplog.records] == [
            f"{path} line 2 rejected: non-finite timestamp"]

    def test_save_rejects_other_vocabulary(self, tmp_path):
        with pytest.raises(ValidationError, match="differs from dataset header"):
            save_jsonl(tmp_path / "d.jsonl", [seq([1.0], [0], m=3)], 4)

    def test_bool_vocab_size_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"meta":{"vocab_size":true}}\n{"dts":[1.0],"marks":[0]}\n')
        with pytest.raises(ValidationError, match="line 1: vocab_size"):
            load_jsonl(path)

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        seqs = [seq([0.1, 0.2], [0, 1])]
        save_jsonl(a, seqs, 3, seed=1)
        save_jsonl(b, seqs, 3, seed=1)
        assert a.read_bytes() == b.read_bytes()
