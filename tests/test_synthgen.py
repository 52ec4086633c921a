import numpy as np
import pytest

import kernel_reference
from flowtpp import HawkesSpec, ValidationError, simulate_hawkes, simulate_poisson
from flowtpp import synthgen
from flowtpp.kernels import hawkes_thinning
from flowtpp.synthgen import _TINY_DT, categorical_rows


class TestPoisson:
    def test_shapes_and_domain(self):
        s = simulate_poisson(2.0, [0.5, 0.5], 100, seed=0)
        assert len(s) == 100
        assert (s.inter_times > 0).all()
        assert set(np.unique(s.marks)) <= {0, 1}

    def test_deterministic(self):
        a = simulate_poisson(1.0, [0.3, 0.7], 50, seed=42)
        b = simulate_poisson(1.0, [0.3, 0.7], 50, seed=42)
        np.testing.assert_array_equal(a.inter_times, b.inter_times)
        np.testing.assert_array_equal(a.marks, b.marks)

    def test_exponential_ks(self):
        # one-sample Kolmogorov-Smirnov against Exp(2); 1.36/sqrt(n) is the
        # 5% critical value, computed by hand
        n = 20000
        s = simulate_poisson(2.0, [1.0], n, seed=7)
        x = np.sort(s.inter_times)
        emp = np.arange(1, n + 1) / n
        cdf = 1.0 - np.exp(-2.0 * x)
        d = np.max(np.maximum(np.abs(emp - cdf), np.abs(emp - 1.0 / n - cdf)))
        assert d < 1.36 / np.sqrt(n)

    def test_mark_frequencies(self):
        probs = [0.2, 0.3, 0.5]
        s = simulate_poisson(1.0, probs, 30000, seed=3)
        freqs = np.bincount(s.marks, minlength=3) / 30000
        np.testing.assert_allclose(freqs, probs, atol=0.01)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            simulate_poisson(0.0, [1.0], 10, seed=0)
        with pytest.raises(ValidationError):
            simulate_poisson(1.0, [0.5, 0.6], 10, seed=0)
        with pytest.raises(ValidationError):
            simulate_poisson(1.0, [1.0], 0, seed=0)


class TestCategorical:
    def test_inverse_cdf_frequencies(self):
        rng = np.random.default_rng(0)
        draws = categorical_rows(np.tile([0.1, 0.9], (20000, 1)), rng.random(20000))
        assert abs(draws.mean() - 0.9) < 0.01

    def test_degenerate(self):
        rng = np.random.default_rng(0)
        draws = categorical_rows(np.tile([0.0, 1.0, 0.0], (100, 1)), rng.random(100))
        assert (draws == 1).all()

    def test_uniform_on_a_cdf_value_skips_zero_mass(self):
        # a uniform equal to cdf[k] draws past k, so u = 0 never picks a
        # leading class of probability 0
        probs = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        u = np.array([0.0, 0.5])
        np.testing.assert_array_equal(categorical_rows(probs, u), [1, 2])

    @pytest.mark.parametrize("m", [10, 7])
    def test_uniform_past_a_short_cdf_takes_the_last_class(self, m):
        # M equal masses 1/M sum to just below 1 (ten 0.1s to 1 - 2^-53,
        # seven 1/7s, the noise draw at M=7, to 1 - 2^-52); the largest
        # uniform below 1 is at or past the cdf's end and is clamped to class M-1
        probs = np.full((1, m), 1.0 / m)
        cdf_end = np.cumsum(probs, axis=1)[0, -1]
        u = np.array([np.nextafter(1.0, 0.0)])
        assert cdf_end < 1.0 and u[0] >= cdf_end
        np.testing.assert_array_equal(categorical_rows(probs, u), [m - 1])


class TestHawkesSpec:
    def test_stability_check(self):
        # spectral radius of excite/decay is 2.0
        with pytest.raises(ValidationError, match="spectral radius"):
            HawkesSpec(np.array([1.0]), np.array([[2.0]]), 1.0)

    def test_stable_accepted(self):
        spec = HawkesSpec(np.array([0.25, 0.25]),
                          np.array([[0.3, 0.1], [0.1, 0.3]]), 1.0)
        assert spec.vocab_size == 2

    def test_shape_and_sign_validation(self):
        with pytest.raises(ValidationError):
            HawkesSpec(np.array([1.0, 1.0]), np.array([[0.1]]), 1.0)
        with pytest.raises(ValidationError):
            HawkesSpec(np.array([-1.0]), np.array([[0.1]]), 1.0)
        with pytest.raises(ValidationError):
            HawkesSpec(np.array([1.0]), np.array([[-0.1]]), 1.0)
        with pytest.raises(ValidationError):
            HawkesSpec(np.array([1.0]), np.array([[0.1]]), 0.0)


class TestHawkesSimulation:
    def test_shapes_and_domain(self):
        spec = HawkesSpec(np.array([0.5]), np.array([[0.5]]), 1.0)
        s = simulate_hawkes(spec, 200, seed=0)
        assert len(s) == 200
        assert (s.inter_times > 0).all()
        assert (s.marks == 0).all()

    def test_deterministic(self):
        spec = HawkesSpec(np.array([0.25, 0.25]),
                          np.array([[0.3, 0.1], [0.1, 0.3]]), 1.0)
        a = simulate_hawkes(spec, 100, seed=5)
        b = simulate_hawkes(spec, 100, seed=5)
        np.testing.assert_array_equal(a.inter_times, b.inter_times)
        np.testing.assert_array_equal(a.marks, b.marks)

    def test_stationary_rate(self):
        # stationary intensity mu / (1 - alpha/beta) = 1.0/(1-0.5) = 2.0
        spec = HawkesSpec(np.array([1.0]), np.array([[0.5]]), 1.0)
        n = 50000
        s = simulate_hawkes(spec, n, seed=11)
        rate = n / s.arrival_times()[-1]
        assert abs(rate - 2.0) / 2.0 < 0.05

    def test_self_excitation_clusters(self):
        # strong excitation makes inter-times overdispersed relative to
        # a Poisson process of the same mean rate (cv > 1)
        spec = HawkesSpec(np.array([0.2]), np.array([[0.8]]), 1.0)
        s = simulate_hawkes(spec, 20000, seed=2)
        dts = s.inter_times
        cv = dts.std() / dts.mean()
        assert cv > 1.1

    def test_mark_dependent_excitation_mixes_types(self):
        spec = HawkesSpec(np.array([0.25, 0.25]),
                          np.array([[0.3, 0.1], [0.1, 0.3]]), 1.0)
        s = simulate_hawkes(spec, 5000, seed=9)
        freqs = np.bincount(s.marks, minlength=2) / 5000
        # symmetric parameters: both types near 1/2
        np.testing.assert_allclose(freqs, [0.5, 0.5], atol=0.05)

    def test_short_buffer_is_extended_and_rerun(self, monkeypatch):
        # 256 uniforms emit 62 of 64 events; the rerun over 512 emits all 64
        spec = HawkesSpec([0.25, 0.25], [[0.3, 0.1], [0.1, 0.3]], 1.0)
        calls = []

        def counted(*args):
            result = hawkes_thinning(*args)
            calls.append((result[0], args[4].shape[0]))
            return result

        monkeypatch.setattr(synthgen.kernels, "hawkes_thinning", counted)
        s = simulate_hawkes(spec, 64, seed=[28])
        assert calls == [(62, 256), (64, 512)]
        dts = np.empty(64)
        marks = np.empty(64, dtype=np.int64)
        uniforms = np.random.default_rng([28]).random(512)
        assert hawkes_thinning(spec.base_rates, spec.excite, spec.decay, 64,
                               uniforms, dts, marks)[0] == 64
        np.testing.assert_array_equal(s.inter_times, np.maximum(dts, _TINY_DT))
        np.testing.assert_array_equal(s.marks, marks)


class TestKernelParity:
    def test_thinning_matches_reference(self):
        # the kernel on Python floats and the element-by-element reference
        # loop must agree exactly: decisions, draw counts and every value
        base = np.array([0.4, 0.6])
        excite = np.array([[0.2, 0.1], [0.05, 0.3]])
        uniforms = np.random.default_rng(1).random(4096)
        out = []
        for fn in (hawkes_thinning, kernel_reference.hawkes_thinning):
            dts = np.zeros(64)
            marks = np.zeros(64, dtype=np.int64)
            emitted, consumed = fn(base, excite, 1.0, 64, uniforms, dts, marks)
            out.append((emitted, consumed, dts.tobytes(), marks.tolist()))
        assert out[0][0] == 64
        assert out[0] == out[1]

    def test_prefix_rerun_extends_without_changing_prefix(self):
        # the retry loop in simulate_hawkes relies on this: rerunning with a
        # longer uniform buffer reproduces the already-emitted prefix
        base = np.array([0.5])
        excite = np.array([[0.4]])
        rng = np.random.default_rng(3)
        buf = rng.random(40)
        dts1 = np.zeros(32)
        marks1 = np.zeros(32, dtype=np.int64)
        emitted1, _ = hawkes_thinning(base, excite, 1.0, 32, buf, dts1, marks1)
        assert emitted1 < 32
        buf2 = np.concatenate([buf, rng.random(400)])
        dts2 = np.zeros(32)
        marks2 = np.zeros(32, dtype=np.int64)
        emitted2, _ = hawkes_thinning(base, excite, 1.0, 32, buf2, dts2, marks2)
        assert emitted2 == 32
        np.testing.assert_array_equal(dts1[:emitted1], dts2[:emitted1])
        np.testing.assert_array_equal(marks1[:emitted1], marks2[:emitted1])
