import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tfsep.signal import (PadMode, Signal, convolve, dot, downsample2, l2_norm,
                          pad, resample, upsample2)

finite_vectors = hnp.arrays(np.float64, st.integers(1, 64),
                            elements=st.floats(-1e3, 1e3, allow_nan=False))


class TestSignal:
    def test_validates_finiteness(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.nan]), 8000)
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.inf]), 8000)

    def test_validates_rate(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4), 0)
        with pytest.raises(ValueError):
            Signal(np.zeros(4), -16000)

    def test_duration(self):
        assert Signal(np.zeros(8000), 16000).duration == 0.5


class TestConvolve:
    def test_impulse_response(self):
        assert convolve([1, 0, 0], [1, 2]).tolist() == [1, 2, 0, 0]

    def test_impulse_identity(self):
        h = [0.3, -1.2, 2.0, 0.7]
        delta = [1.0]
        assert convolve(delta, h).tolist() == h

    def test_hand_expanded(self):
        assert convolve([1, 2, 3], [1, 1]).tolist() == [1, 3, 5, 3]

    def test_same_is_centered_slice(self):
        x = [1.0, 2.0, 3.0, 4.0]
        h = [1.0, 1.0, 1.0]
        full = convolve(x, h)
        assert convolve(x, h, "same").tolist() == full[1:5].tolist()
        assert convolve(x, h, "same").size == len(x)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            convolve([], [1.0])
        with pytest.raises(ValueError):
            convolve([1.0], [])

    @given(finite_vectors, finite_vectors)
    def test_commutative(self, x, h):
        assert np.allclose(convolve(x, h), convolve(h, x), atol=1e-12)

    @given(finite_vectors, finite_vectors, st.floats(-3, 3), st.floats(-3, 3))
    def test_linear(self, x, h, a, b):
        y = np.linspace(-1, 1, x.size)
        lhs = convolve(a * x + b * y, h)
        rhs = a * convolve(x, h) + b * convolve(y, h)
        scale = max(1.0, np.abs(rhs).max())
        assert np.allclose(lhs, rhs, atol=1e-12 * scale)


class TestRateChangers:
    def test_downsample(self):
        assert downsample2([1, 2, 3, 4]).tolist() == [1, 3]
        assert downsample2([5]).tolist() == [5]

    def test_upsample(self):
        assert upsample2([1, 3]).tolist() == [1, 0, 3, 0]
        assert upsample2([]).tolist() == []

    @given(finite_vectors)
    def test_down_then_up_zeroes_odd(self, x):
        out = upsample2(downsample2(x))[:x.size]
        assert np.array_equal(out[::2], x[::2])
        assert not np.any(out[1::2])

    @given(finite_vectors)
    def test_up_then_down_is_identity(self, x):
        assert np.array_equal(downsample2(upsample2(x)), x)


class TestPad:
    def test_zero(self):
        assert pad([1, 2], 4, PadMode.ZERO).tolist() == [1, 2, 0, 0]

    def test_periodic(self):
        assert pad([1, 2], 4, PadMode.PERIODIZATION).tolist() == [1, 2, 1, 2]

    def test_symmetric_repeats_last(self):
        assert pad([1, 2, 3], 5, PadMode.SYMMETRIC).tolist() == [1, 2, 3, 3, 2]

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            pad([1, 2, 3], 2, PadMode.ZERO)

    @given(finite_vectors, st.integers(0, 40), st.sampled_from(list(PadMode)))
    def test_length_and_prefix(self, x, extra, mode):
        out = pad(x, x.size + extra, mode)
        assert out.size == x.size + extra
        assert np.array_equal(out[:x.size], x)


class TestNorms:
    def test_pythagorean(self):
        assert l2_norm([3, 4]) == 5.0

    def test_orthogonal_dot(self):
        assert dot([1, 0], [0, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot([1, 2], [1, 2, 3])

    @given(finite_vectors)
    def test_norm_squared_is_self_dot(self, x):
        assert np.isclose(l2_norm(x) ** 2, dot(x, x), rtol=1e-12, atol=1e-12)


class TestResample:
    def test_same_rate_is_same_object(self):
        s = Signal(np.arange(100) / 100.0, 16000)
        assert resample(s, 16000) is s

    def test_constant_preserved(self):
        s = Signal(np.full(5000, 0.25), 16000)
        for rate in (10000, 8000, 44100):
            out = resample(s, rate)
            # skip the kernel-width edge roll-off at both ends
            edge = int(np.ceil(40 * rate / 16000)) + 2
            assert np.max(np.abs(out.samples[edge:-edge] - 0.25)) < 1e-6

    def test_duration_preserved(self):
        s = Signal(np.zeros(16000), 16000)
        out = resample(s, 10000)
        assert abs(len(out) - 10000) <= 1

    def test_sinusoid_peak_survives(self):
        # DFT-peak oracle: the dominant bin must stay at 440 Hz
        t = np.arange(32000) / 16000.0
        s = Signal(0.5 * np.sin(2 * np.pi * 440.0 * t), 16000)
        out = resample(s, 10000)
        assert out.rate == 10000
        n = 1 << 14
        spec = np.abs(np.fft.rfft(out.samples[:n]))
        peak_hz = np.argmax(spec) * 10000 / n
        assert abs(peak_hz - 440.0) <= 10000 / n + 1e-9

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            resample(Signal(np.zeros(10), 8000), 0)

    def test_empty_signal_stays_empty(self):
        out = resample(Signal(np.zeros(0), 8000), 10000)
        assert out.rate == 10000 and len(out) == 0

    def test_memory_does_not_follow_the_input_rate(self):
        # the padded input must not grow with the decimation factor (here
        # 2,000,003), or a huge header rate asks for gigabytes
        import tracemalloc
        s = Signal(np.random.default_rng(2).normal(size=1000), 2_000_003)
        tracemalloc.start()
        try:
            out = resample(s, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 5
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("from_rate, n", [(16000, 3_840_000), (100, 48_000)])
    def test_scratch_beyond_the_output_is_constant(self, from_rate, n):
        # the input is read in place: no padded copy of it (29 MiB for these
        # 240 s at 16 kHz), and no mask of the output's finite values
        import tracemalloc
        s = Signal(np.random.default_rng(3).normal(size=n), from_rate)
        tracemalloc.start()
        try:
            out = resample(s, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.samples.nbytes < 1 << 16, peak - out.samples.nbytes
