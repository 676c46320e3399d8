import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfsep import metrics
from tfsep.metrics import MetricError, mse, si_sdr, snr, stoi, stoi_reference
from tfsep.synth import speech_like


class TestMse:
    def test_identical_is_zero(self, rng):
        s = rng.normal(size=100)
        assert mse(s, s) == 0.0

    def test_gain_formula(self, rng):
        s = rng.normal(size=256)
        for alpha in (0.5, 0.9, 1.1, 2.0):
            expected = (1 - alpha) ** 2 * np.sum(s ** 2) / s.size
            assert np.isclose(mse(s, alpha * s), expected, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


class TestSnr:
    def test_gain_formula(self, rng):
        s = rng.normal(size=256)
        for alpha in (0.5, 0.9, 1.1, 2.0):
            expected = -20.0 * math.log10(abs(1 - alpha))
            assert abs(snr(s, alpha * s) - expected) < 1e-9

    def test_identical_is_infinite(self, rng):
        s = rng.normal(size=64)
        assert snr(s, s.copy()) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            snr(np.zeros(3), np.zeros(4))


class TestSiSdr:
    def test_hand_computed_case(self):
        # alpha = 1, residual [0, 1]: equal energies, 0 dB
        assert abs(si_sdr([1.0, 0.0], [1.0, 1.0])) < 1e-12

    def test_scale_invariance(self, rng):
        s = rng.normal(size=512)
        s_hat = s + 0.1 * rng.normal(size=512)
        base = si_sdr(s, s_hat)
        for beta in (0.3, 2.0, -1.7, 1e3):
            assert abs(si_sdr(s, beta * s_hat) - base) < 1e-9

    def test_rescaled_reference_is_infinite(self, rng):
        s = rng.normal(size=64)
        assert si_sdr(s, s.copy()) == math.inf
        assert si_sdr(s, 2.0 * s) == math.inf

    def test_orthogonal_estimate_degenerates(self):
        assert si_sdr([1.0, 0.0], [0.0, 1.0]) == -math.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError, match="si_sdr reference must be non-zero"):
            si_sdr(np.zeros(8), np.ones(8))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_residual_orthogonal_to_reference(self, seed):
        gen = np.random.default_rng(seed)
        s = gen.normal(size=128)
        s_hat = gen.normal(size=128)
        alpha = np.dot(s, s_hat) / np.sum(s ** 2)
        residual = alpha * s - s_hat
        bound = 1e-9 * np.linalg.norm(s) * max(np.linalg.norm(residual), 1e-30)
        assert abs(np.dot(residual, s)) <= bound


class TestStoi:
    def test_identical_is_one(self, speech_signal):
        value = stoi(speech_signal.samples, speech_signal.samples, speech_signal.rate)
        assert abs(value - 1.0) < 1e-9

    def test_more_noise_scores_lower(self, speech_signal, rng):
        s = speech_signal.samples
        power = np.mean(s ** 2)
        noise = rng.normal(size=s.size)
        noise *= np.sqrt(power / np.mean(noise ** 2))
        loud = stoi(s, s + noise, speech_signal.rate)              # 0 dB SNR
        quiet = stoi(s, s + 0.1 * noise, speech_signal.rate)       # 20 dB SNR
        assert 0.0 <= loud <= 1.0 and 0.0 <= quiet <= 1.0
        assert loud < quiet

    def test_gain_invariance(self, speech_signal, rng):
        s = speech_signal.samples
        degraded = s + 0.05 * rng.normal(size=s.size)
        base = stoi(s, degraded, speech_signal.rate)
        for gain in (0.1, 3.0):
            assert abs(stoi(s, gain * degraded, speech_signal.rate) - base) < 1e-6

    def test_too_short_rejected(self, rng):
        with pytest.raises(MetricError):
            stoi(rng.normal(size=1000), rng.normal(size=1000), 16000)

    def test_silent_reference_rejected(self, rng):
        with pytest.raises(MetricError):
            stoi(np.zeros(16000), rng.normal(size=16000), 16000)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stoi(np.zeros(8000), np.zeros(8001), 16000)

    def test_band_ranges_are_the_containment_bins(self):
        # 15 adjacent, non-empty ranges from bin 4 up to bin 110 of the 129
        edges = metrics._stoi_band_edges()
        assert len(edges) == 16 and edges[0] == 4 and edges[-1] == 110
        assert [list(range(a, b)) for a, b in zip(edges[:-1], edges[1:])] == [
            list(bins) for bins in _containment_bands()]
        assert all(a < b for a, b in zip(edges[:-1], edges[1:]))

    def test_range(self, rng):
        gen = np.random.default_rng(99)
        clean = speech_like(1.5, 16000, gen).samples
        garbage = rng.normal(size=clean.size)
        value = stoi(clean, garbage, 16000)
        assert 0.0 <= value <= 1.0


def _containment_bands():
    """The DFT bins of each STOI band: those whose frequency f lies in
    [center * 2^(-1/6), center * 2^(1/6)), centers a third of an octave apart
    from 150 Hz."""
    m = metrics
    freqs = m.stft_frequencies(m._STOI_WIN, m._STOI_RATE)
    centers = m._STOI_LOWEST_CENTER * 2.0 ** (np.arange(m._STOI_BANDS) / 3.0)
    return [np.flatnonzero((freqs >= c * 2.0 ** (-1.0 / 6.0)) & (freqs < c * 2.0 ** (1.0 / 6.0)))
            for c in centers]


def _frozen_stoi(s, s_hat, rate):
    """stoi as it was before its two pipelines became one function and its
    segment loop one strided view: the oracle the current stoi must match."""
    m = metrics
    s, s_hat = m._as_pair(s, s_hat)
    clean = m.resample(m.Signal(s, rate), m._STOI_RATE).samples
    degraded = m.resample(m.Signal(s_hat, rate), m._STOI_RATE).samples
    if clean.size < m._STOI_WIN:
        raise MetricError("signals too short for STOI (need at least 384 ms)")
    if not np.any(clean):
        raise MetricError("clean signal is silent")

    window = m.make_window(m.WindowKind.HANN, m._STOI_WIN)
    frames_c = m._frame(clean, m._STOI_WIN, m._STOI_HOP) * window
    frames_d = m._frame(degraded, m._STOI_WIN, m._STOI_HOP) * window
    energy = np.sum(frames_c ** 2, axis=1)
    keep = energy > energy.max() * 10.0 ** (-m._STOI_SILENCE_DB / 10.0)
    frames_c = frames_c[keep]
    frames_d = frames_d[keep]
    if frames_c.shape[0] < m._STOI_FRAMES:
        raise MetricError(
            f"fewer than {m._STOI_FRAMES} frames remain after silent-frame removal")

    spec_c = np.abs(m._fft_core(frames_c.astype(np.complex128), -1.0)[:, :m._STOI_WIN // 2 + 1])
    spec_d = np.abs(m._fft_core(frames_d.astype(np.complex128), -1.0)[:, :m._STOI_WIN // 2 + 1])
    # each band by center-frequency containment, added in numpy's fixed order
    # (the first bin, then the rest); a band-matrix product would run on BLAS
    bands = _containment_bands()
    lo, hi = bands[0][0], bands[-1][-1] + 1
    starts = [b[0] - lo for b in bands]
    env_c = np.sqrt(np.add.reduceat(spec_c[:, lo:hi] ** 2, starts, axis=1)).T.copy()
    env_d = np.sqrt(np.add.reduceat(spec_d[:, lo:hi] ** 2, starts, axis=1)).T.copy()

    n_frames = env_c.shape[1]
    clip_gain = 1.0 + 10.0 ** (-m._STOI_CLIP_DB / 20.0)
    correlations = []
    for k in range(m._STOI_FRAMES - 1, n_frames):
        x = env_c[:, k - m._STOI_FRAMES + 1: k + 1]
        y = env_d[:, k - m._STOI_FRAMES + 1: k + 1]
        norm_x = np.linalg.norm(x, axis=1, keepdims=True)
        norm_y = np.linalg.norm(y, axis=1, keepdims=True)
        scale = norm_x / np.where(norm_y == 0.0, 1.0, norm_y)
        y = np.minimum(y * scale, clip_gain * x)
        xc = x - x.mean(axis=1, keepdims=True)
        yc = y - y.mean(axis=1, keepdims=True)
        denom = np.linalg.norm(xc, axis=1) * np.linalg.norm(yc, axis=1)
        num = np.sum(xc * yc, axis=1)
        correlations.append(np.where(denom == 0.0, 0.0, num / np.where(denom == 0.0, 1.0, denom)))
    return float(np.mean(correlations))


def _stoi_outcome(fn, clean, degraded, rate):
    try:
        return fn(clean, degraded, rate)
    except MetricError as exc:
        return f"MetricError: {exc}"


def _stoi_via_reference(clean, degraded, rate):
    return stoi(clean, degraded, rate, stoi_reference(clean, rate))


class TestStoiMatchesFrozenLoop:
    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 44100])
    @pytest.mark.parametrize("duration", [0.02, 0.3, 0.39, 1.7])
    def test_every_degradation(self, rate, duration):
        # 0.02 s is under one 256-sample frame at 10 kHz, 0.3 s under 30 frames
        gen = np.random.default_rng(round(rate * duration))
        def draw():
            if duration > 0.1:
                return speech_like(duration, rate, gen).samples
            return gen.normal(size=int(rate * duration))
        clean, other = draw(), draw()
        n = clean.size
        noise = gen.normal(size=n)
        cases = {"mixture": clean + other, "clean": clean, "scaled": 0.3 * clean,
                 "noisy": clean + 0.1 * noise, "silence": np.zeros(n), "unrelated": noise}
        for name, degraded in cases.items():
            outcome = _stoi_outcome(stoi, clean, degraded, rate)
            assert outcome == _stoi_outcome(_frozen_stoi, clean, degraded, rate), name
            assert outcome == _stoi_outcome(_stoi_via_reference, clean, degraded, rate), name

    def test_twelve_seconds(self, rng):
        clean = speech_like(12.0, 16000, np.random.default_rng(12)).samples
        other = speech_like(12.0, 16000, np.random.default_rng(13)).samples
        for degraded in (clean + other, clean + 0.1 * rng.normal(size=clean.size)):
            assert stoi(clean, degraded, 16000) == _frozen_stoi(clean, degraded, 16000)
            assert stoi(clean, degraded, 16000) == _stoi_via_reference(clean, degraded, 16000)

    @pytest.mark.parametrize("rate, n", [(10000, 4863), (16000, 7780)])
    def test_clean_sound_only_after_the_last_full_frame(self, rate, n, rng):
        # at 10 kHz both are 4863 samples: 36 full frames end at 4736, and the
        # 64-tap resampler spreads the last 100 input samples over fewer than
        # the 127 that follow, so every frame is silent but the signal is not
        clean = np.zeros(n)
        clean[-100:] = rng.normal(size=100)
        degraded = rng.normal(size=n)
        outcome = _stoi_outcome(stoi, clean, degraded, rate)
        assert outcome == _stoi_outcome(_frozen_stoi, clean, degraded, rate)
        assert outcome == _stoi_outcome(_stoi_via_reference, clean, degraded, rate)
        assert outcome == "MetricError: fewer than 30 frames remain after silent-frame removal"


@pytest.fixture(scope="module")
def four_minutes():
    """A clean 240 s, 16 kHz recording and its mixture with another."""
    clean = speech_like(240.0, 16000, np.random.default_rng(240)).samples
    return clean, clean + speech_like(240.0, 16000, np.random.default_rng(241)).samples


class TestStoiBlocks:
    """STOI walks its frames and its 30-frame segments a block of
    _STOI_BLOCK at a time: no block edge moves a bit, and its memory beyond
    the inputs holds the 10 kHz signals and the envelopes, not every
    segment's 30 values."""

    def test_four_minutes(self, four_minutes):
        clean, degraded = four_minutes
        assert stoi(clean, degraded, 16000) == _frozen_stoi(clean, degraded, 16000)

    @pytest.mark.parametrize("segments", [127, 128, 129, 257])
    def test_segment_counts_on_block_edges(self, segments, rng):
        # 10 kHz needs no resampling, and noise keeps every frame
        n = metrics._STOI_WIN + (segments + metrics._STOI_FRAMES - 2) * metrics._STOI_HOP
        clean = rng.normal(size=n)
        degraded = clean + rng.normal(size=n)
        assert stoi_reference(clean, 10000).norms.shape == (segments, metrics._STOI_BANDS)
        assert stoi(clean, degraded, 10000) == _frozen_stoi(clean, degraded, 10000)

    # 5.53 and 98.3 MiB when every segment was copied out whole
    @pytest.mark.parametrize("seconds, bound_mib", [(12.0, 3.0), (240.0, 32.0)])
    def test_peak_without_a_reference(self, seconds, bound_mib, four_minutes):
        clean, degraded = four_minutes
        n = int(seconds * 16000)
        clean, degraded = clean[:n].copy(), degraded[:n].copy()
        tracemalloc.start()
        try:
            stoi(clean, degraded, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20, peak / 2 ** 20


class TestStoiReference:
    def test_one_reference_scores_many_estimates(self, speech_signal, rng):
        s, rate = speech_signal.samples, speech_signal.rate
        ref = stoi_reference(s, rate)
        arrays = [a.copy() for a in (ref.keep, ref.envelopes, ref.norms, ref.means,
                                     ref.centred_norms)]
        for degraded in (s + rng.normal(size=s.size), 0.5 * s, np.zeros(s.size), s):
            assert stoi(s, degraded, rate, ref) == stoi(s, degraded, rate)
        after = (ref.keep, ref.envelopes, ref.norms, ref.means, ref.centred_norms)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, after))   # only read

    @pytest.mark.parametrize("clean, error", [
        (np.zeros(16000), "clean signal is silent"),
        (np.ones(300), "signals too short"),
        (np.ones(4000), "fewer than 30 frames"),
        (np.full(16000, np.nan), "finite"),
        (np.zeros(0), "empty signals have no score"),
    ])
    def test_raises_what_stoi_raises(self, clean, error, rng):
        with pytest.raises(ValueError, match=error) as by_stoi:
            stoi(clean, rng.normal(size=clean.size), 16000)
        with pytest.raises(ValueError, match=error) as by_reference:
            stoi_reference(clean, 16000)
        assert type(by_stoi.value) is type(by_reference.value)

    def test_signals_are_checked_before_the_reference(self, speech_signal):
        s, rate = speech_signal.samples, speech_signal.rate
        ref = stoi_reference(s, rate)
        with pytest.raises(ValueError, match="length mismatch"):
            stoi(s, s[:-1], rate, ref)
        with pytest.raises(ValueError, match="finite"):
            stoi(s, np.full(s.size, np.inf), rate, ref)

    @pytest.mark.parametrize("trim, rate", [(1, 16000), (0, 8000)])
    def test_reference_of_another_signal_rejected(self, speech_signal, trim, rate):
        s = speech_signal.samples
        ref = stoi_reference(s, speech_signal.rate)
        other = s[trim:]
        with pytest.raises(ValueError, match="STOI reference is for"):
            stoi(other, other, rate, ref)
