"""Differential tests: the FFT, the STFT and the resampler against independent
oracles (numpy.fft and scipy.signal, used here only, never by the package), and
decompose -> reconstruct for the wavelet configs at the edges of their range:
odd lengths, every depth up to max_level, all three boundary modes."""
from math import gcd

import numpy as np
import pytest
from scipy.signal import resample_poly

from tfsep.fourier import StftConfig, WindowKind, fft, ifft, make_window, stft
from tfsep.masking import DwtConfig, WptConfig, decompose, reconstruct
from tfsep.signal import PadMode, Signal, resample
from tfsep.wavelet import max_level


@pytest.mark.parametrize("log2n", range(17))
def test_fft_and_ifft_match_numpy(log2n, rng):
    n = 1 << log2n
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    for ours, ref in ((fft(x), np.fft.fft(x)), (ifft(x), np.fft.ifft(x))):
        # measured worst case over 2^0..2^16 is about 1e-15
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("window", list(WindowKind))
@pytest.mark.parametrize("win, hop, nfft", [(400, 160, 512), (256, 64, 256), (1000, 750, 1024)])
def test_stft_matches_numpy_rfft_of_the_frames(window, win, hop, nfft, rng):
    x = rng.normal(size=3001)
    tf = stft(Signal(x, 16000), StftConfig(window, win, hop, nfft))
    n_frames = 1 + -(-(x.size + 2 * (win // 2) - win) // hop)
    assert tf.coeffs.shape == (nfft // 2 + 1, n_frames)
    padded = np.pad(x, (win // 2, win // 2 + hop))
    frames = np.stack([padded[t * hop:t * hop + win] for t in range(n_frames)])
    ref = np.fft.rfft(frames * make_window(window, win), n=nfft).T
    assert np.max(np.abs(tf.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))


# The two resamplers are different windowed-sinc designs (64 taps with a Hann
# taper here, a Kaiser-windowed filter in scipy), so they agree to within their
# pass-band ripple, not to roundoff. On input of peak at most 1 with tones up to
# 0.35 * min(rate), the interior differs by at most 8.4e-4 (16 -> 10 kHz).
RESAMPLE_BOUND = 2e-3
EDGE = 100  # output samples at each end, where the two boundary treatments differ


@pytest.mark.parametrize("from_rate, to_rate", [
    (16000, 10000), (8000, 10000), (44100, 10000), (22050, 16000), (11025, 10000)])
def test_resample_matches_resample_poly(from_rate, to_rate):
    rng = np.random.default_rng(from_rate + to_rate)
    t = np.arange(from_rate) / from_rate
    freqs = rng.uniform(20.0, 0.35 * min(from_rate, to_rate), size=8)
    phases = rng.uniform(0.0, 2 * np.pi, size=8)
    x = np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None]).mean(axis=0)
    ours = resample(Signal(x, from_rate), to_rate).samples
    g = gcd(from_rate, to_rate)
    ref = resample_poly(x, to_rate // g, from_rate // g)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)[EDGE:-EDGE]) <= RESAMPLE_BOUND


def _resample_oracle(x, from_rate, to_rate):
    """The resampler's formula evaluated per output sample, with exact integer
    phases: output j sits at input position j*down/up = base + frac."""
    g = gcd(from_rate, to_rate)
    up, down = to_rate // g, from_rate // g
    j = np.arange(-(-x.size * up // down))
    base = j * down // up
    frac = (j * down % up) / up
    offsets = np.arange(-31, 33)
    u = offsets - frac[:, None]
    cutoff = 0.5 * min(1.0, up / down)
    kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / 32))
    kern /= kern.sum(axis=1, keepdims=True)
    idx = base[:, None] + offsets
    inside = (idx >= 0) & (idx < x.size)
    taps = np.where(inside, x[np.clip(idx, 0, x.size - 1)], 0.0)
    return (taps * kern).sum(axis=1)


@pytest.mark.parametrize("n", [1, 7, 100, 2001])
@pytest.mark.parametrize("from_rate, to_rate", [
    (16000, 10000), (8000, 10000), (44100, 10000), (22050, 16000), (11025, 10000),
    (8000, 8009), (8000, 12007)])
def test_resample_matches_per_output_oracle(from_rate, to_rate, n):
    x = np.random.default_rng(n + from_rate + to_rate).normal(size=n)
    ours = resample(Signal(x, from_rate), to_rate).samples
    ref = _resample_oracle(x, from_rate, to_rate)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-11


@pytest.mark.parametrize("config", [DwtConfig, WptConfig])
@pytest.mark.parametrize("mode", [PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC])
@pytest.mark.parametrize("wavelet", ["haar", "db4", "sym8", "coif5"])
def test_wavelet_roundtrip_at_odd_lengths_up_to_max_level(config, mode, wavelet, rng):
    for n in (3, 5, 7, 31, 101, 257, 1001):
        s = Signal(rng.normal(size=n), 8000)
        for levels in range(1, max_level(n) + 1):
            back = reconstruct(decompose(s, config(wavelet, levels, mode)))
            assert len(back) == n
            err = np.max(np.abs(back.samples - s.samples))
            assert err < 1e-10, (n, levels, err)
