"""Differential tests: the FFT, the STFT and the resampler against independent
oracles (numpy.fft and scipy.signal, used here only, never by the package), the
wavelet filter-bank kernels against a frozen per-tap implementation, and
decompose -> reconstruct for the wavelet configs at the edges of their range:
odd lengths, every depth up to max_level, all three boundary modes."""
from math import ceil, gcd

import numpy as np
import pytest
from scipy.signal import resample_poly

from tfsep.fourier import StftConfig, WindowKind, fft, ifft, make_window, stft
from tfsep.masking import DwtConfig, WptConfig, decompose, reconstruct
from tfsep.signal import PadMode, Signal, resample
from tfsep.wavelet import _analysis_pair, _synthesis_pair, lookup, max_level


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


# The filter-bank kernels as one numpy operation per tap, with the tiled
# periodization extension for bands shorter than the filter. The package's
# strided-window products must give these coefficients bit for bit.

def _per_tap_analysis(bands, bank, mode):
    k = len(bank)
    n = bands.shape[1]
    if mode == PadMode.PERIODIZATION:
        if n % 2:
            bands = np.concatenate([bands, np.zeros((bands.shape[0], 1))], axis=1)
            n += 1
        if k - 1 <= n:
            ext = np.concatenate([bands, bands[:, :k - 1]], axis=1)
        else:
            reps = ceil((n + k - 1) / n)
            ext = np.tile(bands, (1, reps))[:, :n + k - 1]
        phase, out_len = 0, n // 2
    else:
        pad_kw = {} if mode == PadMode.ZERO else {"mode": "symmetric"}
        ext = np.pad(bands, [(0, 0), (k - 1, k - 1)], **pad_kw)
        phase, out_len = 1, (n + k - 1) // 2
    lo = np.zeros((bands.shape[0], out_len))
    hi = np.zeros_like(lo)
    for i in range(k):
        seg = ext[:, phase + i: phase + i + 2 * out_len - 1: 2]
        lo += bank.rec_lo[i] * seg
        hi += bank.rec_hi[i] * seg
    return lo, hi


def _per_tap_synthesis(lo, hi, bank, mode, out_len):
    k = len(bank)
    m = lo.shape[1]
    full = np.zeros((lo.shape[0], 2 * m + k - 1))
    for i in range(k):
        full[:, i: i + 2 * m: 2] += bank.rec_lo[i] * lo
        full[:, i: i + 2 * m: 2] += bank.rec_hi[i] * hi
    if mode == PadMode.PERIODIZATION:
        n2 = 2 * m
        out = full[:, :n2].copy()
        for start in range(n2, full.shape[1], n2):
            block = full[:, start:start + n2]
            out[:, :block.shape[1]] += block
        return out[:, :out_len]
    return full[:, k - 2: k - 2 + out_len]


def _bit_identical(ours, ref):
    return (ours.shape == ref.shape and np.array_equal(ours, ref)
            and np.array_equal(np.signbit(ours), np.signbit(ref)))


@pytest.mark.parametrize("mode", [PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC])
@pytest.mark.parametrize("wavelet", ["haar", "db2", "sym8", "db20", "coif17"])
def test_filter_bank_kernels_match_per_tap_oracle(wavelet, mode, rng):
    bank = lookup(wavelet)
    # 1, 2, 3 and 7 are shorter than most of these filters (k - 1 > n)
    for n in (1, 2, 3, 7, 8, 64, 101, 1000, 1001, 12344, 12345):
        for rows in (1, 3):
            x = rng.normal(size=(rows, n))
            x[:, n // 3: n // 3 + 9] = 0.25          # a constant run
            half = n // 2
            x[:, 1:half:2] = x[:, 0:half - 1:2]      # equal pairs: Haar details of exactly 0
            lo, hi = _analysis_pair(x, bank, mode)
            ref_lo, ref_hi = _per_tap_analysis(x, bank, mode)
            assert _bit_identical(lo, ref_lo) and _bit_identical(hi, ref_hi), (n, rows)
            for out_len in (n, 2 * lo.shape[1]):
                ours = _synthesis_pair(lo, hi, bank, mode, out_len)
                ref = _per_tap_synthesis(lo, hi, bank, mode, out_len)
                assert _bit_identical(ours, ref), (n, rows, out_len)
