"""Differential tests: the FFT, the real-input FFT, the STFT and the resampler
against independent oracles (numpy.fft and scipy.signal, used here only, never
by the package); the FFT core, the overlap-add and the real-FFT path of
stft/istft against frozen earlier implementations, bit for bit; the wavelet
filter-bank kernels and the resampler against their products summed in
einsum's two-lane order, bit for bit; and
decompose -> reconstruct for the wavelet configs at the edges of their range:
odd lengths, every depth up to max_level, all three boundary modes."""
from math import ceil, gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from scipy.signal import resample_poly

from tfsep.fourier import (_CHUNK_POINTS, StftConfig, WindowKind, _fft_core, _frame,
                           _frame_count, _half_twiddles, _irfft, _overlap_add, _rfft, fft,
                           ifft, istft, make_window, stft)
from tfsep.masking import DwtConfig, WptConfig, decompose, reconstruct
from tfsep.signal import PadMode, Signal, resample
from tfsep.wavelet import (_analysis_pair, _length_chain, _synthesis_pair, dwt_bands,
                           gray_permutation, lookup, max_level)


@pytest.mark.parametrize("log2n", range(17))
def test_fft_and_ifft_match_numpy(log2n, rng):
    n = 1 << log2n
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    for ours, ref in ((fft(x), np.fft.fft(x)), (ifft(x), np.fft.ifft(x))):
        # measured worst case over 2^0..2^16 is about 1e-15
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref)), n


def _bit_identical(ours, ref):
    return (ours.shape == ref.shape and np.array_equal(ours, ref)
            and np.array_equal(np.signbit(ours), np.signbit(ref)))


@pytest.mark.parametrize("log2n", range(1, 17))
def test_rfft_and_irfft_match_numpy(log2n, rng):
    n = 1 << log2n
    # rows shorter than n are zero-padded, as stft's frames are
    for width in sorted({1, 2, 3, n // 2 + 1, n - 1, n} & set(range(1, n + 1))):
        frames = rng.normal(size=(3, width))
        ref = np.fft.rfft(frames, n)
        assert (np.max(np.abs(_rfft(frames, n, window=1.0) - ref))
                <= 1e-13 * np.max(np.abs(ref))), (n, width)
    spec = rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1))
    ref = np.fft.irfft(spec, n)
    for layout in (spec, np.asfortranarray(spec)):   # istft passes a transposed view
        # the chunks are views of one buffer, so each is copied before the next
        back = np.concatenate([rows.copy() for rows in _irfft(layout, n)])
        assert np.max(np.abs(back - ref)) <= 1e-13 * np.max(np.abs(ref)), n


def test_rfft_end_bins_are_the_complex_transforms(rng):
    # bins 0 and n/2 are real and equal the complex transform's bit for bit,
    # so ideal-binary-mask ties there (silence: |T| = |I| = 0) stay ties
    for n in (2, 8, 256, 4096):
        frames = rng.normal(size=(5, max(1, n - 3)))
        frames[0] = 0.0
        padded = np.zeros((5, n), dtype=np.complex128)
        padded[:, :frames.shape[1]] = frames
        ref = _fft_core(padded, -1.0)[:, [0, n // 2]]
        ours = _rfft(frames, n, window=1.0)[:, [0, n // 2]]
        assert _bit_identical(ours.real, ref.real) and np.all(ours.imag == 0.0), n


def _radix2_fft(x, sign):
    """The package's earlier FFT: bit-reversal permutation, then one radix-2
    decimation-in-time stage per level with a concatenate."""
    n = x.shape[-1]
    idx, rev = np.arange(n), np.zeros(n, dtype=np.intp)
    for _ in range(n.bit_length() - 1):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    out = x[..., rev]
    m = 1
    while m < n:
        tw = np.exp((sign * 1j * np.pi / m) * np.arange(m))
        v = out.reshape(out.shape[:-1] + (n // (2 * m), 2, m))
        even = v[..., 0, :]
        odd = v[..., 1, :] * tw
        out = np.concatenate([even + odd, even - odd], axis=-1)
        out = out.reshape(out.shape[:-2] + (n,))
        m *= 2
    return out


# STOI's scores depend on these bits: it runs the complex core on its frames.
@pytest.mark.parametrize("log2n", range(13))
def test_fft_core_matches_radix2_oracle_bit_for_bit(log2n, rng):
    n = 1 << log2n
    # one row, a batch that splits into uneven chunks, a 3-d batch, and a
    # Fortran-ordered batch; every result is C-contiguous
    rows = 2 * max(1, _CHUNK_POINTS // n) + 3
    for shape, order in (((n,), "C"), ((rows, n), "C"), ((2, 3, n), "C"), ((rows, n), "F")):
        x = np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape), order=order)
        x[..., :n // 4] = 0.0                        # zero-padded rows, as in stft
        for sign in (-1.0, 1.0):
            ours, ref = _fft_core(x, sign), _radix2_fft(x, sign)
            assert ours.flags.c_contiguous, (shape, order)
            assert _bit_identical(ours.real, ref.real) and _bit_identical(ours.imag, ref.imag)


def _per_frame_overlap_add(frames, wsyn, hop):
    """istft's earlier overlap-add: one frame at a time."""
    n_frames, nfft = frames.shape
    total = (n_frames - 1) * hop + nfft
    num = np.zeros(total)
    den = np.zeros(total)
    for t in range(n_frames):
        start = t * hop
        num[start:start + nfft] += frames[t] * wsyn
        den[start:start + nfft] += wsyn * wsyn
    return num, den


@pytest.mark.parametrize("n_frames, win, hop, nfft", [
    (40, 64, 1, 64),           # hop 1
    (37, 400, 160, 512),       # hops that do not divide the FFT size
    (25, 200, 75, 256),
    (30, 300, 300, 512),       # hop = window < FFT size
    (1, 256, 128, 256),        # a single frame
    (9601, 40, 10, 64),        # 12 s at 8 kHz, 5 ms window, 1.25 ms hop
    (481, 800, 400, 1024)])    # 12 s at 16 kHz, 50 ms window, 25 ms hop
@pytest.mark.parametrize("window", list(WindowKind))
def test_overlap_add_matches_per_frame_oracle_bit_for_bit(n_frames, win, hop, nfft, window, rng):
    frames = rng.normal(size=(n_frames, nfft))
    frames[::3, :win // 3] = 0.0
    wsyn = np.zeros(nfft)
    wsyn[:win] = make_window(window, win)
    ref_num, ref_den = _per_frame_overlap_add(frames, wsyn, hop)

    def sums(width):                       # zeroed (frames + blocks) x hop rows
        return np.zeros((n_frames - (-width // hop), hop))
    num = _overlap_add(frames * wsyn, hop, sums(nfft))
    den = _overlap_add(np.broadcast_to(wsyn * wsyn, frames.shape), hop, sums(nfft))
    assert _bit_identical(num, ref_num) and _bit_identical(den, ref_den)
    # istft adds only the window's width: the rest of the sums is +0.0
    wsyn = wsyn[:win]
    num = _overlap_add(frames[:, :win] * wsyn, hop, sums(win))
    den = _overlap_add(np.broadcast_to(wsyn * wsyn, (n_frames, win)), hop, sums(win))
    size = num.size
    assert size == (n_frames - 1) * hop + win
    assert _bit_identical(num, ref_num[:size]) and _bit_identical(den, ref_den[:size])
    assert _bit_identical(ref_num[size:], np.zeros(nfft - win))


def _frozen_rfft(frames, n):
    """stft's earlier real FFT: the frames copied into a packed buffer, a
    separate transform output, and the half-twiddle unpack over all rows."""
    rows, width = frames.shape
    m = n // 2
    spec = np.zeros((rows, m + 1), dtype=np.complex128)
    spec.view(np.float64)[:, :width] = frames
    z = _fft_core(spec[:, :m], -1.0)
    a, b = _half_twiddles(n)
    np.conjugate(z[:, :1], out=spec[:, :1])
    np.conjugate(z[:, ::-1], out=spec[:, 1:])
    spec *= b
    spec[:, m] += z[:, 0] * a[m]
    z *= a[:m]
    spec[:, :m] += z
    return spec


def _frozen_irfft(spec, n):
    """istft's earlier real inverse: a whole-matrix mirror term and a
    separate transform output."""
    m = n // 2
    a, b = _half_twiddles(n)
    z = np.empty((spec.shape[0], m), dtype=np.complex128)
    np.multiply(spec[:, 1:m], np.conjugate(a[1:m]), out=z[:, 1:])
    mirror = np.conjugate(spec[:, m - 1:0:-1])
    mirror *= np.conjugate(b[1:m])
    z[:, 1:] += mirror
    dc, nyquist = spec[:, 0].real, spec[:, m].real
    z[:, 0] = 0.5 * (dc + nyquist) + 0.5j * (dc - nyquist)
    samples = _fft_core(z, 1.0).view(np.float64)
    samples /= m
    return samples


def _frozen_overlap_add(frames, window, hop):
    """istft's earlier overlap-add: a weighted copy of every frame, folded."""
    n_frames, width = frames.shape
    blocks = -(-width // hop)
    weighted = np.zeros((n_frames, blocks * hop))
    np.multiply(frames, window, out=weighted[:, :width])
    squares = np.zeros(blocks * hop)
    squares[:width] = window * window
    num = np.zeros((n_frames + blocks, hop))
    den = np.zeros((n_frames + blocks, hop))
    for blk in range(blocks - 1, -1, -1):
        cols = slice(blk * hop, (blk + 1) * hop)
        num[blk:blk + n_frames] += weighted[:, cols]
        den[blk:blk + n_frames] += squares[cols]
    total = (n_frames - 1) * hop + width
    return num.reshape(-1)[:total], den.reshape(-1)[:total]


def _frozen_stft_istft(x, cfg):
    """The coefficients and the samples (or None where istft must raise) of
    the earlier stft and istft."""
    edge, win = cfg.win_size // 2, cfg.win_size
    n_frames = _frame_count(x.size, cfg)
    tail = (n_frames - 1) * cfg.hop + win - edge - x.size
    window = make_window(cfg.window, win)
    frames = np.multiply(_frame(np.pad(x, (edge, tail)), win, cfg.hop), window)
    coeffs = _frozen_rfft(frames, cfg.fft_size).T
    num, den = _frozen_overlap_add(_frozen_irfft(coeffs.T, cfg.fft_size)[:, :win], window,
                                   cfg.hop)
    num, den = num[edge:edge + x.size], den[edge:edge + x.size]
    return coeffs, None if np.any(den < 1e-12) else num / den


def _istft_blocks(n_frames, half):
    """Rows per block and blocks of istft's block loop over n_frames frames
    of half + 1 bins: one FFT chunk per block."""
    rows = max(1, min(_CHUNK_POINTS // half, n_frames))
    return rows, -(-n_frames // rows)


# stft writes the windowed frames straight into the packed buffer and
# transforms in place; istft inverts, windows and adds one FFT chunk of frames
# at a time, builds its mirror term in the chunk buffers and keeps the window-square
# sums of a few frames only. None of it may move a bit. Every window size has
# a case whose inverse spans 3 blocks or more and ends mid-block.
@pytest.mark.parametrize("win", [2, 3, 5, 8, 40, 100, 257, 512, 800, 1024])
def test_stft_and_istft_match_the_frozen_real_fft_path_bit_for_bit(win, rng):
    spanned = False
    for n in (1, 2, 3, 17, 1001, 4000, 16000, 40001):
        x = rng.normal(size=n)
        x[::7] = -0.0                         # signed zeros reach the packed rows
        for hop in sorted({1, 2, max(1, win // 4), max(1, win // 2), max(1, 3 * win // 4), win}):
            for kind in WindowKind:
                cfg = StftConfig(kind, win, hop)
                if _frame_count(n, cfg) * cfg.fft_size > 1 << 20:
                    continue
                ref_coeffs, ref_samples = _frozen_stft_istft(x, cfg)
                tf = stft(Signal(x, 8000), cfg)
                case = (n, win, hop, kind)
                assert _bit_identical(tf.coeffs.real, ref_coeffs.real), case
                assert _bit_identical(tf.coeffs.imag, ref_coeffs.imag), case
                if ref_samples is None:
                    with pytest.raises(ValueError, match="uncovered"):
                        istft(tf)
                else:
                    assert _bit_identical(istft(tf).samples, ref_samples), case
                    rows, blocks = _istft_blocks(_frame_count(n, cfg), cfg.fft_size // 2)
                    spanned |= blocks >= 3 and _frame_count(n, cfg) % rows > 0
    assert spanned


@pytest.mark.parametrize("window", list(WindowKind))
@pytest.mark.parametrize("win, hop, nfft", [(400, 160, 512), (256, 64, 256), (1000, 750, 1024)])
def test_stft_matches_numpy_rfft_of_the_frames(window, win, hop, nfft, rng):
    x = rng.normal(size=3001)
    cfg = StftConfig(window, win, hop)
    assert cfg.fft_size == nfft
    tf = stft(Signal(x, 16000), cfg)
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


def _resample_oracle(x, from_rate, to_rate, total=lambda prods: prods.sum(axis=1)):
    """The resampler's formula evaluated per output sample: output j sits at
    input position j*down/up = base + frac, base an exact integer and frac
    rounded as the resampler rounds it, phase*down/up less its floor for
    phase = j mod up. `total` sums each output's 64 products."""
    g = gcd(from_rate, to_rate)
    up, down = to_rate // g, from_rate // g
    j = np.arange(-(-x.size * up // down))
    base = j * down // up
    t = j % up * down / up
    frac = t - np.floor(t)
    offsets = np.arange(-31, 33)
    u = offsets - frac[:, None]
    cutoff = 0.5 * min(1.0, up / down)
    kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / 32))
    kern /= kern.sum(axis=1, keepdims=True)
    idx = base[:, None] + offsets
    inside = (idx >= 0) & (idx < x.size)
    taps = np.where(inside, x[np.clip(idx, 0, x.size - 1)], 0.0)
    return total(taps * kern)


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


@pytest.mark.parametrize("n", [1, 7, 100, 2001])
@pytest.mark.parametrize("from_rate, to_rate", [
    (16000, 10000), (8000, 10000), (44100, 10000), (22050, 16000), (11025, 10000),
    (8000, 8009), (8000, 12007), (5000, 10000)])
def test_resample_sums_in_two_lane_order(from_rate, to_rate, n):
    x = np.random.default_rng(n + from_rate + to_rate).normal(size=n)
    ours = resample(Signal(x, from_rate), to_rate).samples
    assert _bit_identical(ours, _resample_oracle(x, from_rate, to_rate, _two_lane))


def _frozen_padded_resample(x, from_rate, to_rate):
    """resample as it was when it read every output's 64 samples from one
    zero-padded copy of its whole input: the oracle for reading them in place."""
    g = gcd(from_rate, to_rate)
    up, down = to_rate // g, from_rate // g
    n_out = ceil(x.size * up / down)
    half = 32
    cutoff = 0.5 * min(1.0, up / down)
    offsets = np.arange(-half + 1, half + 1)
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + 2)])
    windows = sliding_window_view(xp, 2 * half)
    out = np.empty(n_out)
    for phase in range(min(up, n_out)):
        t = phase * down / up
        base = int(np.floor(t))
        frac = t - base
        u = offsets - frac
        kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))
        kern /= kern.sum()
        count = len(range(phase, n_out, up))
        np.einsum("jk,k->j", windows[base + 1::down][:count], kern, out=out[phase::up])
    return out


# lengths about the 64-sample kernel's reach at either end, and long inputs, up
# to `longest` samples: 4M outputs at most, and fewer where each of 8009 or
# 10,000 output phases builds its own kernel
@pytest.mark.parametrize("from_rate, to_rate, longest", [
    (16000, 10000, 192000), (8000, 10000, 192000), (44100, 10000, 192000),
    (22050, 10000, 192000), (11025, 10000, 192000), (48000, 10000, 192000),
    (10000, 16000, 192000), (100, 10000, 48000), (7, 10000, 33), (8000, 8009, 4863)])
def test_resample_matches_the_padded_copy_bit_for_bit(from_rate, to_rate, longest):
    rng = np.random.default_rng(from_rate + to_rate)
    for n in (1, 2, 31, 32, 33, 63, 64, 65, 66, 95, 96, 97, 129, 1000, 4863, 48000, 192000):
        if n > longest:
            break
        x = rng.normal(size=n)
        assert _bit_identical(resample(Signal(x, from_rate), to_rate).samples,
                              _frozen_padded_resample(x, from_rate, to_rate)), n


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


def _frozen_synthesis_pair(lo, hi, bank, mode, out_len):
    """_synthesis_pair as it was when every call allocated its interleaved
    input, its output and, in periodization, the folded copy it returned."""
    k = len(bank)
    rows, m = lo.shape
    padded = np.zeros((rows, 2 * m + 2 * k - 2))
    padded[:, k - 2:k - 2 + 2 * m:2] = hi
    padded[:, k - 1:k - 1 + 2 * m:2] = lo
    windows = sliding_window_view(padded, k, axis=1)[:, ::2]
    full = np.empty((rows, m + k // 2, 2))
    for p in (0, 1):
        taps = np.stack([bank.rec_hi[p::2], bank.rec_lo[p::2]], axis=1)[::-1].ravel()
        np.einsum("rmk,k->rm", windows, taps, out=full[..., p])
    full = full.reshape(rows, -1)[:, :-1]
    if mode == PadMode.PERIODIZATION:
        n2 = 2 * m
        out = full[:, :n2].copy()
        for start in range(n2, full.shape[1], n2):
            block = full[:, start:start + n2]
            out[:, :block.shape[1]] += block
        return out[:, :out_len]
    return full[:, k - 2: k - 2 + out_len]


def _frozen_inverse(tf):
    """waverec or iwpt as a loop of _frozen_synthesis_pair, one level at a
    time, the packet leaves first gathered into natural order."""
    cfg = tf.config
    bank = lookup(cfg.wavelet)
    if isinstance(cfg, DwtConfig):
        approx, *details = dwt_bands(tf)
        out_lens = [d.size for d in details[1:]] + [tf.original_len]
        approx = approx[np.newaxis]
        for detail, out_len in zip(details, out_lens):
            approx = _frozen_synthesis_pair(approx, detail[np.newaxis], bank, cfg.mode, out_len)
        return approx[0]
    chain = _length_chain(tf.original_len, len(bank), cfg.levels, cfg.mode)
    bands = tf.coeffs[gray_permutation(cfg.levels)]
    for level in range(cfg.levels, 0, -1):
        bands = _frozen_synthesis_pair(bands[0::2], bands[1::2], bank, cfg.mode, chain[level - 1])
    return bands[0]


# waverec and iwpt synthesise every level into one pair of buffers, folding
# the periodization wrap in place, and iwpt scatters its leaves straight into
# the first level's input. None of it may move a bit.
@pytest.mark.parametrize("mode", [PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC])
@pytest.mark.parametrize("wavelet", ["haar", "sym8", "coif5", "db20", "coif17"])
def test_wavelet_inverses_match_the_frozen_level_loop_bit_for_bit(wavelet, mode, rng):
    for n in (4097, 1001):                       # depths 1-12 and 1-9
        x = rng.normal(size=n)
        x[::7] = -0.0
        for levels in range(1, min(12, max_level(n)) + 1):
            for config in (DwtConfig, WptConfig):
                tf = decompose(Signal(x, 8000), config(wavelet, levels, mode))
                assert _bit_identical(reconstruct(tf).samples, _frozen_inverse(tf)), (
                    n, levels, config)


# The filter-bank kernels and the resampler as explicit products, summed in
# the order of numpy's contiguous einsum dot-product loop. That loop is built
# for numpy's baseline SIMD (two float64 lanes on x86-64) without fused
# multiply-adds: lane 0 sums the even products and lane 1 the odd ones; each
# full block of 8 adds its pairs (6, 7), (4, 5), (2, 3), (0, 1); the pairs
# left over follow in ascending order, a last odd product paired with +0.0;
# and the lane sum is added to the zero-filled output.

def _two_lane(prods):
    """Sum the last axis of `prods` in einsum's two-lane order."""
    k = prods.shape[-1]
    if k % 2:
        prods = np.concatenate([prods, np.zeros(prods.shape[:-1] + (1,))], axis=-1)
    lanes = np.zeros(prods.shape[:-1] + (2,))
    blocks = k // 8 * 8
    for start in range(0, blocks, 8):
        for pair in (6, 4, 2, 0):
            lanes = prods[..., start + pair:start + pair + 2] + lanes
    for j in range(blocks, prods.shape[-1], 2):
        lanes = prods[..., j:j + 2] + lanes
    return 0.0 + (lanes[..., 0] + lanes[..., 1])


def _in_order(prods):
    """Sum the last axis one product at a time from +0.0, as matmul's own loop did."""
    total = np.zeros(prods.shape[:-1])
    for i in range(prods.shape[-1]):
        total = total + prods[..., i]
    return total


def _analysis_oracle(bands, bank, mode, total):
    """(lo, hi) from every output's products in the order the taps meet the
    extended band, summed by `total`, with the tiled periodization extension
    for bands shorter than the filter."""
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
    windows = ext[:, phase + 2 * np.arange(out_len)[:, np.newaxis] + np.arange(k)]
    return total(windows * bank.dec_lo[::-1]), total(windows * bank.dec_hi[::-1])


def _synthesis_oracle(lo, hi, bank, mode, out_len, total):
    """Each untrimmed output c = 2j + p summed by `total` from its products in
    the order ..., hi[j-1] rec_hi[p+2], lo[j-1] rec_lo[p+2], hi[j] rec_hi[p],
    lo[j] rec_lo[p] (zeros for coefficients beyond either end), then cut to
    out_len with the periodization wrap folded back in."""
    k = len(bank)
    rows, m = lo.shape
    c = np.arange(2 * m + k - 1)[:, np.newaxis]
    t = np.arange(k // 2)[::-1]
    src = c // 2 - t
    inside = (src >= 0) & (src < m)
    src = np.clip(src, 0, m - 1)
    tap = c % 2 + 2 * t
    lo_terms = np.where(inside, lo[:, src], 0.0) * bank.rec_lo[tap]
    hi_terms = np.where(inside, hi[:, src], 0.0) * bank.rec_hi[tap]
    full = total(np.stack([hi_terms, lo_terms], axis=-1).reshape(rows, c.size, k))
    if mode == PadMode.PERIODIZATION:
        n2 = 2 * m
        out = full[:, :n2].copy()
        for start in range(n2, full.shape[1], n2):
            block = full[:, start:start + n2]
            out[:, :block.shape[1]] += block
        return out[:, :out_len]
    return full[:, k - 2: k - 2 + out_len]


@pytest.mark.parametrize("mode", [PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC])
@pytest.mark.parametrize("wavelet", ["haar", "db2", "sym8", "db20", "coif17"])
def test_filter_bank_kernels_match_two_lane_oracle(wavelet, mode, rng):
    bank = lookup(wavelet)
    # Haar's two products also sum to matmul's bits, in either order
    orders = (_two_lane, _in_order) if wavelet == "haar" else (_two_lane,)
    # 1, 2, 3 and 7 are shorter than most of these filters (k - 1 > n)
    for n in (1, 2, 3, 7, 8, 64, 101, 1000, 1001, 12344, 12345):
        for rows in (1, 3):
            x = rng.normal(size=(rows, n))
            x[:, n // 3: n // 3 + 9] = 0.25          # a constant run
            half = n // 2
            x[:, 1:half:2] = x[:, 0:half - 1:2]      # equal pairs: Haar details of exactly 0
            lo, hi = _analysis_pair(x, bank, mode)
            for total in orders:
                ref_lo, ref_hi = _analysis_oracle(x, bank, mode, total)
                assert _bit_identical(lo, ref_lo) and _bit_identical(hi, ref_hi), (n, rows)
            for r in range(rows):                    # each row on its own
                alone_lo, alone_hi = _analysis_pair(x[r:r + 1], bank, mode)
                assert _bit_identical(lo[r:r + 1], alone_lo), (n, r)
                assert _bit_identical(hi[r:r + 1], alone_hi), (n, r)
            for out_len in (n, 2 * lo.shape[1]):
                ours = _synthesis_pair(lo, hi, bank, mode, out_len)
                for total in orders:
                    ref = _synthesis_oracle(lo, hi, bank, mode, out_len, total)
                    assert _bit_identical(ours, ref), (n, rows, out_len)
                for r in range(rows):
                    alone = _synthesis_pair(lo[r:r + 1], hi[r:r + 1], bank, mode, out_len)
                    assert _bit_identical(ours[r:r + 1], alone), (n, r, out_len)
