"""Radix-4 Stockham FFT, real-input transforms, window functions,
forward/inverse STFT, and heatmap export.

The FFT is implemented here rather than delegated. `_fft_core` is an
autosort (Stockham) transform in radix-4 steps over cache-sized chunks of a
batch of rows, on one ping-pong pair of chunk buffers with one twiddle
column per stage; its outputs equal the radix-2 decimation-in-time
transform's bit for bit. `_rfft` and `_irfft` handle real rows of N samples
as one N/2-point complex transform of the packed even and odd samples
(Sorensen, Jones, Heideman and Burrus, IEEE TASSP 1987), and the STFT uses
them; `_rfft` writes the spectrum over the buffer it packed the rows into.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .signal import Signal, TFRepresentation


class WindowKind(Enum):
    """WindowKind(name) parses a window name, case-insensitively; "rect" is
    short for "rectangular"."""

    RECTANGULAR = "rectangular"
    HANN = "hann"

    @classmethod
    def _missing_(cls, value):
        name = str(value).lower()
        return cls._value2member_map_.get("rectangular" if name == "rect" else name)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# points of one batch chunk: its two buffers (2 x 256 KiB at this size) and the
# twiddles stay in a 2 MiB L2 cache while the stages sweep over them (2^13 to 2^15
# timed alike on a 2-vCPU Xeon VM; a whole 480 x 1024 batch at once took twice as long)
_CHUNK_POINTS = 1 << 14

def _twiddles(m: int, sign: float) -> np.ndarray:
    """exp(sign*i*pi*k/m) for k < m, the twiddles of the radix-2 step that
    joins two m-point DFTs, as an (m, 1) column that broadcasts across a chunk."""
    return np.exp((sign * 1j * np.pi / m) * np.arange(m))[:, None]


def _butterfly(top, bottom, tw, plus, minus):
    """plus = top + tw*bottom and minus = top - tw*bottom (minus holds the
    product first)."""
    np.multiply(bottom, tw, out=minus)
    np.add(top, minus, out=plus)
    np.subtract(top, minus, out=minus)


def _fft_core(x: np.ndarray, sign: float, out: np.ndarray | None = None,
              chunks: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DFT sum_n x[n] exp(sign*2*pi*i*k*n/N) along the last axis,
    N a power of two, as a new C-contiguous complex128 array, or written into
    `out` (complex128, x's shape), which may be x itself; x is otherwise only read.
    `chunks` is a complex128 (2, N, cols) pair of chunk buffers to reuse.

    A Stockham autosort in radix-4 steps, after one radix-2 step when log2 N
    is odd. Each radix-4 step is its two radix-2 levels with their own
    twiddles, so every output is the radix-2 decimation-in-time result bit
    for bit. The batch runs in chunks of about _CHUNK_POINTS points, copied
    in transposed so that the batch is the contiguous axis: a chunk buffer
    viewed as (N/L, L, cols) holds at [r, k] the L-point DFT of each row's
    samples r, r + N/L, r + 2N/L, ... at frequency k. Two chunk buffers
    ping-pong: a radix-4 step writes its first level into the other buffer
    and its second back over the one it read. A chunk's rows are copied in
    before its results are copied out, so `out` may be the rows read.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    dest = np.empty(rows.shape, dtype=np.complex128) if out is None else out.reshape(rows.shape)
    cols = max(1, min(_CHUNK_POINTS // n, rows.shape[0])) if chunks is None else chunks.shape[2]
    odd = (n.bit_length() - 1) % 2
    first = _twiddles(1, sign) if odd else None
    steps = [(step, _twiddles(step, sign), _twiddles(2 * step, sign))
             for step in (1 << e for e in range(odd, n.bit_length() - 1, 2))]
    chunks = np.empty((2, n, cols), dtype=np.complex128) if chunks is None else chunks
    for lo in range(0, rows.shape[0], cols):
        b = min(cols, rows.shape[0] - lo)
        src, dst = chunks[0, :, :b], chunks[1, :, :b]
        np.copyto(src, rows[lo:lo + b].T)
        if odd:
            y, d = src.reshape(n, 1, b), dst.reshape(n // 2, 2, 1, b)
            _butterfly(y[:n // 2], y[n // 2:], first, d[:, 0], d[:, 1])
            src, dst = dst, src
        for step, tw1, tw2 in steps:
            q = n // (4 * step)
            y, (s, t) = src.reshape(4 * q, step, b), dst.reshape(2, 2 * q, step, b)
            _butterfly(y[:2 * q], y[2 * q:], tw1, s, t)
            d = src.reshape(q, 4, step, b)
            _butterfly(s[:q], s[q:], tw2[:step], d[:, 0], d[:, 2])
            _butterfly(t[:q], t[q:], tw2[step:], d[:, 1], d[:, 3])
        np.copyto(dest[lo:lo + b], src.T)
    return dest.reshape(x.shape)


def fft(x) -> np.ndarray:
    """DFT X[k] = sum_n x[n] exp(-2*pi*i*k*n/N) for power-of-two N.

    Accepts a vector or a batch of vectors along the last axis.
    """
    x = np.asarray(x, dtype=np.complex128)
    if not _is_pow2(x.shape[-1]):
        raise ValueError(f"fft length must be a power of two, got {x.shape[-1]}")
    return _fft_core(x, -1.0)


def ifft(x) -> np.ndarray:
    """Inverse DFT; ifft(fft(x)) == x up to roundoff."""
    x = np.asarray(x, dtype=np.complex128)
    if not _is_pow2(x.shape[-1]):
        raise ValueError(f"ifft length must be a power of two, got {x.shape[-1]}")
    return _fft_core(x, 1.0) / x.shape[-1]


def _half_twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (1 - i w^k)/2 and (1 + i w^k)/2 for k = 0..n/2, w = exp(-2*pi*i/n).

    w^(n/2) is set to exactly -1, so that bins 0 and n/2 of a real row come
    out real and equal to the sums a complex transform gives them."""
    w = np.append(_twiddles(n // 2, -1.0), -1.0)
    return 0.5 * (1.0 - 1j * w), 0.5 * (1.0 + 1j * w)


def _rfft(frames: np.ndarray, n: int, window=1.0) -> np.ndarray:
    """DFT bins 0..n/2 of each real row of the matrix `frames` times `window`,
    zero-padded to n points (n a power of two, at least 2 and at least the
    row width), one row of bins per frame.

    The n/2-point transform Z of z[j] = x[2j] + i x[2j+1] gives
    X[k] = A[k] Z[k] + B[k] conj(Z[n/2 - k]), indices mod n/2, with the
    half-twiddles A, B of `_half_twiddles`. The packed rows z are the
    float64 view of a complex row, so the windowed frames are written
    straight into it; Z is written over z, and the spectrum over Z, a block
    of rows at a time.
    """
    rows, width = frames.shape
    m = n // 2
    spec = np.zeros((rows, m + 1), dtype=np.complex128)
    np.multiply(frames, window, out=spec.view(np.float64)[:, :width])
    _fft_core(spec[:, :m], -1.0, out=spec[:, :m])
    a, b = _half_twiddles(n)
    block = max(1, _CHUNK_POINTS // m)
    for lo in range(0, rows, block):
        x = spec[lo:lo + block]
        z = x[:, :m].copy()
        np.conjugate(z[:, :1], out=x[:, :1])
        np.conjugate(z[:, ::-1], out=x[:, 1:])    # conj Z[n/2 - k] for k = 1..n/2
        x *= b
        x[:, m] += z[:, 0] * a[m]
        z *= a[:m]
        x[:, :m] += z
    return spec


def _irfft(spec: np.ndarray, n: int):
    """Real rows of n samples whose DFT bins 0..n/2 are the rows of the
    matrix `spec`, yielded as views of one buffer, a chunk of `_fft_core`'s
    whole-matrix transform at a time (so bit for bit); bins 0 and n/2 are taken as real.

    Inverts `_rfft`'s packing: Z[k] = conj(A[k]) X[k] + conj(B[k]) conj(X[n/2 - k])
    for k < n/2, the mirror term in the chunk pair the transform then fills;
    one inverse n/2-point transform over Z gives x[2j] + i x[2j+1], whose
    float64 view is the row of samples.
    """
    m = n // 2
    ca, cb = np.conjugate(_half_twiddles(n))[:, 1:m]
    cols = max(1, min(_CHUNK_POINTS // m, spec.shape[0]))
    chunks = np.empty((2, m, cols), dtype=np.complex128)
    buf = np.empty((cols, m), dtype=np.complex128)
    for lo in range(0, spec.shape[0], cols):
        x = spec[lo:lo + cols]
        z, zb = buf[:len(x)], buf[:len(x), 1:]
        np.multiply(x[:, 1:m], ca, out=zb)
        mirror = chunks.reshape(-1)[:zb.size].reshape(zb.shape)
        np.conjugate(x[:, m - 1:0:-1], out=mirror)
        zb += np.multiply(mirror, cb, out=mirror)
        dc, nyquist = x[:, 0].real, x[:, m].real
        z[:, 0] = 0.5 * (dc + nyquist) + 0.5j * (dc - nyquist)
        samples = _fft_core(z, 1.0, out=z, chunks=chunks).view(np.float64)
        samples /= m
        yield samples


def make_window(kind: WindowKind, n: int) -> np.ndarray:
    """Analysis window of length n.

    The Hann window uses the periodic (DFT-even) form
    w[k] = 0.5 - 0.5*cos(2*pi*k/n), so w[0] = 0 and w[n/2] = 1; this form
    tiles exactly at 50%/75% overlap, which the inverse STFT relies on.
    """
    if n < 2:
        raise ValueError(f"window length must be at least 2, got {n}")
    if kind == WindowKind.RECTANGULAR:
        return np.ones(n)
    if kind == WindowKind.HANN:
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    raise ValueError(f"unknown window kind {kind!r}")


@dataclass(frozen=True)
class StftConfig:
    window: WindowKind
    win_size: int
    hop: int

    def __post_init__(self):
        if not (0 < self.hop <= self.win_size) or self.win_size < 2:
            raise ValueError(f"need 0 < hop <= win_size and win_size >= 2, "
                             f"got hop={self.hop} win_size={self.win_size}")

    @property
    def fft_size(self) -> int:
        """The window size rounded up to the next power of two."""
        return 1 << (self.win_size - 1).bit_length()


def stft_frequencies(fft_size: int, rate: int) -> np.ndarray:
    """Analyzed frequencies {k * rate / fft_size : k = 0 .. fft_size/2} in Hz."""
    if not _is_pow2(fft_size):
        raise ValueError(f"fft_size must be a power of two, got {fft_size}")
    return np.arange(fft_size // 2 + 1) * (rate / fft_size)


def _frame(x: np.ndarray, win_size: int, hop: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(x, win_size)
    return view[::hop]


def _frame_count(n: int, cfg: StftConfig) -> int:
    """Frames of an n-sample STFT: win_size//2 zeros at each end, the last frame completed."""
    return -(-(n + 2 * (cfg.win_size // 2) - cfg.win_size) // cfg.hop) + 1


# frames x fft_size of one STFT, 8.5x the largest default-grid STFT of a 12 s,
# 44.1 kHz recording (100 ms, 25 ms hop). The tracemalloc peaks of stft and istft,
# output included, at 2^21 and 2^22 points: 10 and 2.3-4.8 bytes per point for 2^5-
# to 2^16-point FFTs at a quarter-window hop, so 320 and at most 154 MiB at this
# limit; 16 and 8.3-11.4 when hop == window; up to 36 and 54 for 2 frames of 2^20
# points (the chunk buffers; istft's sums exist before it inverts), so up to 1.7 GiB.
STFT_MAX_POINTS = 1 << 25


def stft(s: Signal, cfg: StftConfig) -> TFRepresentation:
    """Short-time Fourier transform: one coefficient row per analyzed
    frequency (fft_size/2 + 1 rows), one column per frame.

    The signal is zero-padded by win_size//2 at both ends (so every sample is
    covered by a window) plus enough at the tail to complete the last frame,
    then segmented at stride hop, windowed, zero-padded to fft_size, and
    transformed. A frame matrix of more than STFT_MAX_POINTS frames x
    fft_size points is rejected before anything is allocated.
    """
    if len(s) == 0:
        raise ValueError("cannot STFT an empty signal")
    edge = cfg.win_size // 2
    n_frames = _frame_count(len(s), cfg)
    if n_frames * cfg.fft_size > STFT_MAX_POINTS:
        raise ValueError(f"STFT too large: {n_frames} frames x 2^{cfg.fft_size.bit_length() - 1}"
                         f" FFT points exceeds 2^{STFT_MAX_POINTS.bit_length() - 1} points")
    tail = (n_frames - 1) * cfg.hop + cfg.win_size - edge - len(s)
    spec = _rfft(_frame(np.pad(s.samples, (edge, tail)), cfg.win_size, cfg.hop), cfg.fft_size,
                 make_window(cfg.window, cfg.win_size))
    return TFRepresentation(spec.T, cfg, s.rate, len(s))


def _overlap_add(frames: np.ndarray, hop: int, out: np.ndarray | None = None) -> np.ndarray:
    """out[t*hop + j] = sum over t of frames[t, j], over (frames - 1)*hop + width
    samples, added into `out` (C-contiguous rows of hop samples) or zeros.

    The frames are cut into hop-wide blocks; block b of frame t lands in row
    t + b of a (frames + blocks) x hop accumulator. Adding the last block first
    gives every sample its frames in ascending t, so the sums are bit-identical
    to adding one frame at a time, also over successive runs of frames.
    """
    n_frames, width = frames.shape
    blocks = -(-width // hop)
    out = np.zeros((n_frames + blocks, hop)) if out is None else out
    for blk in range(blocks - 1, -1, -1):
        part = frames[:, blk * hop:(blk + 1) * hop]
        out[blk:blk + n_frames, :part.shape[1]] += part
    return out.reshape(-1)[:(n_frames - 1) * hop + width]


def istft(m: TFRepresentation) -> Signal:
    """Inverse STFT by weighted overlap-add with window-square normalization,
    trimmed to the original signal length, one FFT chunk of frames at a time.

    Raises before inverting if the normalization denominator drops below 1e-12
    anywhere in the retained range (a window/hop combination that does not cover the signal).
    """
    cfg = m.config
    if not isinstance(cfg, StftConfig):
        raise ValueError(f"expected an STFT representation, got config {cfg!r}")
    shape = (cfg.fft_size // 2 + 1, _frame_count(m.original_len, cfg))
    if m.coeffs.shape != shape:
        raise ValueError(f"expected STFT coefficients of shape {shape}, got {m.coeffs.shape}")
    n_frames, win, hop = shape[1], cfg.win_size, cfg.hop
    window = make_window(cfg.window, win)
    blocks = -(-win // hop)
    # rows blocks - 1 .. n_frames - 1 of hop samples add the same window squares in
    # one order, so `few` frames' sums hold every distinct row of the signal's
    few = min(n_frames, blocks + 3)
    den = np.zeros((few + blocks, hop))
    _overlap_add(np.broadcast_to(window * window, (few, win)), hop, den)
    kept = slice(win // 2, win // 2 + m.original_len)
    if np.any(den.reshape(-1)[kept.start:kept.stop - (n_frames - few) * hop] < 1e-12):
        raise ValueError("window/hop configuration leaves uncovered samples (denominator ~ 0)")
    num, lo = np.zeros((n_frames + blocks, hop)), 0
    for samples in _irfft(m.coeffs.T, cfg.fft_size):
        _overlap_add(np.multiply(samples[:, :win], window, out=samples[:, :win]), hop, num[lo:])
        lo += len(samples)
    with np.errstate(divide="ignore", invalid="ignore"):   # zero sums lie outside `kept`
        num[:few] /= den[:few]
        num[few:n_frames] /= den[few - 1]
        num[n_frames:] /= den[few:]
    return Signal(num.reshape(-1)[kept], m.rate)


def export_heatmap(matrix, pgm_path, csv_path=None) -> None:
    """Write a real matrix as an 8-bit grayscale PGM plus a CSV copy.

    Pixels are log-magnitude, min-max normalized; matrix row 0 is the lowest
    frequency and is written as the bottom PGM row. The CSV holds the raw
    values, row 0 first, one LF-ended line per row. csv_path defaults to the
    PGM path with a .csv suffix.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("heatmap matrix must be finite")
    pgm_path = Path(pgm_path)
    csv_path = Path(csv_path) if csv_path is not None else pgm_path.with_suffix(".csv")

    logm = np.log10(np.abs(matrix) + 1e-12)
    lo, hi = logm.min(), logm.max()
    if hi - lo < 1e-12:
        pixels = np.zeros(matrix.shape, dtype=np.uint8)
    else:
        pixels = np.round((logm - lo) / (hi - lo) * 255.0).astype(np.uint8)
    rows, cols = pixels.shape
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels[::-1].tobytes())

    with open(csv_path, "w", newline="") as fh:
        for row in matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
