"""Radix-2 FFT, window functions, forward/inverse STFT, and heatmap export.

The FFT is implemented here rather than delegated, with an iterative
decimation-in-time scheme whose butterflies are vectorized over a leading
batch axis (the STFT feeds it whole frame matrices at once).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .signal import Signal


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


@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(n.bit_length() - 1):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


def _fft_core(x: np.ndarray, sign: float) -> np.ndarray:
    n = x.shape[-1]
    out = x[..., _bit_reversal(n)]
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
    fft_size: int

    def __post_init__(self):
        if not (0 < self.hop <= self.win_size <= self.fft_size):
            raise ValueError(
                f"need 0 < hop <= win_size <= fft_size, got hop={self.hop} "
                f"win_size={self.win_size} fft_size={self.fft_size}")
        if not _is_pow2(self.fft_size):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")

    @classmethod
    def from_milliseconds(cls, window: WindowKind, win_ms: float, hop_ms: float,
                          rate: int) -> "StftConfig":
        """Millisecond sizes convert as floor(ms/1000 * rate); the FFT size is
        the window size rounded up to the next power of two."""
        win = int(win_ms / 1000.0 * rate)
        hop = int(hop_ms / 1000.0 * rate)
        if win < 2 or hop < 1:
            raise ValueError(f"window/hop too small: {win_ms} ms / {hop_ms} ms at {rate} Hz")
        return cls(window, win, hop, 1 << max(1, (win - 1).bit_length()))


@dataclass(frozen=True)
class StftMatrix:
    """Complex STFT coefficients: one row per analyzed frequency (fft_size/2 + 1
    rows), one column per frame."""

    coeffs: np.ndarray
    config: StftConfig
    rate: int
    original_len: int


def stft_frequencies(fft_size: int, rate: int) -> np.ndarray:
    """Analyzed frequencies {k * rate / fft_size : k = 0 .. fft_size/2} in Hz."""
    if not _is_pow2(fft_size):
        raise ValueError(f"fft_size must be a power of two, got {fft_size}")
    return np.arange(fft_size // 2 + 1) * (rate / fft_size)


def _frame(x: np.ndarray, win_size: int, hop: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(x, win_size)
    return view[::hop]


def stft(s: Signal, cfg: StftConfig) -> StftMatrix:
    """Short-time Fourier transform.

    The signal is zero-padded by win_size//2 at both ends (so every sample is
    covered by a window) plus enough at the tail to complete the last frame,
    then segmented at stride hop, windowed, zero-padded to fft_size, and
    transformed.
    """
    if len(s) == 0:
        raise ValueError("cannot STFT an empty signal")
    win = make_window(cfg.window, cfg.win_size)
    edge = cfg.win_size // 2
    x = np.concatenate([np.zeros(edge), s.samples, np.zeros(edge)])
    if x.size < cfg.win_size:
        x = np.concatenate([x, np.zeros(cfg.win_size - x.size)])
    rem = (x.size - cfg.win_size) % cfg.hop
    if rem:
        x = np.concatenate([x, np.zeros(cfg.hop - rem)])
    frames = _frame(x, cfg.win_size, cfg.hop) * win
    padded = np.zeros((frames.shape[0], cfg.fft_size), dtype=np.complex128)
    padded[:, :cfg.win_size] = frames
    spec = _fft_core(padded, -1.0)[:, :cfg.fft_size // 2 + 1]
    return StftMatrix(spec.T.copy(), cfg, s.rate, len(s))


def istft(m: StftMatrix) -> Signal:
    """Inverse STFT by weighted overlap-add with window-square normalization,
    trimmed to the original signal length.

    Raises if the normalization denominator drops below 1e-12 anywhere in the
    retained range (a window/hop combination that does not cover the signal).
    """
    cfg = m.config
    n_bins, n_frames = m.coeffs.shape
    nfft = cfg.fft_size
    if n_bins != nfft // 2 + 1:
        raise ValueError(f"expected {nfft // 2 + 1} frequency rows, got {n_bins}")
    full = np.empty((n_frames, nfft), dtype=np.complex128)
    full[:, :n_bins] = m.coeffs.T
    full[:, n_bins:] = np.conj(m.coeffs.T[:, 1:nfft - n_bins + 1][:, ::-1])
    frames = _fft_core(full, 1.0).real / nfft

    win = make_window(cfg.window, cfg.win_size)
    wsyn = np.zeros(nfft)
    wsyn[:cfg.win_size] = win
    total = (n_frames - 1) * cfg.hop + nfft
    num = np.zeros(total)
    den = np.zeros(total)
    for t in range(n_frames):
        start = t * cfg.hop
        num[start:start + nfft] += frames[t] * wsyn
        den[start:start + nfft] += wsyn * wsyn
    edge = cfg.win_size // 2
    num = num[edge:edge + m.original_len]
    den = den[edge:edge + m.original_len]
    if np.any(den < 1e-12):
        raise ValueError("window/hop configuration leaves uncovered samples (denominator ~ 0)")
    return Signal(num / den, m.rate)


def export_heatmap(matrix, pgm_path, csv_path=None) -> None:
    """Write a real matrix as an 8-bit grayscale PGM plus a CSV copy.

    Pixels are log-magnitude, min-max normalized; matrix row 0 is the lowest
    frequency and is written as the bottom PGM row. The CSV holds the raw
    values, row 0 first. csv_path defaults to the PGM path with a .csv suffix.
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
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])
