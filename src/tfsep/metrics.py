"""Reference-based quality metrics: MSE, SNR, SI-SDR, and STOI.

STOI follows the standard short-time intelligibility pipeline: resample to
10 kHz, 256-sample Hann STFT at 50% overlap, 15 one-third-octave bands from
150 Hz, 30-frame temporal envelopes, clean-energy normalization with -15 dB
clipping, and the mean of the per-(band, frame) sample correlations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import WindowKind, _fft_core, _frame, make_window, stft_frequencies
from .signal import Signal, resample


class MetricError(ValueError):
    """A metric could not be computed for these inputs (too short, silent...)."""


@dataclass(frozen=True)
class MetricScores:
    """Scores of one reconstruction, plus the decomposition wall time."""

    stoi: float | None
    si_sdr: float | None
    snr: float | None
    mse: float | None
    time_s: float


def _as_pair(s, s_hat):
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s.size != s_hat.size:
        raise ValueError(f"length mismatch: {s.size} vs {s_hat.size}")
    if s.size == 0:
        raise ValueError("empty signals have no score")
    return s, s_hat


def mse(s, s_hat) -> float:
    """Mean squared error ||s - s_hat||^2 / n."""
    s, s_hat = _as_pair(s, s_hat)
    return float(np.mean((s - s_hat) ** 2))


def snr(s, s_hat) -> float:
    """10 log10(||s||^2 / ||s - s_hat||^2) in dB; +inf for identical inputs
    (silent ones too). Otherwise a silent reference raises MetricError."""
    s, s_hat = _as_pair(s, s_hat)
    err = float(np.sum((s - s_hat) ** 2))
    if err == 0.0:
        return math.inf
    energy = float(np.sum(s ** 2))
    if energy == 0.0:
        raise MetricError("snr reference must be non-zero")
    return 10.0 * math.log10(energy / err)


def si_sdr(s, s_hat) -> float:
    """Scale-invariant SDR: the reference is rescaled by
    alpha = (s . s_hat) / ||s||^2 so the residual is orthogonal to it, then
    10 log10(||alpha s||^2 / ||alpha s - s_hat||^2).

    Returns +inf when s_hat is exactly a rescaled s, -inf when s_hat is
    orthogonal to s (alpha = 0). A silent reference raises MetricError.
    """
    s, s_hat = _as_pair(s, s_hat)
    # one fixed-order sum (numpy's, not np.dot's BLAS) for numerator and denominator,
    # so alpha is exactly 1.0 (and the +inf sentinel fires) when s_hat is s
    energy = float(np.sum(s * s))
    if energy == 0.0:
        raise MetricError("si_sdr reference must be non-zero")
    alpha = float(np.sum(s * s_hat)) / energy
    if alpha == 0.0:
        return -math.inf
    target = alpha * s
    err = float(np.sum((target - s_hat) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(float(np.sum(target ** 2)) / err)


_STOI_RATE = 10_000
_STOI_WIN = 256
_STOI_HOP = 128
_STOI_BANDS = 15
_STOI_LOWEST_CENTER = 150.0
_STOI_FRAMES = 30                 # 384 ms at 10 kHz
_STOI_CLIP_DB = -15.0
_STOI_CLIP_GAIN = 1.0 + 10.0 ** (-_STOI_CLIP_DB / 20.0)
_STOI_SILENCE_DB = 40.0


def _stoi_band_edges() -> np.ndarray:
    """One-third-octave band b holds DFT bins edges[b] to edges[b + 1] - 1: the
    bins it contains by center frequency, lo_b <= f < hi_b, as hi_b = lo_(b+1)."""
    freqs = stft_frequencies(_STOI_WIN, _STOI_RATE)
    centers = _STOI_LOWEST_CENTER * 2.0 ** (np.arange(_STOI_BANDS) / 3.0)
    return np.searchsorted(freqs, np.append(centers * 2.0 ** (-1.0 / 6.0),
                                            centers[-1] * 2.0 ** (1.0 / 6.0)))


def _stoi_segments(frames: np.ndarray) -> np.ndarray:
    """The 30-frame envelope segments (segments x bands x 30) of Hann-windowed
    10 kHz frames."""
    edges = _stoi_band_edges()
    spec = np.abs(_fft_core(frames, -1.0)[:, edges[0]:edges[-1]])
    # numpy's own loop adds each band in a fixed order; a band-matrix product
    # would leave the order to whichever BLAS kernel the CPU selects
    envelopes = np.sqrt(np.add.reduceat(spec ** 2, edges[:-1] - edges[0], axis=1))
    # a contiguous copy, so each 30-frame reduction adds in the same order as
    # over a slice of the envelopes (frames x bands)
    windows = np.lib.stride_tricks.sliding_window_view(envelopes, _STOI_FRAMES, axis=0)
    return windows.copy()


@dataclass(frozen=True, eq=False)
class StoiReference:
    """The clean side of STOI, which depends on the clean signal alone: its
    rate and length, the frames within 40 dB of its loudest, and per
    (segment, band) envelope its norm, its -15 dB clip bound, and its
    mean-centred form with that form's norm. Every stoi call against the
    same clean signal can share one; stoi only reads it."""

    rate: int
    size: int
    keep: np.ndarray
    norms: np.ndarray             # segments x bands x 1
    bound: np.ndarray             # segments x bands x 30
    centred: np.ndarray           # segments x bands x 30
    centred_norms: np.ndarray     # segments x bands


def stoi_reference(s, rate: int) -> StoiReference:
    """The STOI reference of clean signal s at `rate`. Raises what stoi
    raises for this clean signal: ValueError for no samples, or samples or a
    rate no Signal holds, MetricError for a signal too short or silent."""
    clean = Signal(_as_pair(s, s)[0], rate)   # stoi's own input checks come first
    x = resample(clean, _STOI_RATE).samples
    if x.size < _STOI_WIN:
        raise MetricError("signals too short for STOI (need at least 384 ms)")
    if not np.any(x):
        raise MetricError("clean signal is silent")
    frames = _frame(x, _STOI_WIN, _STOI_HOP) * make_window(WindowKind.HANN, _STOI_WIN)
    energy = np.sum(frames ** 2, axis=1)
    keep = energy > energy.max() * 10.0 ** (-_STOI_SILENCE_DB / 10.0)
    if np.count_nonzero(keep) < _STOI_FRAMES:
        raise MetricError(
            f"fewer than {_STOI_FRAMES} frames remain after silent-frame removal")
    frames = frames[keep]         # the full frame matrix is freed before the transform
    x = _stoi_segments(frames)
    del frames, energy            # and no frame-sized array outlives it
    centred = x - x.mean(axis=-1, keepdims=True)
    return StoiReference(clean.rate, len(clean), keep,
                         np.linalg.norm(x, axis=-1, keepdims=True), _STOI_CLIP_GAIN * x,
                         centred, np.linalg.norm(centred, axis=-1))


def stoi(s, s_hat, rate: int, reference: StoiReference | None = None) -> float:
    """Short-time objective intelligibility of s_hat against clean s, in [0, 1].

    Frames more than 40 dB below the clean signal's loudest frame are dropped
    from both signals before envelope formation; degraded envelopes are
    normalized to the clean envelope energy and clipped at -15 dB relative.
    Zero-variance envelope pairs contribute a correlation of 0.

    `reference`, if given, is stoi_reference(s, rate), built once for many
    estimates of the same clean signal; the score is the same bit for bit.
    """
    s, s_hat = _as_pair(s, s_hat)
    clean, degraded = Signal(s, rate), Signal(s_hat, rate)  # both checked before scoring
    if reference is None:
        reference = stoi_reference(s, rate)
    elif (reference.rate, reference.size) != (clean.rate, len(clean)):
        raise ValueError(f"STOI reference is for {reference.size} samples at {reference.rate} Hz,"
                         f" not {len(clean)} at {clean.rate} Hz")
    y = _frame(resample(degraded, _STOI_RATE).samples, _STOI_WIN, _STOI_HOP)[reference.keep]
    y *= make_window(WindowKind.HANN, _STOI_WIN)
    y = _stoi_segments(y)                       # which frees the frames
    # in place, so that no more than four segment arrays are alive at once
    norm_y = np.linalg.norm(y, axis=-1, keepdims=True)
    y *= reference.norms / np.where(norm_y == 0.0, 1.0, norm_y)
    np.minimum(y, reference.bound, out=y)
    y -= y.mean(axis=-1, keepdims=True)
    denom = reference.centred_norms * np.linalg.norm(y, axis=-1)
    num = np.sum(reference.centred * y, axis=-1)
    return float(np.mean(np.where(denom == 0.0, 0.0, num / np.where(denom == 0.0, 1.0, denom))))
