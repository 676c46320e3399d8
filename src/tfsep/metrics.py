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
_STOI_BLOCK = 128                 # frames, or segments, per block: STOI's scratch is bounded


def _stoi_band_edges() -> np.ndarray:
    """One-third-octave band b holds DFT bins edges[b] to edges[b + 1] - 1: the
    bins it contains by center frequency, lo_b <= f < hi_b, as hi_b = lo_(b+1)."""
    freqs = stft_frequencies(_STOI_WIN, _STOI_RATE)
    centers = _STOI_LOWEST_CENTER * 2.0 ** (np.arange(_STOI_BANDS) / 3.0)
    return np.searchsorted(freqs, np.append(centers * 2.0 ** (-1.0 / 6.0),
                                            centers[-1] * 2.0 ** (1.0 / 6.0)))


def _stoi_frame_blocks(x: np.ndarray, rows: np.ndarray):
    """(at, block): the Hann-windowed 256-sample frames `rows` of 10 kHz
    signal x, _STOI_BLOCK at a time, so no whole frame matrix is held."""
    frames = _frame(x, _STOI_WIN, _STOI_HOP)
    window = make_window(WindowKind.HANN, _STOI_WIN)
    for lo in range(0, rows.size, _STOI_BLOCK):
        block = frames[rows[lo:lo + _STOI_BLOCK]]
        block *= window
        yield slice(lo, lo + _STOI_BLOCK), block


def _stoi_envelopes(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The band envelopes (kept frames x bands) of 10 kHz signal x over its
    frames where keep holds."""
    edges = _stoi_band_edges()
    rows = np.flatnonzero(keep)
    envelopes = np.empty((rows.size, _STOI_BANDS))
    for at, block in _stoi_frame_blocks(x, rows):
        spec = np.abs(_fft_core(block, -1.0)[:, edges[0]:edges[-1]])
        # numpy's own loop adds each band in a fixed order; a band-matrix product
        # would leave the order to whichever BLAS kernel the CPU selects
        np.sqrt(np.add.reduceat(spec ** 2, edges[:-1] - edges[0], axis=1), out=envelopes[at])
    return envelopes


def _stoi_segment_blocks(envelopes: np.ndarray):
    """(at, block): the 30-frame segments (segments x bands x 30) of the
    envelopes, _STOI_BLOCK at a time, each block a contiguous copy, so each
    30-frame reduction adds in the same order as over a slice of them."""
    windows = np.lib.stride_tricks.sliding_window_view(envelopes, _STOI_FRAMES, axis=0)
    for lo in range(0, len(windows), _STOI_BLOCK):
        yield slice(lo, lo + _STOI_BLOCK), windows[lo:lo + _STOI_BLOCK].copy()


@dataclass(frozen=True, eq=False)
class StoiReference:
    """The clean side of STOI, which depends on the clean signal alone: its
    rate and length, the frames within 40 dB of its loudest, their band
    envelopes, and per (segment, band) envelope its norm, its mean and the
    norm of its mean-centred form. Every stoi call against the same clean
    signal can share one; stoi only reads it."""

    rate: int
    size: int
    keep: np.ndarray
    envelopes: np.ndarray         # kept frames x bands
    norms: np.ndarray             # segments x bands
    means: np.ndarray             # segments x bands
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
    energy = np.empty(len(_frame(x, _STOI_WIN, _STOI_HOP)))
    for at, block in _stoi_frame_blocks(x, np.arange(energy.size)):
        energy[at] = np.sum(block ** 2, axis=1)
    keep = energy > energy.max() * 10.0 ** (-_STOI_SILENCE_DB / 10.0)
    if np.count_nonzero(keep) < _STOI_FRAMES:
        raise MetricError(
            f"fewer than {_STOI_FRAMES} frames remain after silent-frame removal")
    envelopes = _stoi_envelopes(x, keep)
    norms, means, centred_norms = np.empty((3, len(envelopes) - _STOI_FRAMES + 1, _STOI_BANDS))
    for at, segments in _stoi_segment_blocks(envelopes):
        norms[at] = np.linalg.norm(segments, axis=-1)
        means[at] = segments.mean(axis=-1)
        segments -= means[at, :, None]
        centred_norms[at] = np.linalg.norm(segments, axis=-1)
    return StoiReference(clean.rate, len(clean), keep, envelopes, norms, means, centred_norms)


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
    envelopes = _stoi_envelopes(resample(degraded, _STOI_RATE).samples, reference.keep)
    correlations = np.empty(reference.norms.shape)
    for (at, x), (_, y) in zip(_stoi_segment_blocks(reference.envelopes),
                               _stoi_segment_blocks(envelopes)):
        norm_y = np.linalg.norm(y, axis=-1, keepdims=True)
        y *= reference.norms[at, :, None] / np.where(norm_y == 0.0, 1.0, norm_y)
        np.minimum(y, _STOI_CLIP_GAIN * x, out=y)
        y -= y.mean(axis=-1, keepdims=True)
        x -= reference.means[at, :, None]
        denom = reference.centred_norms[at] * np.linalg.norm(y, axis=-1)
        num = np.sum(x * y, axis=-1)
        correlations[at] = np.where(denom == 0.0, 0.0, num / np.where(denom == 0.0, 1.0, denom))
    # one mean over every (segment, band) correlation, in the order of one array
    return float(np.mean(correlations))
