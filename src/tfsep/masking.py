"""Unified decompose/reconstruct dispatch over STFT/DWT/WPT plus ideal
time-frequency masks.

A TFRepresentation holds one coefficient array: the complex STFT matrix
(bins x frames), the WPT leaf matrix (leaves x samples), or the flattened
DWT vector [approx, detail_L, ..., detail_1]. A Mask holds one weight array
of the same shape.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .fourier import StftConfig, StftMatrix, istft, stft
from .signal import PadMode, Signal
from . import wavelet


@dataclass(frozen=True)
class DwtConfig:
    wavelet: str
    levels: int
    mode: PadMode = PadMode.PERIODIZATION


@dataclass(frozen=True)
class WptConfig:
    wavelet: str
    levels: int
    mode: PadMode = PadMode.PERIODIZATION


DecompositionConfig = StftConfig | DwtConfig | WptConfig


class MaskKind(Enum):
    BINARY = "binary"
    RATIO = "ratio"


@dataclass(frozen=True)
class TFRepresentation:
    coeffs: np.ndarray
    config: DecompositionConfig
    rate: int
    original_len: int


@dataclass(frozen=True)
class Mask:
    """Weights in [0, 1] with the shape of a TFRepresentation's coeffs."""

    weights: np.ndarray
    kind: MaskKind


def _check_congruent(a: TFRepresentation, b: TFRepresentation) -> None:
    # DWT vectors of different depths can share a length, so compare configs too
    if a.config != b.config or a.coeffs.shape != b.coeffs.shape:
        raise ValueError(f"representations are not congruent: {a.config} {a.coeffs.shape} "
                         f"vs {b.config} {b.coeffs.shape}")


def decompose(s: Signal, cfg: DecompositionConfig) -> TFRepresentation:
    """Dispatch to stft / wavedec / wpt and keep the coefficient array."""
    if isinstance(cfg, StftConfig):
        coeffs = stft(s, cfg).coeffs
    elif isinstance(cfg, DwtConfig):
        coeffs = wavelet.flatten(
            wavelet.wavedec(s, wavelet.lookup(cfg.wavelet), cfg.levels, cfg.mode))
    elif isinstance(cfg, WptConfig):
        coeffs = wavelet.wpt(s, wavelet.lookup(cfg.wavelet), cfg.levels, cfg.mode).matrix
    else:
        raise TypeError(f"unknown decomposition config {cfg!r}")
    return TFRepresentation(coeffs, cfg, s.rate, len(s))


def reconstruct(tf: TFRepresentation) -> Signal:
    """Invert decompose() and trim to the original signal length."""
    cfg = tf.config
    if isinstance(cfg, StftConfig):
        return istft(StftMatrix(tf.coeffs, cfg, tf.rate, tf.original_len))
    if isinstance(cfg, DwtConfig):
        bank = wavelet.lookup(cfg.wavelet)
        chain = wavelet._length_chain(tf.original_len, len(bank), cfg.levels, cfg.mode)
        sizes = [chain[-1], *chain[:0:-1]]    # approx, detail_L, ..., detail_1
        approx, *details = np.split(tf.coeffs, np.cumsum(sizes)[:-1])
        coeffs = wavelet.DwtCoeffs(approx, tuple(details[::-1]), cfg.levels, cfg.mode,
                                   tf.original_len, tf.rate)
        return wavelet.waverec(coeffs, bank)
    if isinstance(cfg, WptConfig):
        leaves = wavelet.WptLeaves(tf.coeffs, cfg.levels, cfg.wavelet, cfg.mode,
                                   tf.original_len, tf.rate)
        return wavelet.iwpt(leaves, wavelet.lookup(cfg.wavelet))
    raise TypeError(f"unknown decomposition config {cfg!r}")


def add(a: TFRepresentation, b: TFRepresentation) -> TFRepresentation:
    """Coefficient-wise sum of two congruent representations."""
    _check_congruent(a, b)
    return replace(a, coeffs=a.coeffs + b.coeffs)


def ideal_binary_mask(target: TFRepresentation, interference: TFRepresentation,
                      threshold: float = 0.0) -> Mask:
    """Weight 1 where |target| - |interference| >= threshold, else 0."""
    _check_congruent(target, interference)
    weights = np.abs(target.coeffs) - np.abs(interference.coeffs) >= threshold
    return Mask(weights.astype(np.float64), MaskKind.BINARY)


def ideal_ratio_mask(target: TFRepresentation, interference: TFRepresentation) -> Mask:
    """Weight |S|^2 / (|S|^2 + |N|^2); bins where both energies fall below
    1e-30 get weight 0."""
    _check_congruent(target, interference)
    es = np.abs(target.coeffs) ** 2
    en = np.abs(interference.coeffs) ** 2
    degenerate = (es < 1e-30) & (en < 1e-30)
    denom = np.where(degenerate, 1.0, es + en)
    return Mask(np.where(degenerate, 0.0, es / denom), MaskKind.RATIO)


def apply_mask(tf: TFRepresentation, mask: Mask) -> TFRepresentation:
    """Element-wise product; complex phase is untouched."""
    if mask.weights.shape != tf.coeffs.shape:
        raise ValueError(f"mask shape {mask.weights.shape} does not match the "
                         f"coefficients' {tf.coeffs.shape}")
    return replace(tf, coeffs=tf.coeffs * mask.weights)
