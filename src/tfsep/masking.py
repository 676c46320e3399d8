"""Unified decompose/reconstruct dispatch over STFT/DWT/WPT plus ideal
time-frequency masks.

Every transform returns a TFRepresentation (see tfsep.signal); a mask is a
weight array of the same shape as its coefficients.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .fourier import StftConfig, istft, stft
from .signal import Signal, TFRepresentation
from .wavelet import DwtConfig, WptConfig
from . import wavelet


DecompositionConfig = StftConfig | DwtConfig | WptConfig


def _check_congruent(a: TFRepresentation, b: TFRepresentation) -> None:
    # DWT vectors of different depths can share a length, so compare configs too
    if a.config != b.config or a.coeffs.shape != b.coeffs.shape:
        raise ValueError(f"representations are not congruent: {a.config} {a.coeffs.shape} "
                         f"vs {b.config} {b.coeffs.shape}")


def _transforms(cfg):
    """(forward, inverse) of cfg's type, built per call so that patched attributes run."""
    try:
        return {StftConfig: (stft, istft), DwtConfig: (wavelet.wavedec, wavelet.waverec),
                WptConfig: (wavelet.wpt, wavelet.iwpt)}[type(cfg)]
    except KeyError:
        raise TypeError(f"unknown decomposition config {cfg!r}") from None


def decompose(s: Signal, cfg: DecompositionConfig) -> TFRepresentation:
    """Dispatch to stft / wavedec / wpt."""
    return _transforms(cfg)[0](s, cfg)


def reconstruct(tf: TFRepresentation) -> Signal:
    """Invert decompose() and trim to the original signal length."""
    return _transforms(tf.config)[1](tf)


def add(a: TFRepresentation, b: TFRepresentation) -> TFRepresentation:
    """Add b's coefficients into a's array and return a; incongruent operands raise first."""
    _check_congruent(a, b)
    np.add(a.coeffs, b.coeffs, out=a.coeffs)
    return a


def ideal_binary_mask(target: TFRepresentation, interference: TFRepresentation,
                      threshold: float = 0.0) -> np.ndarray:
    """Weight 1 where |target| - |interference| >= threshold, else 0, as float64;
    written a block at a time into a new array of |target|'s dtype and layout."""
    _check_congruent(target, interference)
    weights = np.empty_like(target.coeffs, target.coeffs.real.dtype)
    with np.nditer([target.coeffs, interference.coeffs, weights],
                   ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["readonly"], ["writeonly"]], buffersize=4096) as blocks:
        for own, other, block in blocks:
            np.abs(own, out=block)
            block -= np.abs(other)
            np.greater_equal(block, threshold, out=block)
    return weights.astype(np.float64, copy=False)


def ideal_ratio_mask(target: TFRepresentation, interference: TFRepresentation) -> np.ndarray:
    """Weight |S|^2 / (|S|^2 + |N|^2); bins where both energies fall below
    1e-30 get weight 0."""
    _check_congruent(target, interference)
    es = np.abs(target.coeffs) ** 2
    en = np.abs(interference.coeffs) ** 2
    degenerate = (es < 1e-30) & (en < 1e-30)
    denom = np.where(degenerate, 1.0, es + en)
    return np.where(degenerate, 0.0, es / denom)


def apply_mask(tf: TFRepresentation, weights: np.ndarray) -> TFRepresentation:
    """Element-wise product with weights in [0, 1] of the coefficients' shape;
    complex phase is untouched."""
    if weights.shape != tf.coeffs.shape:
        raise ValueError(f"mask shape {weights.shape} does not match the "
                         f"coefficients' {tf.coeffs.shape}")
    return replace(tf, coeffs=tf.coeffs * weights)
