"""Discrete-signal primitives: the Signal container, convolution, rate
changers, padding, norms, and a windowed-sinc resampler.

Everything here is a pure function over immutable inputs; concurrent use
is safe.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, gcd

import numpy as np


class PadMode(Enum):
    """Boundary extension conventions used by pad() and the wavelet transforms.

    PadMode(name) parses a mode name, case-insensitively."""

    ZERO = "zero"
    PERIODIC = "periodic"
    SYMMETRIC = "symmetric"
    # DWT naming convention: periodic extension plus per-level even-length
    # padding, which keeps band lengths at ceil(n / 2^level)
    PERIODIZATION = "periodization"

    @classmethod
    def _missing_(cls, value):
        return cls._value2member_map_.get(str(value).lower())


@dataclass(frozen=True)
class Signal:
    """A finite 1-D real signal with its sampling rate in Hz.

    Samples are stored as float64. WAV ingestion normalizes integer PCM to
    [-1, 1]; intermediate results (e.g. mixtures) may exceed that range.
    """

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("Signal samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("Signal samples must be finite (no NaN/Inf)")
        rate = self.rate
        if not (isinstance(rate, (int, np.integer)) and rate > 0):
            raise ValueError(f"rate must be a positive integer, got {rate!r}")
        object.__setattr__(self, "rate", int(rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return self.samples.size / self.rate


def convolve(x, h, mode: str = "full") -> np.ndarray:
    """Linear convolution y[t] = sum_n x[n] h[t-n].

    mode "full" returns length ``len(x)+len(h)-1``; mode "same" returns the
    centered slice of length ``len(x)``.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.size == 0 or h.size == 0:
        raise ValueError("convolve requires non-empty inputs")
    full = np.convolve(x, h)
    if mode == "full":
        return full
    if mode == "same":
        start = (h.size - 1) // 2
        return full[start:start + x.size]
    raise ValueError(f"unknown convolution mode {mode!r}")


def downsample2(x) -> np.ndarray:
    """Keep every other sample: output[k] = x[2k]."""
    return np.asarray(x, dtype=np.float64)[::2].copy()


def upsample2(x) -> np.ndarray:
    """Insert a zero after every sample: output[2k] = x[k], output[2k+1] = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(2 * x.size)
    out[::2] = x
    return out


def pad(x, target_len: int, mode: PadMode = PadMode.ZERO) -> np.ndarray:
    """Extend x at the end to target_len samples.

    SYMMETRIC uses half-sample mirroring (the last sample is repeated),
    so [1, 2, 3] -> [1, 2, 3, 3, 2].
    """
    x = np.asarray(x, dtype=np.float64)
    extra = target_len - x.size
    if extra < 0:
        raise ValueError(f"target_len {target_len} is shorter than the input ({x.size})")
    if extra == 0:
        return x.copy()
    if mode == PadMode.ZERO:
        return np.pad(x, (0, extra))
    if mode in (PadMode.PERIODIC, PadMode.PERIODIZATION):
        return np.pad(x, (0, extra), mode="wrap")
    if mode == PadMode.SYMMETRIC:
        return np.pad(x, (0, extra), mode="symmetric")
    raise ValueError(f"unknown pad mode {mode!r}")


def l2_norm(x) -> float:
    """Euclidean norm sqrt(sum x[t]^2)."""
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64)))


def dot(x, y) -> float:
    """Euclidean dot product; inputs must have equal length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"dot requires equal lengths, got {x.size} and {y.size}")
    return float(np.dot(x, y))


_SINC_HALF = 32  # 64-tap kernel per output sample


def resample(s: Signal, to_rate: int) -> Signal:
    """Rational windowed-sinc resampling to to_rate Hz.

    Duration is preserved within one sample. Resampling to the input rate
    returns the input unchanged.
    """
    if not (isinstance(to_rate, (int, np.integer)) and to_rate > 0):
        raise ValueError(f"to_rate must be a positive integer, got {to_rate!r}")
    to_rate = int(to_rate)
    if to_rate == s.rate:
        return s
    g = gcd(s.rate, to_rate)
    up, down = to_rate // g, s.rate // g
    n_in = len(s)
    n_out = ceil(n_in * up / down)
    if n_in == 0:
        return Signal(np.zeros(0), to_rate)

    half = _SINC_HALF
    cutoff = 0.5 * min(1.0, up / down)  # cycles per input sample
    offsets = np.arange(-half + 1, half + 1)
    xp = np.concatenate([np.zeros(half), s.samples, np.zeros(half + down + 2)])
    out = np.empty(n_out)
    if up <= 4096:
        for phase in range(up):
            count = len(range(phase, n_out, up))
            if count == 0:
                continue
            t = phase * down / up
            base = int(np.floor(t))
            frac = t - base
            u = offsets - frac
            kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))
            kern /= kern.sum()
            acc = np.zeros(count)
            start = base + half + offsets[0]
            for i, k in enumerate(kern):
                col = xp[start + i: start + i + (count - 1) * down + 1: down]
                acc += k * col
            out[phase::up] = acc
    else:
        # irreducible ratios with huge numerators: direct per-output gather
        t = np.arange(n_out) * (down / up)
        base = np.floor(t).astype(np.intp)
        frac = t - base
        idx = base[:, None] + offsets[None, :] + half
        u = offsets[None, :] - frac[:, None]
        kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))
        kern /= kern.sum(axis=1, keepdims=True)
        out = np.einsum("ij,ij->i", xp[idx], kern)
    return Signal(out, to_rate)
