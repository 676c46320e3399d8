"""Discrete-signal primitives: the Signal container, convolution, rate
changers, padding, norms, and a windowed-sinc resampler.

Everything here is a pure function over immutable inputs; concurrent use
is safe.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from math import ceil, gcd

import numpy as np


class PadMode(Enum):
    """Boundary extension conventions used by pad() and the wavelet transforms.

    PadMode(name) parses a mode name, case-insensitively."""

    ZERO = "zero"
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
        # min and max carry any NaN or infinity, with no mask as long as the samples
        if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
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


@dataclass(frozen=True)
class TFRepresentation:
    """The coefficients of one decomposition of a Signal, as stft, wavedec and
    wpt return them: the complex STFT matrix (bins x frames), the flat DWT
    vector [approx, detail_L, ..., detail_1] (see wavelet.dwt_bands), or the
    WPT leaf matrix (leaves x samples, lowest frequency first). `config` is
    the StftConfig, DwtConfig or WptConfig that made them."""

    coeffs: np.ndarray
    config: object
    rate: int
    original_len: int


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
    if mode == PadMode.PERIODIZATION:
        return np.pad(x, (0, extra), mode="wrap")
    if mode == PadMode.SYMMETRIC:
        return np.pad(x, (0, extra), mode="symmetric")
    raise ValueError(f"unknown pad mode {mode!r}")


def l2_norm(x) -> float:
    """Euclidean norm sqrt(sum x[t]^2)."""
    return float(np.sqrt(np.sum(np.asarray(x, dtype=np.float64) ** 2)))


def dot(x, y) -> float:
    """Euclidean dot product; inputs must have equal length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"dot requires equal lengths, got {x.size} and {y.size}")
    return float(np.sum(x * y))


_SINC_HALF = 32  # 64-tap kernel per output sample


def resample(s: Signal, to_rate: int) -> Signal:
    """Rational windowed-sinc resampling to to_rate Hz, in polyphase form:
    each of the `up` output phases has one 64-tap Hann-windowed sinc kernel,
    applied by einsum over strided views of the input itself and of padded
    copies of its two ends, so memory beyond the output stays constant.
    einsum sums as the wavelet kernels do, in the same order on every CPU.

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
    x, end = s.samples, s.samples[-(2 * half - 1):]
    # row r of the 64-sample windows of xp = (half zeros, x, half + 2 zeros) is xp[r : r + 64],
    # and output j = phase + k*up reads row base + 1 + k*down. Rows half to n_in - half lie
    # inside x and are read in place, the rows before and after from padded copies of its ends.
    head = np.concatenate([np.zeros(half), x[:2 * half - 1], np.zeros(half + 2)])
    tail = np.concatenate([end, np.zeros(half + 2)])
    sources = [(first, np.lib.stride_tricks.sliding_window_view(span, 2 * half)
                if span.size >= 2 * half else None)
               for first, span in ((0, head), (half, x), (half + n_in - end.size, tail))]
    out = np.empty(n_out)
    for phase in range(min(up, n_out)):
        t = phase * down / up
        base = int(np.floor(t))
        frac = t - base
        u = offsets - frac
        kern = 2.0 * cutoff * np.sinc(2.0 * cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))
        kern /= kern.sum()
        rows = range(base + 1, base + 1 + len(range(phase, n_out, up)) * down, down)
        inside = bisect_left(rows, half)
        cuts = (0, inside, max(inside, bisect_right(rows, n_in - half)), len(rows))
        for (first, windows), lo, hi in zip(sources, cuts, cuts[1:]):
            if hi > lo:   # each output is one einsum over its own 64 samples
                np.einsum("jk,k->j", windows[rows[lo] - first::down][:hi - lo], kern,
                          out=out[phase::up][lo:hi])
    return Signal(out, to_rate)
