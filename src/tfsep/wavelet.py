"""Wavelet filter banks (the registry's are orthogonal) and the transforms built on them.

Covers the registry of embedded filter tables (validated at test time via the
perfect-reconstruction and vanishing-moment checks rather than trusted),
QMF/CQF constructions, single-step and multi-level DWT, the full-tree wavelet
packet transform with frequency ordering, moment counting, central-frequency
estimation by filter cascading, and the Ricker continuous transform.

The analysis/synthesis kernels operate on stacks of bands (2-D arrays): each
is two einsum products of a strided window view with the taps, so a packet
level costs the same few numpy calls however many bands it holds. einsum
(optimize=False, so never BLAS) sums each window against contiguous taps in
its dot-product loop, which numpy builds for its baseline SIMD only: the
products go into two lanes in an order fixed by the code, so every row gets
the same bits on any CPU and alone or stacked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, floor, log2

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._filter_tables import SCALING_FILTERS
from .signal import PadMode, Signal, TFRepresentation, convolve


@dataclass(frozen=True)
class WaveletFilterBank:
    """Analysis (dec_*, which dwt_step convolves with) and synthesis (rec_*, idwt_step)
    filters; the steps round-trip a bank verify_pr passes at delay len(bank) - 1."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        for field in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            arr = np.asarray(getattr(self, field), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)
        lengths = {self.dec_lo.size, self.dec_hi.size, self.rec_lo.size, self.rec_hi.size}
        if len(lengths) != 1 or lengths == {0} or min(lengths) % 2:
            raise ValueError("all four filters must be of one even, non-zero length")

    def __len__(self) -> int:
        return self.dec_lo.size


def qmf_highpass(h) -> np.ndarray:
    """Quadrature mirror construction g[i] = (-1)^i h[i]."""
    h = np.asarray(h, dtype=np.float64)
    if h.size == 0:
        raise ValueError("empty filter")
    return h * (-1.0) ** np.arange(h.size)


def cqf_highpass(h) -> np.ndarray:
    """Conjugate quadrature construction g[i] = (-1)^i h[N-i]: the quadrature
    mirror of the reversed filter."""
    return qmf_highpass(np.asarray(h, dtype=np.float64)[::-1])


def lookup(name: str) -> WaveletFilterBank:
    """Fetch a registered filter bank by name (e.g. "haar", "db4", "sym8")."""
    if name not in SCALING_FILTERS:
        raise ValueError(
            f"unknown wavelet {name!r}; available: {', '.join(SCALING_FILTERS)}")
    rec_lo = np.array(SCALING_FILTERS[name])
    rec_hi = cqf_highpass(rec_lo)
    return WaveletFilterBank(
        name=name,
        dec_lo=rec_lo[::-1].copy(),
        dec_hi=rec_hi[::-1].copy(),
        rec_lo=rec_lo,
        rec_hi=rec_hi,
    )


def available_families() -> tuple[str, ...]:
    return tuple(SCALING_FILTERS)


@dataclass(frozen=True)
class PrCheck:
    ok: bool
    delay: int
    distortion_error: float
    alias_error: float


def verify_pr(bank: WaveletFilterBank, tol: float = 1e-8) -> PrCheck:
    """Check the two perfect-reconstruction conditions.

    No distortion: the z-domain product of analysis and synthesis pairs must
    be a single coefficient of value 2 at delay len(bank) - 1, the delay
    dwt_step and idwt_step invert. Alias cancellation: the same product with
    the analysis filters sign-alternated must vanish.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p1 = np.convolve(bank.dec_lo, bank.rec_lo) + np.convolve(bank.dec_hi, bank.rec_hi)
    p2 = (np.convolve(qmf_highpass(bank.dec_lo), bank.rec_lo)
          + np.convolve(qmf_highpass(bank.dec_hi), bank.rec_hi))
    alias_error = float(np.max(np.abs(p2)))

    delay = len(bank) - 1
    rest = np.delete(p1, delay)
    distortion_error = max(float(abs(p1[delay] - 2.0)), float(np.max(np.abs(rest))))
    ok = distortion_error <= tol and alias_error <= tol
    return PrCheck(ok, delay if ok else -1, distortion_error, alias_error)


def count_vanishing_moments(bank: WaveletFilterBank, max_p: int | None = None,
                            tol: float = 1e-8) -> int:
    """Largest p such that the first p discrete moments of the high-pass
    analysis filter vanish.

    Moments are evaluated about the filter center with positions normalized to
    [-1, 1]; this is equivalent to the raw-moment condition (vanishing up to p
    is shift-invariant) but keeps the comparison scale well conditioned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = bank.dec_hi
    n = g.size
    if max_p is None:
        max_p = n
    t = (np.arange(n) - (n - 1) / 2.0) / (n / 2.0)
    count = 0
    while count < max_p:
        terms = t ** count * g
        scale = np.abs(terms).sum()
        if scale == 0.0 or abs(terms.sum()) > tol * scale:
            break
        count += 1
    return count


# ---------------------------------------------------------------------------
# analysis / synthesis kernels over stacks of bands

def _check_mode(mode: PadMode) -> None:
    """Entry points check here that a mode is a PadMode, as the kernels assume."""
    if not isinstance(mode, PadMode):
        raise ValueError(f"unsupported boundary mode {mode!r}")


def _analysis_pair(bands: np.ndarray, bank: WaveletFilterBank, mode: PadMode,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One filter-bank step applied to every row of `bands`: (lo, hi), new
    arrays, or the views out[:, 0] and out[:, 1] of a (rows, 2, m) `out`."""
    k = len(bank)
    n = bands.shape[1]
    if mode == PadMode.PERIODIZATION:
        if n % 2:  # odd bands get one zero sample
            bands = np.pad(bands, [(0, 0), (0, 1)])
        ext = np.pad(bands, [(0, 0), (0, k - 1)], mode="wrap")
        phase = 0
    else:
        pad_kw = {} if mode == PadMode.ZERO else {"mode": "symmetric"}
        ext = np.pad(bands, [(0, 0), (k - 1, k - 1)], **pad_kw)
        phase = 1
    # each window times the reversed taps: convolution with dec_lo/dec_hi
    windows = sliding_window_view(ext, k, axis=1)[:, phase::2][:, :_band_length(n, k, mode)]
    lo, hi = (None, None) if out is None else (out[:, 0], out[:, 1])
    return (np.einsum("rmk,k->rm", windows, bank.dec_lo[::-1].copy(), out=lo),
            np.einsum("rmk,k->rm", windows, bank.dec_hi[::-1].copy(), out=hi))


def _synthesis_buffers(k: int, rows: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat input and output buffers for _synthesis_pair at rows x m and any smaller level."""
    return np.empty(rows * (2 * m + 2 * k - 2)), np.empty(rows * (2 * m + k))


def _synthesis_pair(lo: np.ndarray, hi: np.ndarray, bank: WaveletFilterBank,
                    mode: PadMode, out_len: int, buffers=None) -> np.ndarray:
    """Inverse of _analysis_pair, trimmed to out_len columns, as a view of buffers[1]
    (new by default); the interleaved input goes at the head of buffers[0]."""
    k = len(bank)
    rows, m = lo.shape
    inputs, outputs = buffers or _synthesis_buffers(k, rows, m)
    # hi[0], lo[0], hi[1], lo[1], ... between k - 2 zeros in front and k behind:
    # window j ends in ..., hi[j-1], lo[j-1], hi[j], lo[j], every term of
    # outputs 2j and 2j+1, against the interleaved taps reversed
    padded = inputs[:rows * (2 * m + 2 * k - 2)].reshape(rows, -1)
    padded[:, :k - 2] = padded[:, k - 2 + 2 * m:] = 0.0
    pairs = padded[:, k - 2:k - 2 + 2 * m].reshape(rows, m, 2)
    pairs[..., 0], pairs[..., 1] = hi, lo
    windows = sliding_window_view(padded, k, axis=1)[:, ::2]
    full = outputs[:rows * (2 * m + k)].reshape(rows, m + k // 2, 2)
    for p in (0, 1):
        taps = np.stack([bank.rec_hi[p::2], bank.rec_lo[p::2]], axis=1)[::-1].ravel()
        np.einsum("rmk,k->rm", windows, taps, out=full[..., p])
    full = full.reshape(rows, -1)[:, :-1]  # 2m + k - 1 columns, the last one zero
    if mode == PadMode.PERIODIZATION:
        n2 = 2 * m
        for start in range(n2, full.shape[1], n2):  # fold the circular wrap back in
            block = full[:, start:start + n2]
            full[:, :block.shape[1]] += block
        return full[:, :out_len]
    return full[:, k - 2: k - 2 + out_len]


def dwt_step(x, bank: WaveletFilterBank,
             mode: PadMode = PadMode.PERIODIZATION) -> tuple[np.ndarray, np.ndarray]:
    """Single analysis step: (approximation, detail).

    Periodization pads odd-length inputs internally, giving ceil(n/2)
    coefficients per band; zero/symmetric extension gives floor((n+K-1)/2).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"dwt_step expects a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("cannot decompose a zero-length band")
    _check_mode(mode)
    lo, hi = _analysis_pair(x[np.newaxis], bank, mode)
    return lo[0], hi[0]


def idwt_step(approx, detail, bank: WaveletFilterBank,
              mode: PadMode = PadMode.PERIODIZATION, length: int | None = None) -> np.ndarray:
    """Inverse of dwt_step for one pair of 1-D bands. `length`, from 1 to the
    natural output length of the chosen mode (the default), trims the result."""
    _check_mode(mode)
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.ndim != 1 or approx.shape != detail.shape:
        raise ValueError("approximation and detail must be 1-D bands of equal length")
    natural = 2 * approx.size if mode == PadMode.PERIODIZATION else 2 * approx.size - len(bank) + 2
    length = natural if length is None else length
    if not 1 <= length <= natural:
        raise ValueError(f"length must be in [1, {natural}] for {approx.size}-coefficient bands")
    return _synthesis_pair(approx[np.newaxis], detail[np.newaxis], bank, mode, length)[0]


def _band_length(n: int, k: int, mode: PadMode) -> int:
    if mode == PadMode.PERIODIZATION:
        return (n + 1) // 2
    return (n + k - 1) // 2


def _length_chain(n: int, k: int, levels: int, mode: PadMode) -> list[int]:
    chain = [n]
    for _ in range(levels):
        chain.append(_band_length(chain[-1], k, mode))
    return chain


def max_level(n: int) -> int:
    """Largest admissible decomposition depth for a length-n signal."""
    return floor(log2(n)) if n > 1 else 0


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


def _registered_bank(cfg, cls: type, n: int) -> WaveletFilterBank:
    """The bank a `cls` config names, once its type, mode and depth for n samples check."""
    if not isinstance(cfg, cls):
        raise ValueError(f"expected a {cls.__name__[:3].upper()} representation, got config {cfg}")
    _check_mode(cfg.mode)
    if not 1 <= cfg.levels <= max_level(n):
        raise ValueError(f"levels must be in [1, {max_level(n)}] for a length-{n} signal")
    return lookup(cfg.wavelet)


def wavedec(s: Signal, cfg: DwtConfig) -> TFRepresentation:
    """Cascade dwt_step on successive approximations for `cfg.levels` levels.

    The coefficients are one flat vector [approx, detail_L, ..., detail_1];
    dwt_bands splits it into bands.
    """
    bank = _registered_bank(cfg, DwtConfig, len(s))
    approx = s.samples[np.newaxis]
    details = []
    for _ in range(cfg.levels):
        approx, det = _analysis_pair(approx, bank, cfg.mode)
        details.append(det[0])
    flat = np.concatenate([approx[0], *details[::-1]])
    return TFRepresentation(flat, cfg, s.rate, len(s))


def dwt_bands(tf: TFRepresentation) -> list[np.ndarray]:
    """Split a wavedec vector into its bands [approx, detail_L, ..., detail_1]
    (views, not copies), with the band lengths of the registered bank the
    config names."""
    cfg = tf.config
    bank = _registered_bank(cfg, DwtConfig, tf.original_len)
    chain = _length_chain(tf.original_len, len(bank), cfg.levels, cfg.mode)
    sizes = [chain[-1], *chain[:0:-1]]
    if tf.coeffs.shape != (sum(sizes),):
        raise ValueError(f"expected {sum(sizes)} DWT coefficients, got shape {tf.coeffs.shape}")
    return np.split(tf.coeffs, np.cumsum(sizes)[:-1])


def waverec(tf: TFRepresentation) -> Signal:
    """Invert wavedec with the registered bank its config names, and trim to
    the original length."""
    approx, *details = dwt_bands(tf)
    bank = lookup(tf.config.wavelet)
    # each level's output is as long as the next finer detail band
    out_lens = [d.size for d in details[1:]] + [tf.original_len]
    buffers = _synthesis_buffers(len(bank), 1, max(d.size for d in details))
    approx = approx[np.newaxis]
    for d, out_len in zip(details, out_lens):
        approx = _synthesis_pair(approx, d[np.newaxis], bank, tf.config.mode, out_len, buffers)
    return Signal(approx[0], tf.rate)


def gray_permutation(levels: int) -> np.ndarray:
    """Frequency rank G[j] of each natural-order packet leaf j.

    The inverse of the binary-reflected Gray code: leaf k ^ (k >> 1) holds
    frequency rank k.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    k = np.arange(1 << levels, dtype=np.intp)
    g = np.empty_like(k)
    g[k ^ (k >> 1)] = k
    return g


def wpt(s: Signal, cfg: WptConfig) -> TFRepresentation:
    """Full binary-tree packet decomposition: the 2^levels leaf bands stacked
    as matrix rows in increasing center-frequency order."""
    bank = _registered_bank(cfg, WptConfig, len(s))
    bands = s.samples[np.newaxis]
    for _ in range(cfg.levels):
        pairs = np.empty((len(bands), 2, _band_length(bands.shape[1], len(bank), cfg.mode)))
        _analysis_pair(bands, bank, cfg.mode, out=pairs)
        bands = pairs.reshape(2 * len(pairs), -1)
    ordered = np.empty_like(bands)
    ordered[gray_permutation(cfg.levels)] = bands
    return TFRepresentation(ordered, cfg, s.rate, len(s))


def iwpt(tf: TFRepresentation) -> Signal:
    """Invert wpt with the registered bank its config names, and trim to the
    original length."""
    cfg = tf.config
    bank = _registered_bank(cfg, WptConfig, tf.original_len)
    chain = _length_chain(tf.original_len, len(bank), cfg.levels, cfg.mode)
    shape = (1 << cfg.levels, chain[-1])
    if tf.coeffs.shape != shape:
        raise ValueError(f"expected WPT coefficients of shape {shape}, got {tf.coeffs.shape}")
    rows, m, k = shape[0] // 2, shape[1], len(bank)
    buffers = _synthesis_buffers(k, rows, m)      # the first level is the largest
    # frequency rank f holds natural-order leaf j = f ^ (f >> 1), which goes
    # straight into the first level's input: pair j // 2's lo if j is even, else its hi
    pairs = buffers[0][:rows * (2 * m + 2 * k - 2)].reshape(rows, -1)[:, k - 2:k - 2 + 2 * m]
    pairs = pairs.reshape(rows, m, 2)
    leaf = np.arange(shape[0])
    leaf ^= leaf >> 1
    pairs[leaf >> 1, :, 1 - (leaf & 1)] = tf.coeffs
    lo, hi = pairs[..., 1], pairs[..., 0]
    for level in range(cfg.levels, 0, -1):
        bands = _synthesis_pair(lo, hi, bank, cfg.mode, chain[level - 1], buffers)
        lo, hi = bands[0::2], bands[1::2]
    del buffers, pairs                 # the output buffer holds the first level's margins:
    return Signal(bands[0].copy(), tf.rate)   # keep no more of it than the signal


# ---------------------------------------------------------------------------
# frequency mapping and the Ricker continuous transform

_CASCADE_ITERATIONS = 8


def _upsample_by(x: np.ndarray, factor: int) -> np.ndarray:
    out = np.zeros((x.size - 1) * factor + 1)
    out[::factor] = x
    return out


@lru_cache(maxsize=None)
def central_frequency(name: str) -> float:
    """Central frequency of a registered wavelet in cycles per sample.

    The wavelet function is approximated by iterating the two-scale refinement
    relation (scaling steps, then one wavelet step, eight iterations total),
    and the frequency is the dominant Fourier-series harmonic over the
    wavelet's support: k full oscillations across K-1 samples of support give
    k/(K-1) cycles per sample (sym8 peaks at 10 of 15, i.e. 0.667). The
    harmonics go through the basis product in row blocks, so memory stays
    bounded (about 8 MiB for coif17).
    """
    bank = lookup(name)
    phi = np.array([1.0])
    for j in range(_CASCADE_ITERATIONS - 1):
        phi = np.convolve(phi, _upsample_by(bank.rec_lo, 1 << j))
    psi = np.convolve(phi, _upsample_by(bank.rec_hi, 1 << (_CASCADE_ITERATIONS - 1)))
    support = len(bank) - 1
    period = support << _CASCADE_ITERATIONS
    harmonics = np.arange(1, 4 * support + 1)
    samples = np.arange(psi.size)
    block = max(1, (1 << 18) // psi.size)       # harmonics per 4 MiB of basis
    power = np.concatenate([
        np.abs(np.exp(-2j * np.pi * np.outer(harmonics[i:i + block], samples) / period) @ psi)
        for i in range(0, harmonics.size, block)])
    k = harmonics[int(np.argmax(power))]
    return float(k) / support


def scale_to_frequency(name: str, scale: float, rate: int) -> float:
    """Frequency in Hz matched by the wavelet `name` dilated by `scale` at `rate`."""
    return central_frequency(name) * rate / scale


_RICKER_NORM = 2.0 / (np.sqrt(3.0) * np.pi ** 0.25)


def ricker_kernel(scale: float) -> np.ndarray:
    """Sampled Ricker wavelet at dilation `scale`, 1/sqrt(scale)-normalized,
    truncated at +-8*scale, and mean-corrected so a constant input maps to
    exactly zero response."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    half = int(np.ceil(8.0 * scale))
    u = np.arange(-half, half + 1) / scale
    psi = _RICKER_NORM * (1.0 - u ** 2) * np.exp(-0.5 * u ** 2) / np.sqrt(scale)
    return psi - psi.mean()


def cwt_ricker(s: Signal, scales) -> np.ndarray:
    """Continuous wavelet transform with the Ricker wavelet as a bank of
    same-length convolutions: one output row per scale."""
    scales = np.asarray(scales, dtype=np.float64)
    if scales.size == 0:
        raise ValueError("need at least one scale")
    if np.any(scales <= 0):
        raise ValueError("scales must be positive")
    out = np.empty((scales.size, len(s)))
    for i, a in enumerate(scales):
        # time-reversed kernel; Ricker is even-symmetric
        out[i] = convolve(s.samples, ricker_kernel(a)[::-1], "same")
    return out


def dwt_heatmap_matrix(tf: TFRepresentation) -> np.ndarray:
    """Rectangular scaleogram layout for a wavedec representation: one row
    per dwt_bands band, each band's coefficients repeated out to the finest
    band's width."""
    rows = dwt_bands(tf)
    width = rows[-1].size
    out = np.empty((len(rows), width))
    for i, band in enumerate(rows):
        reps = ceil(width / band.size)
        out[i] = np.repeat(band, reps)[:width]
    return out
