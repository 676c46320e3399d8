"""Experiment harness: WAV ingestion, mixture synthesis, ideal-binary-mask
trials, grid search over decomposition configurations, and report emission.

Reported time_s covers the forward decomposition of the mixture plus the
final inverse transform only; mask computation and metric evaluation are
excluded.
"""
from __future__ import annotations

import dataclasses
import json
import math
import wave
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from time import perf_counter

import numpy as np

from .fourier import StftConfig, WindowKind
from .masking import (DecompositionConfig, DwtConfig, WptConfig, add, apply_mask,
                      decompose, ideal_binary_mask, reconstruct)
from .metrics import MetricError, MetricScores, mse, si_sdr, snr, stoi
from .signal import PadMode, Signal, resample
from .wavelet import available_families, lookup


class DataError(Exception):
    """Bad input data: unreadable files, malformed corpora, rate mismatches."""


# ---------------------------------------------------------------------------
# WAV I/O (16-bit PCM)

def load_wav(path) -> Signal:
    """Decode a 16-bit PCM WAV to a normalized mono Signal.

    Stereo (or more channels) is down-mixed by averaging. Anything that is
    not uncompressed 16-bit PCM raises DataError.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getcomptype() != "NONE":
                raise DataError(f"{path}: compressed WAV ({fh.getcomptype()}) is not supported")
            width = fh.getsampwidth()
            if width != 2:
                raise DataError(f"{path}: unsupported bit depth {8 * width}; only 16-bit PCM")
            channels = fh.getnchannels()
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    return Signal(data, rate)


def save_wav(s: Signal, path) -> None:
    """Write a Signal as mono 16-bit PCM; samples are clipped to [-1, 1]."""
    pcm = np.clip(np.round(s.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(s.rate)
        fh.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# corpus and mixtures

@dataclass(frozen=True)
class SpeakerEntry:
    speaker_id: str
    files: tuple[Path, ...]


class SpeakerCorpus:
    """A directory of speakers (one subdirectory each) with lazily-loaded WAVs."""

    def __init__(self, speakers):
        self.speakers = tuple(speakers)
        self._cache: dict[Path, Signal] = {}

    @classmethod
    def from_dir(cls, directory) -> "SpeakerCorpus":
        directory = Path(directory)
        if not directory.is_dir():
            raise DataError(f"corpus directory {directory} does not exist")
        speakers = []
        for sub in sorted(p for p in directory.iterdir() if p.is_dir()):
            files = tuple(sorted(sub.glob("*.wav")))
            if files:
                speakers.append(SpeakerEntry(sub.name, files))
        if not speakers:
            raise DataError(
                f"{directory} holds no speakers (expected one subdirectory of WAVs per speaker)")
        return cls(speakers)

    def load(self, path: Path) -> Signal:
        if path not in self._cache:
            self._cache[path] = load_wav(path)
        return self._cache[path]


@dataclass(frozen=True)
class Mixture:
    """An instantaneous sum of equal-length sources; sources[target_index] is
    the separation target."""

    mixture: Signal
    sources: tuple[Signal, ...]
    target_index: int
    speaker_ids: tuple[str, ...]
    seed: int


def make_mixture(corpus: SpeakerCorpus, n_speakers: int, seed: int,
                 allow_resample: bool = False) -> Mixture:
    """Draw n distinct speakers and one recording each (seeded), zero-pad to a
    common length, and sum. The first drawn speaker is the target."""
    if n_speakers < 2:
        raise ValueError("a mixture needs at least 2 speakers")
    if len(corpus.speakers) < n_speakers:
        raise DataError(
            f"corpus has {len(corpus.speakers)} speakers, need {n_speakers}")
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_speakers = np.random.default_rng(streams[0])
    rng_files = np.random.default_rng(streams[1])
    chosen = rng_speakers.choice(len(corpus.speakers), size=n_speakers, replace=False)
    signals, ids = [], []
    for idx in chosen:
        entry = corpus.speakers[idx]
        file = entry.files[rng_files.integers(len(entry.files))]
        signals.append(corpus.load(file))
        ids.append(entry.speaker_id)
    rate = signals[0].rate
    for i, sig in enumerate(signals):
        if sig.rate != rate:
            if not allow_resample:
                raise DataError(
                    f"sampling rate mismatch: {sig.rate} vs {rate} (pass allow_resample=True)")
            signals[i] = resample(sig, rate)
    length = max(len(sig) for sig in signals)
    padded = tuple(Signal(np.pad(sig.samples, (0, length - len(sig))), rate)
                   for sig in signals)
    total = np.sum([sig.samples for sig in padded], axis=0)
    return Mixture(Signal(total, rate), padded, 0, tuple(ids), seed)


# ---------------------------------------------------------------------------
# the ideal-binary-mask trial

def run_ibm_trial(mix: Mixture, cfg: DecompositionConfig) -> MetricScores:
    """Decompose the mixture and sources, mask the mixture with the target's
    ideal binary mask, reconstruct, and score against the clean target.

    Interference is the coefficient-wise sum of the other sources'
    decompositions (the magnitude of the sum, not the sum of magnitudes).
    """
    t0 = perf_counter()
    mixture_tf = decompose(mix.mixture, cfg)
    elapsed = perf_counter() - t0
    source_tfs = [decompose(src, cfg) for src in mix.sources]
    target_tf = source_tfs[mix.target_index]
    silence = dataclasses.replace(target_tf, coeffs=np.zeros_like(target_tf.coeffs))
    others = (tf for i, tf in enumerate(source_tfs) if i != mix.target_index)
    interference = reduce(add, others, silence)
    masked = apply_mask(mixture_tf, ideal_binary_mask(target_tf, interference))
    t0 = perf_counter()
    estimate = reconstruct(masked)
    elapsed += perf_counter() - t0

    clean = mix.sources[mix.target_index].samples
    def guarded(fn, *args):
        try:
            return fn(*args)
        except (MetricError, ValueError):
            return None
    return MetricScores(
        stoi=guarded(stoi, clean, estimate.samples, mix.mixture.rate),
        si_sdr=guarded(si_sdr, clean, estimate.samples),
        snr=guarded(snr, clean, estimate.samples),
        mse=guarded(mse, clean, estimate.samples),
        decomposition_time=elapsed,
    )


# ---------------------------------------------------------------------------
# grids

_STFT_LABEL = "stft"
_DWT_LABEL = "wavelet"
_WPT_LABEL = "wavelet_packet"

_DEFAULT_WINDOWS = ("hann", "rectangular")
_DEFAULT_SIZES_MS = (5.0, 10.0, 16.0, 25.0, 32.0, 50.0, 100.0, 120.0)
_DEFAULT_HOPS = (0.25, 0.5, 0.75)
_LEVEL_CAP = 12


@dataclass(frozen=True)
class GridEntry:
    decomposition: str          # stft | wavelet | wavelet_packet
    params: str                 # human-readable, also the report cell
    spec: dict = field(compare=False)


def _wavelet_mode(name) -> PadMode:
    mode = PadMode(name)
    if mode is PadMode.PERIODIC:  # the transforms implement periodization instead
        raise ValueError("'periodic' is not a wavelet boundary mode; use 'periodization'")
    return mode


def stft_entry(window: str, size_ms: float, hop_fraction: float) -> GridEntry:
    params = f"{size_ms:g}ms {window} window {size_ms * hop_fraction:g}ms hop"
    return GridEntry(_STFT_LABEL, params,
                     {"window": window, "size_ms": size_ms, "hop_fraction": hop_fraction})


def wavelet_entry(kind: str, family: str, levels: int,
                  mode: str = "periodization") -> GridEntry:
    label = _DWT_LABEL if kind == "dwt" else _WPT_LABEL
    return GridEntry(label, f"{family} {levels} levels {mode}",
                     {"family": family, "levels": levels, "mode": mode})


def build_config(entry: GridEntry, rate: int) -> DecompositionConfig:
    spec = entry.spec
    if entry.decomposition == _STFT_LABEL:
        size_ms = spec["size_ms"]
        return StftConfig.from_milliseconds(WindowKind(spec["window"]), size_ms,
                                            size_ms * spec["hop_fraction"], rate)
    cls = DwtConfig if entry.decomposition == _DWT_LABEL else WptConfig
    return cls(spec["family"], spec["levels"], _wavelet_mode(spec["mode"]))


def default_grid(max_levels: int, families=None, full_depth: bool = False) -> list[GridEntry]:
    """The paper-style search grid: every window/size/hop STFT combination and
    every registered wavelet family at every depth up to min(12, max_levels)
    (the cap is lifted by full_depth)."""
    entries = [stft_entry(w, s, h) for w in _DEFAULT_WINDOWS
               for s in _DEFAULT_SIZES_MS for h in _DEFAULT_HOPS]
    if families is None:
        families = [f for f in available_families() if f != "db1"]  # db1 == haar
    depth = max_levels if full_depth else min(_LEVEL_CAP, max_levels)
    for kind in ("dwt", "wpt"):
        entries.extend(wavelet_entry(kind, fam, lv)
                       for fam in families for lv in range(1, depth + 1))
    return entries


def _positive_number(value):
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ValueError(f"{value!r} is not a positive number")


def _positive_int(value):
    if type(value) is not int or value < 1:
        raise ValueError(f"{value!r} is not a positive integer")


# section -> key -> check of one value; every key but "mode" holds a list
_WAVELET_KEYS = {"families": lookup, "levels": _positive_int, "mode": _wavelet_mode}
_GRID_KEYS = {
    "stft": {"windows": WindowKind, "sizes_ms": _positive_number,
             "hop_fractions": _positive_number},
    "wavelet": _WAVELET_KEYS,
    "wpt": _WAVELET_KEYS,
}


def _check_grid_section(sect, section: str, path) -> None:
    """Raise DataError naming the section and key of the first malformed value."""
    keys, where = _GRID_KEYS[section], f"grid file {path}: section {section!r}"
    if not isinstance(sect, dict) or sect.keys() - keys.keys():
        raise DataError(f"{where} must be a JSON object with keys from {', '.join(keys)}")
    for key, check in keys.items():
        values = [sect.get(key, "periodization")] if key == "mode" else sect.get(key)
        if not isinstance(values, list) or not values:
            raise DataError(f"{where}, key {key!r}: expected a non-empty list, got {values!r}")
        try:
            for value in values:
                check(value)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{where}, key {key!r}: {exc}") from None


def load_grid_file(path) -> list[GridEntry]:
    """Grid description file: JSON with optional sections
    stft: {windows, sizes_ms, hop_fractions} and wavelet / wpt:
    {families, levels[, mode]}. The whole file is checked before any entry
    is built; anything malformed raises DataError naming the section and key."""
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read grid file {path}: {exc}") from exc
    if not isinstance(spec, dict) or spec.keys() - _GRID_KEYS.keys():
        raise DataError(f"grid file {path} must be a JSON object with sections from "
                        f"{', '.join(_GRID_KEYS)}")
    for section, sect in spec.items():
        _check_grid_section(sect, section, path)
    entries = []
    if "stft" in spec:
        sect = spec["stft"]
        entries.extend(stft_entry(w, s, h) for w in sect["windows"]
                       for s in sect["sizes_ms"] for h in sect["hop_fractions"])
    for key, kind in (("wavelet", "dwt"), ("wpt", "wpt")):
        if key in spec:
            sect = spec[key]
            mode = sect.get("mode", "periodization")
            entries.extend(wavelet_entry(kind, fam, lv, mode)
                           for fam in sect["families"] for lv in sect["levels"])
    if not entries:
        raise DataError(f"grid file {path} defines no configurations")
    return entries


# ---------------------------------------------------------------------------
# grid search and reports

@dataclass(frozen=True)
class ReportRow:
    decomposition: str
    params: str
    stoi: float | None
    si_sdr: float | None
    snr: float | None
    mse: float | None
    time_s: float | None
    n_mixtures: int
    status: str


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    n_mixtures: int
    seed: int
    sort_by: str


_SORT_DESCENDING = {"stoi", "si_sdr", "snr"}


def _mean(values):
    """Mean over every mixture, or None (an empty cell) when a mixture lacks
    the metric or the values hold both +inf and -inf."""
    if None in values or (math.inf in values and -math.inf in values):
        return None
    return float(np.mean(values))


def grid_search(corpus: SpeakerCorpus, grid, n_mixtures: int = 10,
                n_speakers: int = 2, seed: int = 0, jobs: int = 1,
                sort_by: str = "stoi") -> ExperimentReport:
    """Evaluate every grid entry on one fixed, seeded set of mixtures.

    Configurations that cannot handle a mixture (e.g. more levels than the
    signal length allows) produce a failed row; the run continues. Results
    are deterministic for a given corpus/seed/grid regardless of jobs.
    """
    if not grid:
        raise ValueError("grid is empty")
    if n_mixtures < 1:
        raise ValueError(f"need at least one mixture, got {n_mixtures}")
    if sort_by not in ("stoi", "si_sdr", "snr", "mse", "time_s"):
        raise ValueError(f"cannot sort by {sort_by!r}")
    mixture_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_mixtures)]
    mixtures = [make_mixture(corpus, n_speakers, s) for s in mixture_seeds]

    def evaluate(entry_mix):
        entry, mix = entry_mix
        try:
            return run_ibm_trial(mix, build_config(entry, mix.mixture.rate))
        except ValueError as exc:
            return exc

    tasks = [(entry, mix) for entry in grid for mix in mixtures]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(evaluate, tasks))
    else:
        outcomes = [evaluate(t) for t in tasks]

    rows = []
    for ci, entry in enumerate(grid):
        results = outcomes[ci * n_mixtures:(ci + 1) * n_mixtures]
        errors = [r for r in results if isinstance(r, Exception)]
        if errors:
            # keep the CSV comma-free
            reason = str(errors[0]).replace(",", ";").replace("\n", " ")
            rows.append(ReportRow(entry.decomposition, entry.params, None, None,
                                  None, None, None, n_mixtures,
                                  f"failed: {reason}"))
            continue
        means = (_mean([getattr(r, name) for r in results])
                 for name in ("stoi", "si_sdr", "snr", "mse", "decomposition_time"))
        rows.append(ReportRow(entry.decomposition, entry.params, *means, n_mixtures, "ok"))

    def sort_key(row: ReportRow):
        value = getattr(row, sort_by)
        if value is None:
            return (1, 0.0)
        return (0, -value if sort_by in _SORT_DESCENDING else value)

    rows.sort(key=sort_key)
    return ExperimentReport(tuple(rows), n_mixtures, seed, sort_by)


_REPORT_COLUMNS = ("decomposition", "params", "stoi", "si_sdr", "snr", "mse",
                   "time_s", "n_mixtures", "status")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.9g}"
    return str(value)


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as CSV (one line per row, '.' decimal separator) or as
    a JSON array of row objects. Infinities serialize as the string "inf"."""
    if not report.rows:
        raise ValueError("report is empty")
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(_REPORT_COLUMNS)]
        for row in report.rows:
            lines.append(",".join(_cell(getattr(row, col)) for col in _REPORT_COLUMNS))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = []
        for row in report.rows:
            obj = {}
            for col in _REPORT_COLUMNS:
                value = getattr(row, col)
                if isinstance(value, float) and math.isinf(value):
                    value = "inf" if value > 0 else "-inf"
                obj[col] = value
            payload.append(obj)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
