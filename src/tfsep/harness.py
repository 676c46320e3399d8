"""Experiment harness: WAV ingestion, mixture synthesis, ideal-binary-mask
trials, grid search over decomposition configurations, and report emission.

Reported time_s covers the forward decomposition of the mixture plus the
final inverse transform only; mask computation and metric evaluation are
excluded.
"""
from __future__ import annotations

import json
import math
import os
import sys
import wave
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from .fourier import StftConfig, WindowKind
from .masking import (DecompositionConfig, DwtConfig, WptConfig, add, apply_mask,
                      decompose, ideal_binary_mask, reconstruct)
from .metrics import (MetricScores, StoiReference, mse, si_sdr, snr, stoi,
                      stoi_reference)
from .signal import PadMode, Signal
from .wavelet import available_families, lookup


class DataError(Exception):
    """Bad input data: unreadable files, malformed corpora, rate mismatches."""


# ---------------------------------------------------------------------------
# WAV I/O (16-bit PCM)

def wav_header(path) -> tuple[int, int, int, int]:
    """(rate, frames, channels, data offset) of a 16-bit PCM WAV as load_wav decodes it, from
    its header and size alone: a bad header or data cut mid-frame raises load_wav's DataError."""
    path = Path(path)
    try:
        with open(path, "rb") as file, wave.open(file, "rb") as fh:
            width = fh.getsampwidth()
            if width != 2:
                raise DataError(f"{path}: unsupported bit depth {8 * width}; only 16-bit PCM")
            channels = fh.getnchannels()
            rate = fh.getframerate()
            offset = file.tell()  # wave stops at the first data byte and reads no
            file.seek(4)          # further than the file or the RIFF size allows
            end = min(path.stat().st_size, 8 + int.from_bytes(file.read(4), "little"))
            size = min(fh.getnframes() * 2 * channels, end - offset)
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    if rate < 1:
        raise DataError(f"{path}: header sample rate is {rate} Hz; need a positive rate")
    if size % (2 * channels):
        raise DataError(f"{path}: {size} data bytes are not a whole number of "
                        f"{channels}-channel 16-bit frames ({2 * channels} bytes each)")
    return rate, size // (2 * channels), channels, offset


def load_wav(path) -> Signal:
    """Decode a 16-bit PCM WAV to a normalized mono Signal.

    Stereo (or more channels) is down-mixed by averaging. Anything that is
    not uncompressed 16-bit PCM raises DataError.
    """
    rate, frames, channels, offset = wav_header(path)
    data = np.fromfile(path, "<i2", frames * channels, offset=offset).astype(np.float64) / 32768.0
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    return Signal(data, rate)


def save_wav(s: Signal, path) -> None:
    """Write a Signal as mono 16-bit PCM; samples are clipped to [-1, 1]."""
    pcm = np.clip(np.round(s.samples * 32768.0), -32768, 32767).astype("<i2")
    # opened here, so a bad path is one OSError and leaves no half-built wave writer
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
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
    """A directory of speakers (one subdirectory each). No recording is kept:
    each WAV is decoded when it is read and released with its mixture, so
    memory follows one mixture, not the corpus."""

    def __init__(self, speakers):
        self.speakers = tuple(speakers)

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
        return load_wav(path)

    def check_speakers(self, n: int) -> None:
        """Raise DataError if the corpus holds fewer than n speakers."""
        if len(self.speakers) < n:
            raise DataError(f"corpus has {len(self.speakers)} speakers, need {n}")


@dataclass(frozen=True)
class Mixture:
    """An instantaneous sum of two or more equal-length sources; sources[0]
    is the separation target. `reference` is the target's STOI reference;
    without one every trial builds its own."""

    mixture: Signal
    sources: tuple[Signal, ...]
    speaker_ids: tuple[str, ...]
    reference: StoiReference | None = field(default=None, compare=False)


def _draw(corpus: SpeakerCorpus, n_speakers: int, seed: int):
    """The seeded recordings of one mixture, whose headers must give one
    rate, and their speaker ids."""
    if n_speakers < 2:
        raise ValueError("a mixture needs at least 2 speakers")
    corpus.check_speakers(n_speakers)
    rng_speakers, rng_files = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    chosen = rng_speakers.choice(len(corpus.speakers), size=n_speakers, replace=False)
    entries = [corpus.speakers[idx] for idx in chosen]
    files = [entry.files[rng_files.integers(len(entry.files))] for entry in entries]
    rates = [wav_header(file)[0] for file in files]
    if mismatch := [rate for rate in rates if rate != rates[0]]:
        raise DataError(f"sampling rate mismatch: {mismatch[0]} vs {rates[0]}")
    return files, [entry.speaker_id for entry in entries]


def make_mixture(corpus: SpeakerCorpus, n_speakers: int, seed: int) -> Mixture:
    """Draw n distinct speakers and one recording each (seeded), zero-pad to a
    common length, and sum. The first drawn speaker is the target."""
    files, ids = _draw(corpus, n_speakers, seed)
    signals = [corpus.load(file) for file in files]
    rate = signals[0].rate
    length = max(len(sig) for sig in signals)
    padded = tuple(Signal(np.pad(sig.samples, (0, length - len(sig))), rate)
                   for sig in signals)
    total = np.sum([sig.samples for sig in padded], axis=0)
    return Mixture(Signal(total, rate), padded, tuple(ids))


# ---------------------------------------------------------------------------
# the ideal-binary-mask trial

def run_ibm_trial(mix: Mixture, cfg: DecompositionConfig) -> MetricScores:
    """Decompose the mixture and sources, mask the mixture with the target's
    ideal binary mask, reconstruct, and score against the clean target, with
    the mixture's STOI reference when it carries one.

    Interference is the coefficient-wise sum of the other sources'
    decompositions (the magnitude of the sum, not the sum of magnitudes).
    """
    # each coefficient array goes after its last read, the sources' before the mixture's timed
    # forward (time_s is it plus the inverse); the mask reads |target| and weighs as bools
    target_tf = decompose(mix.sources[0], cfg)
    target_tf = replace(target_tf, coeffs=np.abs(target_tf.coeffs))
    interference = decompose(mix.sources[1], cfg)
    for src in mix.sources[2:]:                # summed in place, one source alive at a time
        add(interference, decompose(src, cfg))
    mask = ideal_binary_mask(target_tf, interference).astype(bool)
    del target_tf, interference
    t0 = perf_counter()
    mixture_tf = decompose(mix.mixture, cfg)
    elapsed = perf_counter() - t0
    masked = apply_mask(mixture_tf, mask)
    del mixture_tf, mask
    t0 = perf_counter()
    estimate = reconstruct(masked)
    elapsed += perf_counter() - t0
    del masked

    clean = mix.sources[0].samples
    def guarded(fn, *args):
        try:
            return fn(*args)
        except ValueError:                 # MetricError too
            return None
    return MetricScores(
        stoi=guarded(stoi, clean, estimate.samples, mix.mixture.rate, mix.reference),
        si_sdr=guarded(si_sdr, clean, estimate.samples),
        snr=guarded(snr, clean, estimate.samples),
        mse=guarded(mse, clean, estimate.samples),
        time_s=elapsed,
    )


# ---------------------------------------------------------------------------
# grids

_DEFAULT_STFT = {"windows": ("hann", "rectangular"),
                 "sizes_ms": (5.0, 10.0, 16.0, 25.0, 32.0, 50.0, 100.0, 120.0),
                 "hop_fractions": (0.25, 0.5, 0.75)}
_LEVEL_CAP = 12
_DEFAULT_FAMILIES = tuple(f for f in available_families() if f != "db1")  # db1 == haar


@dataclass(frozen=True)
class GridEntry:
    decomposition: str          # stft | wavelet | wavelet_packet
    params: str                 # human-readable, also the report cell
    # a wavelet's DwtConfig / WptConfig, or the STFT's (window, win_ms, hop_ms),
    # which become an StftConfig at each mixture's rate
    config: DwtConfig | WptConfig | tuple[WindowKind, float, float] = field(compare=False)


def _ms_label(value: float) -> str:
    """`value` as `:g` writes it, or as repr where `:g` would not read back exactly."""
    return f"{value:g}" if float(f"{value:g}") == value else repr(value)


def stft_entry(window: str, size_ms: float, hop_ms: float) -> GridEntry:
    kind = WindowKind(window)
    return GridEntry("stft", f"{_ms_label(size_ms)}ms {kind.value} window "
                     f"{_ms_label(hop_ms)}ms hop", (kind, size_ms, hop_ms))


def wavelet_entry(kind: str, family: str, levels: int,
                  mode: str = "periodization") -> GridEntry:
    cls, label = (DwtConfig, "wavelet") if kind == "dwt" else (WptConfig, "wavelet_packet")
    mode = PadMode(mode)
    return GridEntry(label, f"{family} {levels} levels {mode.value}", cls(family, levels, mode))


def build_config(entry: GridEntry, rate: int) -> DecompositionConfig:
    """A grid row's configuration at `rate`: milliseconds become floor(ms/1000 * rate) samples."""
    if not isinstance(entry.config, tuple):
        return entry.config
    window, win_ms, hop_ms = entry.config
    win, hop = win_ms / 1000.0 * rate, hop_ms / 1000.0 * rate
    if not (math.isfinite(win) and math.isfinite(hop)):
        raise ValueError(f"window/hop not finite: {win_ms} ms / {hop_ms} ms at {rate} Hz")
    win, hop = int(win), int(hop)
    if win < 2 or hop < 1:
        raise ValueError(f"window/hop too small: {win_ms} ms / {hop_ms} ms at {rate} Hz")
    return StftConfig(window, win, hop)


def _grid_entries(sections: dict) -> list[GridEntry]:
    """The entries of a grid given in the grid file's form (see
    load_grid_file): the STFT rows, then the DWT rows, then the WPT rows."""
    entries = []
    if "stft" in sections:
        sect = sections["stft"]
        entries.extend(stft_entry(w, s, s * h) for w in sect["windows"]
                       for s in sect["sizes_ms"] for h in sect["hop_fractions"])
    for key, kind in (("wavelet", "dwt"), ("wpt", "wpt")):
        if key in sections:
            sect = sections[key]
            mode = sect.get("mode", "periodization")
            entries.extend(wavelet_entry(kind, fam, lv, mode)
                           for fam in sect["families"] for lv in sect["levels"])
    return entries


def default_grid(max_levels: int, full_depth: bool = False) -> list[GridEntry]:
    """The paper-style search grid: every window/size/hop STFT combination and
    every registered wavelet family at every depth up to min(12, max_levels)
    (the cap is lifted by full_depth)."""
    depth = max_levels if full_depth else min(_LEVEL_CAP, max_levels)
    wavelets = {"families": _DEFAULT_FAMILIES, "levels": range(1, depth + 1)}
    return _grid_entries({"stft": _DEFAULT_STFT, "wavelet": wavelets, "wpt": wavelets})


def _positive_number(value):
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite positive number")


def _positive_int(value):
    if type(value) is not int or value < 1:
        raise ValueError(f"{value!r} is not a positive integer")


# section -> key -> check of one value; every key but "mode" holds a list
_WAVELET_KEYS = {"families": lookup, "levels": _positive_int, "mode": PadMode}
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


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_grid_file(path) -> list[GridEntry]:
    """Grid description file: JSON with optional sections stft: {windows,
    sizes_ms, hop_fractions} and wavelet / wpt: {families, levels[, mode]}.
    The whole file is checked before any entry is built; a DataError names
    the section and key of anything malformed, or the key given twice."""
    try:
        spec = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:   # JSONDecodeError and UnicodeDecodeError too
        raise DataError(f"cannot read grid file {path}: {exc}") from exc
    if not isinstance(spec, dict) or spec.keys() - _GRID_KEYS.keys():
        raise DataError(f"grid file {path} must be a JSON object with sections from "
                        f"{', '.join(_GRID_KEYS)}")
    for section, sect in spec.items():
        _check_grid_section(sect, section, path)
    entries = _grid_entries(spec)
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

    @property
    def n_mixtures(self) -> int:
        """The mixture count every row was averaged over."""
        return self.rows[0].n_mixtures


SORT_COLUMNS = tuple(f.name for f in fields(MetricScores))
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
    signal length allows) produce a failed row; the run continues. Every
    mixture's recordings are drawn and their rates checked before the first
    trial; then the mixtures are built one at a time, each with its target's
    STOI reference, and released after their trials. Trials run on
    min(jobs, os.cpu_count()) threads, in-process when that is 1. Results
    are deterministic for a given corpus/seed/grid regardless of jobs.
    """
    if not grid:
        raise ValueError("grid is empty")
    if n_mixtures < 1:
        raise ValueError(f"need at least one mixture, got {n_mixtures}")
    if sort_by not in SORT_COLUMNS:
        raise ValueError(f"cannot sort by {sort_by!r}")
    mixture_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_mixtures)]
    for s in mixture_seeds:
        _draw(corpus, n_speakers, s)

    def evaluate(mix, entry):
        try:
            return run_ibm_trial(mix, build_config(entry, mix.mixture.rate))
        except ValueError as exc:
            return exc.with_traceback(None)    # its frames would hold the mixture

    def trials(mapper, mixture_seed):
        """The outcomes of every grid entry on the mixture of mixture_seed."""
        mix = make_mixture(corpus, n_speakers, mixture_seed)
        try:
            reference = stoi_reference(mix.sources[0].samples, mix.mixture.rate)
        except ValueError:                    # MetricError too; each trial raises it again
            reference = None
        return list(mapper(partial(evaluate, replace(mix, reference=reference)), grid))

    workers = min(jobs, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        outcomes = [trials(pool.map if pool else map, s) for s in mixture_seeds]

    rows = []
    for entry, results in zip(grid, zip(*outcomes)):
        errors = [r for r in results if isinstance(r, Exception)]
        if errors:
            # keep the CSV comma-free
            reason = str(errors[0]).replace(",", ";").replace("\n", " ")
            means, status = dict.fromkeys(SORT_COLUMNS), f"failed: {reason}"
        else:
            means = {col: _mean([getattr(r, col) for r in results]) for col in SORT_COLUMNS}
            status = "ok"
        rows.append(ReportRow(entry.decomposition, entry.params, n_mixtures=n_mixtures,
                              status=status, **means))

    def sort_key(row: ReportRow):
        value = getattr(row, sort_by)
        if value is None:
            return (1, 0.0)
        return (0, -value if sort_by in _SORT_DESCENDING else value)

    rows.sort(key=sort_key)
    return ExperimentReport(tuple(rows))


_REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def json_value(value):
    """JSON has no infinities: +-inf become the strings "inf" / "-inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"  # also "inf" / "-inf"
    return str(value)


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as CSV (one line per row, '.' decimal separator) or as
    a JSON array of row objects. Infinities serialize as the strings "inf" and
    "-inf"."""
    if not report.rows:
        raise ValueError("report is empty")
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(_REPORT_COLUMNS)]
        for row in report.rows:
            lines.append(",".join(_cell(getattr(row, col)) for col in _REPORT_COLUMNS))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = [{col: json_value(getattr(row, col)) for col in _REPORT_COLUMNS}
                   for row in report.rows]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
