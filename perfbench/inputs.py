"""Seeded inputs for the benchmark workloads.

The grid workloads run on corpora shaped like the corpus of the repository's
separation benchmark (acceptance criterion 9): 10 speakers with two 12 s
recordings each, from `tfsep.synth.make_corpus`. A run writes two of them,
the canonical corpus from seed 0 and the run's corpus from the run's seed.
A sweep evaluates every config of the workload on one mixture; sweep 0
draws its mixture from the canonical corpus with a fixed seed, so its
scores (stoi_mean, si_sdr_mean) and stored reference values are the same on
every run. Sweeps 1, 2, ... and the warm-up op of set-up draw their
mixtures from the run's corpus, each with its own seed.

score_pairs gets freshly synthesized WAV pairs for every pass, so no pair is
ever scored twice in one run; pass 0 is canonical in the same way.

Inputs are written under the run's work directory; the program under test
only ever sees the generated files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CANONICAL_SEED = 0
WARMUP_PASS = 1_000_000   # index of the set-up inputs; timed passes never reach it
CORPUS_STREAM = 2_000_000  # index of a grid workload's corpus
SAMPLE_STRIDE = 29        # paper_sample: every 29th default_grid entry
PASSES_PER_SWEEP = 8      # a grid sweep is 8 passes, each of every 8th config
CORPUS_SPEAKERS = 10      # the shape of the acceptance-criterion-9 corpus
CORPUS_RECORDINGS = 2
# STOI is undefined on a reference with less than 0.384 s of speech (tfsep
# raises MetricError), so every generated target carries about twice that.
MIN_SPEECH_S = 0.75


@dataclass(frozen=True)
class GridSpec:
    """A grid-search workload at jobs=1. A sweep runs every config on one
    mixture."""

    rate: int
    duration_s: float
    mix_speakers: int
    configs: str            # "paper_sample" or "stft"

    @property
    def reference_name(self) -> str:
        return "paper_grid" if self.configs == "paper_sample" else "stft_sweep"


@dataclass(frozen=True)
class PairSpec:
    """A scoring workload: (clean, degraded) WAV pairs through `tfsep metrics`."""

    rates: tuple[int, ...]
    lengths_s: tuple[int, ...]
    recording_s: float

    reference_name = "score_pairs"


WORKLOADS = {
    "paper_grid": GridSpec(rate=16000, duration_s=12.0, mix_speakers=2,
                           configs="paper_sample"),
    "stft_sweep": GridSpec(rate=8000, duration_s=12.0, mix_speakers=3, configs="stft"),
    "score_pairs": PairSpec(rates=(8000, 16000), lengths_s=tuple(range(2, 13)),
                            recording_s=12.0),
}


def pass_seed(seed: int, pass_index: int) -> int:
    """The generator seed of one pass (of one sweep on the grid workloads);
    index 0 and the warm-up are canonical."""
    if pass_index in (0, WARMUP_PASS):
        seed = CANONICAL_SEED
    return int(np.random.SeedSequence([seed, pass_index]).generate_state(1)[0])


def grid_configs(spec: GridSpec):
    """The workload's list of tfsep GridEntry configs."""
    from tfsep.harness import default_grid
    from tfsep.wavelet import max_level

    grid = default_grid(max_level(int(spec.duration_s * spec.rate)))
    if spec.configs == "stft":
        return [e for e in grid if e.decomposition == "stft"]
    return grid[::SAMPLE_STRIDE]


def pass_dir(workdir: Path, pass_index: int) -> Path:
    return Path(workdir) / f"pass{pass_index:07d}"


def corpus_dir(workdir: Path, canonical: bool) -> Path:
    return Path(workdir) / ("corpus-canonical" if canonical else "corpus-run")


def _active_frames(x: np.ndarray, rate: int) -> np.ndarray:
    """Which 20 ms frames of x lie within 40 dB of its loudest frame (the
    frames STOI keeps)."""
    energy = np.add.reduceat(x ** 2, np.arange(0, x.size, rate // 50))
    return energy > energy.max() * 1e-4


def _speech_starts(x: np.ndarray, n: int, rate: int) -> np.ndarray:
    """Frame-aligned offsets whose n-sample segment of x holds MIN_SPEECH_S
    of active frames."""
    frame = rate // 50
    active = np.concatenate([[0], np.cumsum(_active_frames(x, rate))])
    width = n // frame
    counts = active[width:] - active[:-width]
    starts = np.flatnonzero(counts * frame >= MIN_SPEECH_S * rate) * frame
    return starts[starts + n <= x.size]


def _corpus(directory: Path, n_speakers: int, recordings: int, duration: float,
            rate: int, seed: int, accept) -> list[np.ndarray]:
    """A tfsep.synth.make_corpus corpus, drawn again with seed + 1, seed + 2,
    ... until accept(recordings) holds."""
    from tfsep.harness import load_wav
    from tfsep.synth import make_corpus

    for attempt in range(100):
        make_corpus(directory, n_speakers=n_speakers, recordings=recordings,
                    duration=duration, rate=rate, seed=seed + attempt)
        paths = sorted(Path(directory).glob("*/*.wav"))
        recs = [load_wav(p).samples for p in paths]
        if accept(recs):
            return recs
    raise RuntimeError(f"no acceptable corpus in 100 draws from seed {seed}")


def make_grid_corpora(spec: GridSpec, seed: int, workdir: Path) -> None:
    """Write the canonical corpus and the run's corpus. Every recording holds
    MIN_SPEECH_S of speech, so every mixture's target does."""
    def accept(recs):
        return all(_active_frames(x, spec.rate).sum() / 50 >= MIN_SPEECH_S for x in recs)

    for canonical in (True, False):
        _corpus(corpus_dir(workdir, canonical), CORPUS_SPEAKERS, CORPUS_RECORDINGS,
                spec.duration_s, spec.rate,
                pass_seed(CANONICAL_SEED if canonical else seed, CORPUS_STREAM), accept)


def make_pair_pass(spec: PairSpec, seed: int, pass_index: int,
                   workdir: Path) -> list[tuple[Path, Path]]:
    """Write one pass of (clean, degraded) WAV pairs: one pair per length per
    rate, cut from two fresh 12 s recordings. Every clean segment holds
    MIN_SPEECH_S of speech.

    The degraded file is the clean segment plus a scaled segment of the other
    speaker and white noise. Returns the pairs in scoring order.
    """
    from tfsep.harness import save_wav
    from tfsep.signal import Signal

    directory = pass_dir(workdir, pass_index)
    gen_seed = pass_seed(seed, pass_index)
    rng = np.random.default_rng(gen_seed)
    pairs = []
    for rate in spec.rates:
        lengths = [int(length_s * rate) for length_s in spec.lengths_s]
        speakers = _corpus(
            directory / f"corpus{rate}", 2, 1, spec.recording_s, rate, gen_seed,
            lambda recs: all(_speech_starts(x, n, rate).size for x in recs for n in lengths))
        for i, n in enumerate(lengths):
            target, other = speakers[i % 2], speakers[1 - i % 2]
            start = int(rng.choice(_speech_starts(target, n, rate)))
            clean = target[start:start + n]
            interferer = other[int(rng.integers(0, other.size - n + 1)):][:n]
            degraded = (clean + rng.uniform(0.2, 0.8) * interferer
                        + rng.uniform(0.003, 0.03) * rng.normal(size=n))
            degraded /= max(1.0, float(np.abs(degraded).max()))
            ref_path, deg_path = pair_path(directory, rate, i)
            save_wav(Signal(clean, rate), ref_path)
            save_wav(Signal(degraded, rate), deg_path)
            pairs.append((ref_path, deg_path))
    return pairs


def pair_path(directory: Path, rate: int, i: int) -> tuple[Path, Path]:
    """The (clean, degraded) files of the i-th pair at this rate."""
    return (Path(directory) / f"pair{rate}_{i:02d}_ref.wav",
            Path(directory) / f"pair{rate}_{i:02d}_deg.wav")


def make_run_inputs(spec, seed: int, workdir: Path) -> None:
    """What exists before set-up starts: the corpora of a grid workload, the
    warm-up pair pass of score_pairs."""
    if isinstance(spec, GridSpec):
        make_grid_corpora(spec, seed, workdir)
    else:
        make_pair_pass(spec, seed, WARMUP_PASS, workdir)
