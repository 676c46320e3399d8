"""The benchmark's workloads: set-up, one timed pass, and the output check.

A pass is the unit of timing. On the grid workloads a sweep runs every
config of the workload on one mixture, as the paper's grid experiment does,
and is split into P = inputs.PASSES_PER_SWEEP passes: pass p runs
`harness.grid_search` (jobs=1) over every P-th config, from config p % P on,
on the mixture of sweep p // P, plus `emit_report` to CSV; every (config,
mixture) trial is one operation. On score_pairs a pass is one `tfsep
metrics` call (cli.main) per pair, each pair one operation, and a sweep is
one pass. Inputs of a pass are prepared before its clock starts and checked
after it stops.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import wave
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import inputs
from .tracing import ROOT_SPAN

RTOL = 1e-6        # against stored reference values (the CSV prints 9 digits)
CROSS_RTOL = 1e-9  # against the benchmark's own si_sdr / mse of a pair
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCORE_KEYS = ("stoi", "si_sdr", "snr", "mse")


@dataclass
class PassResult:
    ops: int
    failed: int = 0
    stoi: list = field(default_factory=list)      # of ok ops
    si_sdr: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    reference: object = None                      # what --write-reference stores

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)


def load_reference(spec, seed: int) -> dict:
    """Stored (stoi, si_sdr, snr, mse) of sweep 0 (canonical, checked on every
    seed) and of the later sweeps of seed 0 (checked when the seed is 0).
    On score_pairs a sweep is one pass."""
    path = REFERENCE_DIR / f"{spec.reference_name}.json"
    if not path.is_file():
        return {}
    sweeps = json.loads(path.read_text(encoding="utf-8"))["sweeps"]
    return {int(k): v for k, v in sweeps.items()
            if int(k) == 0 or seed == inputs.CANONICAL_SEED}


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isclose(value, ref, rel_tol=rtol, abs_tol=1e-12)


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


class _Workload:
    """What the measuring loop calls: setup(), then per pass prepare() (untimed),
    run() (timed), check() and cleanup()."""

    def __init__(self, spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = Path(workdir)
        self.reference = load_reference(spec, seed)


class GridWorkload(_Workload):
    def __init__(self, spec: inputs.GridSpec, seed: int, workdir: Path):
        from tfsep import harness

        super().__init__(spec, seed, workdir)
        self.harness = harness
        self.grid = inputs.grid_configs(spec)
        self.passes_per_sweep = inputs.PASSES_PER_SWEEP
        self.chunks = [self.grid[k::self.passes_per_sweep]
                       for k in range(self.passes_per_sweep)]
        self._corpora = {}

    def sizes(self) -> dict:
        kinds = [e.decomposition for e in self.grid]
        return {"configs": len(self.grid), "passes_per_sweep": len(self.chunks),
                "mixtures_per_sweep": 1, "speakers_per_mixture": self.spec.mix_speakers,
                "corpus": f"{inputs.CORPUS_SPEAKERS} speakers x {inputs.CORPUS_RECORDINGS} "
                          f"recordings of {self.spec.duration_s:g} s",
                "rate_hz": self.spec.rate, "jobs": 1,
                "config_kinds": {k: kinds.count(k) for k in sorted(set(kinds))}}

    def ops_in_pass(self, pass_index: int) -> int:
        return len(self.chunks[pass_index % len(self.chunks)])

    def _corpus(self, canonical: bool, fresh: bool = False):
        """The scanned corpus with every recording loaded, kept for the run;
        `fresh` scans and loads it again."""
        if fresh or canonical not in self._corpora:
            corpus = self.harness.SpeakerCorpus.from_dir(
                inputs.corpus_dir(self.workdir, canonical))
            for speaker in corpus.speakers:
                for path in speaker.files:
                    corpus.load(path)
            self._corpora[canonical] = corpus
        return self._corpora[canonical]

    def setup(self) -> PassResult:
        """Scan the run's corpus and load every WAV of it, build a mixture
        (with a seed no sweep uses) and run one warm-up trial on it."""
        corpus = self._corpus(canonical=False, fresh=True)
        mix = self.harness.make_mixture(corpus, self.spec.mix_speakers,
                                        inputs.pass_seed(self.seed, inputs.WARMUP_PASS))
        scores = self.harness.run_ibm_trial(
            mix, self.harness.build_config(self.grid[0], mix.mixture.rate))
        result = PassResult(ops=1)
        if scores.stoi is None or scores.si_sdr is None \
                or not (0.0 <= scores.stoi <= 1.0 and math.isfinite(scores.si_sdr)):
            result.fail(1, f"warm-up trial out of range: {scores}")
        return result

    def prepare(self, pass_index: int):
        sweep, chunk = divmod(pass_index, len(self.chunks))
        return (self._corpus(canonical=sweep == 0), self.chunks[chunk],
                inputs.pass_seed(self.seed, sweep))

    def run(self, pass_index: int, prepared, tracer=None):
        """The timed part of a pass; returns (seconds, outcome)."""
        corpus, configs, mixture_seed = prepared
        out = inputs.pass_dir(self.workdir, pass_index).with_suffix(".csv")
        span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
        start = perf_counter()
        with span:
            report = self.harness.grid_search(
                corpus, configs, n_mixtures=1, n_speakers=self.spec.mix_speakers,
                seed=mixture_seed, jobs=1)
            self.harness.emit_report(report, "csv", out)
        return perf_counter() - start, (configs, report, out)

    def cleanup(self, pass_index: int) -> None:
        inputs.pass_dir(self.workdir, pass_index).with_suffix(".csv").unlink(missing_ok=True)

    def check(self, pass_index: int, outcome) -> PassResult:
        """Invariants on every pass, stored values where a reference exists.
        A config that fails either counts its trial as a failed op."""
        configs, report, path = outcome
        result = PassResult(ops=len(configs))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",") if lines else []
        if header[:2] != ["decomposition", "params"] or "time_s" not in header \
                or report.n_mixtures != 1:
            result.fail(result.ops, f"pass {pass_index}: malformed report {path}")
            return result
        rows = {}
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            key = f"{cells.get('decomposition')}|{cells.get('params')}"
            if key in rows:
                result.fail(1, f"pass {pass_index}: duplicate row {key}")
            rows[key] = cells
        expected = [f"{e.decomposition}|{e.params}" for e in configs]
        extra = set(rows) - set(expected)
        if extra:
            result.fail(len(extra), f"pass {pass_index}: rows for unknown configs {sorted(extra)}")
        ref = self.reference.get(pass_index // len(self.chunks))
        stored = {}
        for key in expected:
            row = rows.get(key)
            if row is None:
                result.fail(1, f"pass {pass_index}: no row for {key}")
                continue
            stored[key] = [row.get(k) for k in SCORE_KEYS]
            problem = self._row_problem(row, ref.get(key) if ref else None)
            if problem:
                result.fail(1, f"pass {pass_index}: {key}: {problem}")
            else:
                result.stoi.append(float(row["stoi"]))
                result.si_sdr.append(float(row["si_sdr"]))
        result.reference = stored
        return result

    @staticmethod
    def _row_problem(row: dict, ref: list | None) -> str | None:
        if row.get("status") != "ok":
            return f"status {row.get('status')!r}"
        if row.get("n_mixtures") != "1":
            return f"n_mixtures {row.get('n_mixtures')!r}, expected 1"
        values = {k: _float(row.get(k, "")) for k in SCORE_KEYS}
        if any(v is None for v in values.values()) or _float(row.get("time_s", "")) is None:
            return f"missing value in {row}"
        if not 0.0 <= values["stoi"] <= 1.0:
            return f"stoi {values['stoi']} outside [0, 1]"
        if not math.isfinite(values["si_sdr"]):
            return f"si_sdr {values['si_sdr']} not finite"
        if ref is not None:
            for k, cell in zip(SCORE_KEYS, ref):
                if not _close(values[k], float(cell), RTOL):
                    return f"{k} {row[k]} differs from stored {cell}"
        return None


class PairWorkload(_Workload):
    def __init__(self, spec: inputs.PairSpec, seed: int, workdir: Path):
        from tfsep import cli

        super().__init__(spec, seed, workdir)
        self.cli = cli
        self.passes_per_sweep = 1
        self.pairs_per_pass = len(spec.rates) * len(spec.lengths_s)

    def ops_in_pass(self, pass_index: int) -> int:
        return self.pairs_per_pass

    def sizes(self) -> dict:
        return {"pairs_per_pass": self.pairs_per_pass, "rates_hz": list(self.spec.rates),
                "lengths_s": list(self.spec.lengths_s), "jobs": 1}

    def _score(self, ref: Path, deg: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["metrics", "--ref", str(ref), "--deg", str(deg)])
        return code, out.getvalue()

    def setup(self) -> PassResult:
        """Score one warm-up pair of the set-up inputs (never reused by a timed
        pass)."""
        warm = inputs.pass_dir(self.workdir, inputs.WARMUP_PASS)
        ref, deg = inputs.pair_path(warm, self.spec.rates[0], 0)
        code, text = self._score(ref, deg)
        result = PassResult(ops=1)
        problem = self._pair_problem(code, text, ref, deg, None)
        if problem:
            result.fail(1, f"warm-up pair: {problem}")
        return result

    def prepare(self, pass_index: int):
        return inputs.make_pair_pass(self.spec, self.seed, pass_index, self.workdir)

    def run(self, pass_index: int, pairs, tracer=None):
        """Score every pair of the pass; returns (seconds, outcome)."""
        outputs = []
        span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
        start = perf_counter()
        with span:
            for ref, deg in pairs:
                outputs.append((ref, deg, *self._score(ref, deg)))
        return perf_counter() - start, outputs

    def cleanup(self, pass_index: int) -> None:
        shutil.rmtree(inputs.pass_dir(self.workdir, pass_index), ignore_errors=True)

    def check(self, pass_index: int, outcome) -> PassResult:
        result = PassResult(ops=len(outcome))
        stored_pass = self.reference.get(pass_index)
        stored = []
        for i, (ref, deg, code, text) in enumerate(outcome):
            stored_pair = stored_pass[i] if stored_pass and i < len(stored_pass) else None
            problem = self._pair_problem(code, text, ref, deg, stored_pair)
            if problem:
                result.fail(1, f"pass {pass_index} pair {i} ({ref.name}): {problem}")
                stored.append(None)
                continue
            scores = json.loads(text)
            stored.append([scores[k] for k in SCORE_KEYS])
            result.stoi.append(scores["stoi"])
            result.si_sdr.append(scores["si_sdr"])
        result.reference = stored
        return result

    @staticmethod
    def _pair_problem(code: int, text: str, ref: Path, deg: Path,
                      stored: list | None) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            scores = json.loads(text)
        except json.JSONDecodeError:
            return f"output is not JSON: {text!r}"
        if sorted(scores) != sorted(SCORE_KEYS) or \
                not all(isinstance(scores[k], float) and math.isfinite(scores[k])
                        for k in SCORE_KEYS):
            return f"expected four finite scores, got {scores}"
        if not 0.0 <= scores["stoi"] <= 1.0:
            return f"stoi {scores['stoi']} outside [0, 1]"
        s, s_hat = _read_pcm(ref), _read_pcm(deg)
        alpha = np.dot(s, s_hat) / np.dot(s, s)
        own = {"si_sdr": 10.0 * math.log10(np.sum((alpha * s) ** 2)
                                           / np.sum((alpha * s - s_hat) ** 2)),
               "mse": float(np.mean((s - s_hat) ** 2))}
        for k, v in own.items():
            if not _close(scores[k], v, CROSS_RTOL):
                return f"{k} {scores[k]} differs from the benchmark's own {v}"
        if stored is not None:
            for k, value in zip(SCORE_KEYS, stored):
                if not _close(scores[k], value, RTOL):
                    return f"{k} {scores[k]} differs from stored {value}"
        return None


def _read_pcm(path: Path) -> np.ndarray:
    """16-bit mono PCM decoded here, not by tfsep, for the cross-check."""
    with wave.open(str(path), "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def make_workload(name: str, seed: int, workdir: Path):
    spec = inputs.WORKLOADS[name]
    cls = GridWorkload if isinstance(spec, inputs.GridSpec) else PairWorkload
    return cls(spec, seed, workdir)
