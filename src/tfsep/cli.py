"""Command-line interface.

Subcommands: decompose, spectrogram, scaleogram, metrics, mix, experiment.
Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .fourier import StftConfig, WindowKind, export_heatmap, stft
from .harness import (DataError, SpeakerCorpus, default_grid, emit_report,
                      grid_search, load_grid_file, load_wav, make_mixture,
                      save_wav)
from .signal import PadMode, Signal
from .wavelet import (dwt_heatmap_matrix, lookup, max_level, wavedec, wpt)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_stft_options(p, required=False):
    p.add_argument("--window", choices=["hann", "rect"], default="hann")
    p.add_argument("--win-ms", type=float, default=32.0)
    p.add_argument("--hop-ms", type=float, default=16.0)


def _add_wavelet_options(p):
    p.add_argument("--wavelet", default="sym8")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--mode", choices=["zero", "periodization", "symmetric"],
                   default="periodization")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tfsep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write STFT/DWT/WPT coefficients as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["stft", "dwt", "wpt"], required=True)
    _add_stft_options(p)
    _add_wavelet_options(p)
    p.add_argument("--out", required=True)

    for name in ("spectrogram", "scaleogram"):
        p = sub.add_parser(name, help=f"export a {name} as PGM (+ CSV)")
        p.add_argument("--in", dest="infile", required=True)
        if name == "spectrogram":
            _add_stft_options(p)
        else:
            p.add_argument("--method", choices=["dwt", "wpt"], default="dwt")
            _add_wavelet_options(p)
        p.add_argument("--out", required=True)
        p.add_argument("--csv", default=None)

    p = sub.add_parser("metrics", help="score a degraded file against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)
    for m in ("stoi", "si-sdr", "snr", "mse"):
        p.add_argument(f"--{m}", action="store_true")

    p = sub.add_parser("mix", help="synthesize a speaker mixture from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sources-dir", default=None)

    p = sub.add_parser("experiment", help="run the ideal-mask separation grid search")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mixtures", type=_count, default=10)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--sort-by", choices=["stoi", "si_sdr", "snr", "mse", "time_s"],
                   default="stoi")
    p.add_argument("--full-depth", action="store_true",
                   help="lift the 12-level cap on the default wavelet grid")
    return parser


def _stft_config(args, rate: int) -> StftConfig:
    return StftConfig.from_milliseconds(WindowKind(args.window), args.win_ms,
                                        args.hop_ms, rate)


def _wavelet_transform(args, sig):
    """wavedec's DwtCoeffs or wpt's WptLeaves, as --method asks."""
    transform = wavedec if args.method == "dwt" else wpt
    return transform(sig, lookup(args.wavelet), args.levels, PadMode(args.mode))


def _cmd_decompose(args) -> int:
    sig = load_wav(args.infile)
    if args.method == "stft":
        matrix = stft(sig, _stft_config(args, sig.rate)).coeffs
        rows = [[f"{c.real:.17g}{c.imag:+.17g}j" for c in band] for band in matrix]
    else:
        out = _wavelet_transform(args, sig)
        bands = (out.approx, *out.details[::-1]) if args.method == "dwt" else out.matrix
        rows = [[f"{v:.17g}" for v in band] for band in bands]
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
    return 0


def _cmd_spectrogram(args) -> int:
    sig = load_wav(args.infile)
    matrix = np.abs(stft(sig, _stft_config(args, sig.rate)).coeffs)
    export_heatmap(matrix, args.out, args.csv)
    return 0


def _cmd_scaleogram(args) -> int:
    out = _wavelet_transform(args, load_wav(args.infile))
    matrix = np.abs(dwt_heatmap_matrix(out) if args.method == "dwt" else out.matrix)
    export_heatmap(matrix, args.out, args.csv)
    return 0


def _cmd_metrics(args) -> int:
    ref = load_wav(args.ref)
    deg = load_wav(args.deg)
    if ref.rate != deg.rate:
        raise DataError(f"rate mismatch: {ref.rate} vs {deg.rate}")
    if len(ref) != len(deg):
        raise DataError(f"length mismatch: {len(ref)} vs {len(deg)}")
    wanted = {name for name, flag in
              (("stoi", args.stoi), ("si_sdr", args.si_sdr),
               ("snr", args.snr), ("mse", args.mse)) if flag}
    if not wanted:
        wanted = {"stoi", "si_sdr", "snr", "mse"}
    out = {}
    if "stoi" in wanted:
        out["stoi"] = metrics_mod.stoi(ref.samples, deg.samples, ref.rate)
    if "si_sdr" in wanted:
        out["si_sdr"] = metrics_mod.si_sdr(ref.samples, deg.samples)
    if "snr" in wanted:
        out["snr"] = metrics_mod.snr(ref.samples, deg.samples)
    if "mse" in wanted:
        out["mse"] = metrics_mod.mse(ref.samples, deg.samples)
    out = {k: ("inf" if isinstance(v, float) and v == float("inf") else v)
           for k, v in out.items()}
    print(json.dumps(out))
    return 0


def _cmd_mix(args) -> int:
    corpus = SpeakerCorpus.from_dir(args.corpus)
    mix = make_mixture(corpus, args.speakers, args.seed)
    # one common gain keeps mixture == sum(sources) after 16-bit encoding
    gain = 1.0 / max(1.0, np.abs(mix.mixture.samples).max())
    save_wav(Signal(gain * mix.mixture.samples, mix.mixture.rate), args.out)
    if args.sources_dir:
        out_dir = Path(args.sources_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, src in enumerate(mix.sources):
            scaled = Signal(gain * src.samples, src.rate)
            save_wav(scaled, out_dir / f"source{i:02d}_{mix.speaker_ids[i]}.wav")
    return 0


def _cmd_experiment(args) -> int:
    corpus = SpeakerCorpus.from_dir(args.corpus)
    if args.grid == "default":
        shortest = min(len(load_wav(f)) for sp in corpus.speakers for f in sp.files)
        grid = default_grid(max_level(shortest), full_depth=args.full_depth)
    else:
        grid = load_grid_file(args.grid)
    report = grid_search(corpus, grid, n_mixtures=args.mixtures,
                         n_speakers=args.speakers, seed=args.seed,
                         jobs=args.jobs, sort_by=args.sort_by)
    emit_report(report, args.format, args.out)
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "spectrogram": _cmd_spectrogram,
    "scaleogram": _cmd_scaleogram,
    "metrics": _cmd_metrics,
    "mix": _cmd_mix,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, metrics_mod.MetricError, ValueError, OSError) as exc:
        print(f"tfsep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
