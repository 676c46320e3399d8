"""Command-line interface.

Subcommands: decompose, spectrogram, scaleogram, metrics, mix, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .fourier import WindowKind, export_heatmap
from .harness import (SORT_COLUMNS, DataError, SpeakerCorpus, _positive_number, build_config,
                      default_grid, emit_report, grid_search, json_value, load_grid_file,
                      load_wav, make_mixture, save_wav, stft_entry, wav_header, wavelet_entry)
from .masking import decompose
from .signal import PadMode, Signal
from .wavelet import dwt_bands, dwt_heatmap_matrix, lookup, max_level


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _finite_positive(text: str) -> float:
    """An argparse type: a finite positive number, as a grid file's sizes_ms."""
    try:
        value = float(text)
        _positive_number(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


# the metrics `tfsep metrics` prints, in the order of its JSON keys
_METRICS = ("stoi", "si_sdr", "snr", "mse")


def _add_stft_options(p):
    p.add_argument("--window", type=WindowKind, default="hann",
                   help="hann or rectangular (rect)")
    p.add_argument("--win-ms", type=_finite_positive, default=32.0)
    p.add_argument("--hop-ms", type=_finite_positive, default=16.0)


def _add_wavelet_options(p):
    p.add_argument("--wavelet", type=lookup, default="sym8")
    p.add_argument("--levels", type=_at_least(1), default=6)
    p.add_argument("--mode", type=PadMode, default="periodization",
                   help="zero, periodization or symmetric")


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
            p.set_defaults(method="stft")
            _add_stft_options(p)
        else:
            p.add_argument("--method", choices=["dwt", "wpt"], default="dwt")
            _add_wavelet_options(p)
        p.add_argument("--out", required=True)
        p.add_argument("--csv", default=None)

    p = sub.add_parser("metrics", help="score a degraded file against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)
    for name in _METRICS:
        p.add_argument(f"--{name.replace('_', '-')}", action="store_true")

    p = sub.add_parser("mix", help="synthesize a speaker mixture from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--speakers", type=_at_least(2), default=2)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sources-dir", default=None)

    p = sub.add_parser("experiment", help="run the ideal-mask separation grid search")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mixtures", type=_at_least(1), default=10)
    p.add_argument("--speakers", type=_at_least(2), default=2)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--grid", default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--sort-by", choices=SORT_COLUMNS, default="stoi")
    p.add_argument("--full-depth", action="store_true",
                   help="lift the 12-level cap on the default wavelet grid")
    return parser


def _transform(args):
    """Decompose --in as the grid row that --method and its options name."""
    sig = load_wav(args.infile)
    entry = (stft_entry(args.window, args.win_ms, args.hop_ms) if args.method == "stft"
             else wavelet_entry(args.method, args.wavelet.name, args.levels, args.mode))
    return decompose(sig, build_config(entry, sig.rate))


def _cmd_decompose(args) -> int:
    tf = _transform(args)
    if args.method == "stft":
        rows = [[f"{c.real:.17g}{c.imag:+.17g}j" for c in band] for band in tf.coeffs]
    else:
        bands = dwt_bands(tf) if args.method == "dwt" else tf.coeffs
        rows = [[f"{v:.17g}" for v in band] for band in bands]
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
    return 0


def _cmd_heatmap(args) -> int:
    """spectrogram and scaleogram: the magnitudes of --method's coefficients."""
    tf = _transform(args)
    matrix = np.abs(dwt_heatmap_matrix(tf) if args.method == "dwt" else tf.coeffs)
    export_heatmap(matrix, args.out, args.csv)
    return 0


def _cmd_metrics(args) -> int:
    ref = load_wav(args.ref)
    deg = load_wav(args.deg)
    if ref.rate != deg.rate:
        raise DataError(f"rate mismatch: {ref.rate} vs {deg.rate}")
    out = {}
    for name in [m for m in _METRICS if getattr(args, m)] or _METRICS:
        rate = (ref.rate,) if name == "stoi" else ()
        # looked up at call time, so that a patched tfsep.metrics function is the one run
        out[name] = json_value(getattr(metrics_mod, name)(ref.samples, deg.samples, *rate))
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
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # found now, not after the whole grid
        raise DataError(f"cannot write the report to {out}: not a file in an existing directory")
    corpus = SpeakerCorpus.from_dir(args.corpus)
    corpus.check_speakers(args.speakers)  # before any WAV is decoded
    if args.grid == "default":
        shortest = min(wav_header(f)[1] for sp in corpus.speakers for f in sp.files)
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
    "spectrogram": _cmd_heatmap,
    "scaleogram": _cmd_heatmap,
    "metrics": _cmd_metrics,
    "mix": _cmd_mix,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, ValueError, OSError) as exc:   # MetricError is a ValueError
        print(f"tfsep: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("tfsep: interrupted; no report written", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
