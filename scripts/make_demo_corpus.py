#!/usr/bin/env python3
"""Create a synthetic speaker corpus for trying out the mixing and experiment
commands without a speech dataset.

Example:
    python3 scripts/make_demo_corpus.py --out demo_corpus --speakers 8
    tfsep experiment --corpus demo_corpus --mixtures 10 --seed 7 \
        --grid default --out report.csv
"""
import math

from tfsep.cli import _at_least, _finite_positive, _Parser
from tfsep.synth import make_corpus

# below 250 Hz the synthesizer's 4 ms fricative shaper has no taps
MIN_RATE = 250


def main():
    parser = _Parser(description=__doc__)
    parser.add_argument("--out", required=True, help="corpus directory to create")
    parser.add_argument("--speakers", type=_at_least(1), default=8)
    parser.add_argument("--recordings", type=_at_least(1), default=3)
    parser.add_argument("--duration", type=_finite_positive, default=10.0,
                        help="seconds per recording")
    parser.add_argument("--rate", type=_at_least(MIN_RATE), default=16000)
    parser.add_argument("--seed", type=_at_least(0), default=0)
    args = parser.parse_args()
    samples = args.duration * args.rate
    if not 1 <= samples < math.inf:
        parser.error(f"argument --duration: {args.duration:g} s at {args.rate} Hz is "
                     f"{samples:g} samples; need a finite count of at least 1")
    make_corpus(args.out, n_speakers=args.speakers, recordings=args.recordings,
                duration=args.duration, rate=args.rate, seed=args.seed)
    print(f"wrote {args.speakers} speakers x {args.recordings} recordings to {args.out}")


if __name__ == "__main__":
    main()
