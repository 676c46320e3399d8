#!/usr/bin/env python3
"""Paired before/after benchmark runs, written to one BENCH_<n>.json file.

Run from a tfsep checkout:

    python3 scripts/bench.py --before HEAD --after WORKTREE \\
        --out BENCH_<n>.json stft_sweep:10 paper_grid:3 score_pairs:3

Each side is extracted with `git archive` into its own directory under a
temporary directory, the two paths of one length: --before and --after name
git revisions, and WORKTREE stands for the files of the working tree that
.gitignore does not exclude, committed or not. Every workload argument
NAME:PAIRS gets PAIRS pairs of runs, pair i with seed SEED_START + i, both
sides on the same seed. The side that runs first alternates from pair to
pair. Each run is that side's own
`perfbench/run.py --workload NAME --seed S` at the run length run.py sets,
and the last line it prints is parsed as its result.

The file holds every run's result with the minor page faults and the CPU
seconds (user plus system) of the processes the run started, from
RUSAGE_CHILDREN before and after it; the median and quartiles of each
end-to-end metric per side, the number of pairs the after side won (by the
direction BENCHMARK.json gives the metric), the change of the medians (after
minus before, and as a fraction of the before median), the before side's
interquartile range, and whether the after median is worse than the before
median by more than the metric's bound, a fraction of the before median as
in BENCHMARK.json; the machine (nproc, Python and numpy versions), both
sides' commits and tree hashes, and each side's `src_lines`: the lines of
its src/tfsep/*.py without the generated _filter_tables.py. It is rewritten
after every pair, so an interrupted run keeps the pairs it finished.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

WORKTREE = "WORKTREE"
SEED_START = 101
RUN_TIMEOUT_S = 600


def _git(repo: Path, *args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _side(repo: Path, rev: str) -> dict:
    """Commit and tree hashes of a revision, or of the working tree."""
    if rev != WORKTREE:
        commit = _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
        tree = _git(repo, "rev-parse", f"{commit}^{{tree}}")
        side = {"rev": rev, "commit": commit, "tree": tree}
    else:
        # a throw-away index, so that the repository's own index is left alone
        with tempfile.TemporaryDirectory() as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            _git(repo, "add", "--all", env=env)
            tree = _git(repo, "write-tree", env=env)
        side = {"rev": rev, "commit": _git(repo, "rev-parse", "HEAD") + " + working tree",
                "tree": tree}
    for sub in ("src", "perfbench"):
        side[f"{sub}_tree"] = _git(repo, "rev-parse", f"{tree}:{sub}")
    return side


def _extract(repo: Path, tree: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=repo,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src/tfsep").glob("*.py")
               if p.name != "_filter_tables.py")


def _run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "children": {"minor_faults": after.ru_minflt - before.ru_minflt,
                         "cpu_s": round(sum(getattr(after, f) - getattr(before, f)
                                            for f in ("ru_utime", "ru_stime")), 3)}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of `metrics` (name: its BENCHMARK.json entry), what a
    claim of a gain or a check for a regression reads of the pairs."""
    out = {}
    for name, spec in metrics.items():
        direction = spec["better"]
        before = [p["before"]["metrics"][name] for p in pairs]
        after = [p["after"]["metrics"][name] for p in pairs]
        wins = sum((a > b) if direction == "higher" else (a < b)
                   for a, b in zip(after, before))
        before, after = _spread(before), _spread(after)
        change, scale = after["median"] - before["median"], abs(before["median"])
        loss = -change if direction == "higher" else change
        out[name] = {"better": direction, "before": before, "after": after,
                     "after_wins": wins, "pairs": len(pairs), "median_change": change,
                     "relative_change": change / scale if scale else None,
                     "before_iqr": before["q3"] - before["q1"],
                     "worse_than_bound": loss > spec["bound"] * scale}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="git revision")
    parser.add_argument("--after", default=WORKTREE, help=f"git revision or {WORKTREE}")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, help="where the checkouts go "
                        "(default: a new temporary directory)")
    parser.add_argument("workloads", nargs="+", metavar="NAME:PAIRS")
    args = parser.parse_args(argv)

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    plan = []
    for item in args.workloads:
        name, _, count = item.partition(":")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"expected NAME:PAIRS with PAIRS >= 1, got {item!r}")
        plan.append((name, int(count)))
    sides = {"before": _side(repo, args.before), "after": _side(repo, args.after)}
    metrics = {m["name"]: m for m in
               json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "sides": sides, "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {}
        # paths of one length: perfbench's peak RSS moves with the checkout's path
        for i, (label, side) in enumerate(sides.items()):
            checkouts[label] = Path(tmp) / f"side{i}"
            _extract(repo, side["tree"], checkouts[label])
            side["src_lines"] = _src_lines(checkouts[label])
        for name, count in plan:
            pairs = []
            for i in range(count):
                seed = SEED_START + i
                order = ("before", "after") if i % 2 == 0 else ("after", "before")
                pair = {"seed": seed, "first": order[0]}
                for label in order:
                    pair[label] = _run(checkouts[label], name, seed)
                pairs.append(pair)
                record["workloads"][name] = {"pairs": pairs, "summary": _summary(pairs, metrics)}
                args.out.write_text(json.dumps(record, indent=2) + "\n")
                ops = {label: pair[label]["metrics"]["ops_per_s"] for label in sides}
                print(f"{name} seed {seed}: ops_per_s {ops['before']:.3f} -> "
                      f"{ops['after']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
