#!/usr/bin/env python3
"""tfsep benchmark: ideal-binary-mask trial throughput on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see BENCHMARK.json for why each was chosen):
    paper_grid           stride-29 sample of harness.default_grid (48 configs),
                         2-speaker mixtures of 12 s, 16 kHz recordings, jobs=1;
                         a sweep of the 48 configs is 8 passes of 6
    stft_sweep           the 48 default STFT configs, 3-speaker mixtures of
                         12 s, 8 kHz recordings, jobs=1; 8 passes of 6
    score_pairs          22 (clean, degraded) WAV pairs per pass, 2-12 s at
                         8 and 16 kHz, each scored once by `tfsep metrics`

Each run generates its inputs from --seed, measures closed-loop passes for
at least --seconds seconds (and at least one whole sweep), checks every
output and prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones:

    ops_per_s    completed operations over the timed seconds of all passes
    setup_s      median over five processes (two fresh ones before the
                 measuring process, two after it) of import + corpus scan
                 and WAV load + mixture build + one warm-up op; warm-up is
                 never part of ops_per_s
    peak_rss_mb  peak resident memory of the process running the passes
    stoi_mean, si_sdr_mean
                 mean scores of the canonical sweep 0, which is built from
                 seed 0 on every run

The share of failed operations (failed_frac) is printed with its base and
carried by `failed` / `attempted`. With --trace 1 every pass runs twice in a
row, untraced and then with the layer tracer of tracing.py installed, for
whole sweeps until the untraced passes have taken half of --seconds; the
metrics are the per-layer ones, and the spans are written to
.perfbench_out/<workload>.spans.jsonl.

`--write-reference N` (seed 0 only) stores the outputs of the first N sweeps
under perfbench/reference/ for the output check.
"""
from time import perf_counter

_PROCESS_START = perf_counter()   # set-up time is counted from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("paper_grid", "stft_sweep", "score_pairs")
# Set-up is timed in the measuring process and in SETUP_PROBES fresh
# processes, half of them before it and half after it, so that the median
# samples the machine over the whole run like ops_per_s does.
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0       # one workload run, all processes included
# One BLAS thread per process, so that the workloads, which run at jobs=1,
# use one core.
# On a 2-vCPU Xeon VM, multi-threaded OpenBLAS gave paper_grid no speed-up but
# kept the second core spinning (process CPU time 1.85x wall time), which made
# the timings depend on what else ran on the machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "stoi_mean": "1", "si_sdr_mean": "dB"}


def _import_paths() -> None:
    if not (SRC / "tfsep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tfsep sources under {SRC}; run from a tfsep checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tfsep
    if not Path(tfsep.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported tfsep from {tfsep.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# the measuring process

def _run_pass(wl, index: int, tracer=None) -> dict:
    """Prepare, time, check and clean up one pass. With a tracer, only the
    timed part is in its "loop" region."""
    from perfbench.workloads import PassResult

    if tracer:
        tracer.region = "gap"
    prepared = wl.prepare(index)
    if tracer:
        tracer.region = "loop"
    start = perf_counter()
    try:
        elapsed, outcome = wl.run(index, prepared, tracer)
    except Exception:  # a crashed pass fails all of its ops; the loop goes on
        elapsed, outcome = perf_counter() - start, None
        problem = traceback.format_exc()
    if tracer:
        tracer.region = "gap"
    if outcome is None:
        result = PassResult(ops=wl.ops_in_pass(index))
        result.fail(result.ops, f"pass {index} raised:\n{problem}")
    else:
        result = wl.check(index, outcome)
    wl.cleanup(index)
    return {"index": index, "seconds": elapsed, "ops": result.ops,
            "failed": result.failed, "stoi": result.stoi, "si_sdr": result.si_sdr,
            "problems": result.problems, "reference": result.reference}


def _run_passes(wl, seconds: float, min_sweeps: int = 1) -> list[dict]:
    """Closed loop, one pass after another, until `seconds` of timed work and
    min_sweeps sweeps are done, or the loop has run for half of the run
    budget."""
    per_sweep = wl.passes_per_sweep
    records, spent = [], 0.0
    wall_start = perf_counter()
    while (spent < seconds or len(records) < per_sweep * min_sweeps) \
            and perf_counter() - wall_start < RUN_BUDGET_S / 2:
        records.append(_run_pass(wl, len(records)))
        spent += records[-1]["seconds"]
    return records


def _run_paired(wl, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Trace mode: every pass runs twice in a row on the same inputs, first
    untraced, then with the tracer installed, for whole sweeps until the
    untraced passes have taken `seconds` (or half of the run budget is
    gone). Returns the untraced and the traced records."""
    per_sweep = wl.passes_per_sweep
    plain, traced = [], []
    wall_start = perf_counter()
    while not plain or len(plain) % per_sweep \
            or (sum(r["seconds"] for r in plain) < seconds
                and perf_counter() - wall_start < RUN_BUDGET_S / 2):
        plain.append(_run_pass(wl, len(plain)))
        with tracer.installed():
            traced.append(_run_pass(wl, len(traced), tracer))
    return plain, traced


def _ops_per_s(records) -> float:
    """Completed operations per second over the timed part of all passes."""
    return sum(r["ops"] - r["failed"] for r in records) / sum(r["seconds"] for r in records)


def _measure(args) -> dict:
    from perfbench import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.workdir)
    warm = wl.setup()
    setup_s = perf_counter() - _PROCESS_START
    if args.role == "setup":
        return {"setup_s": setup_s}

    out = {"setup_s": setup_s, "sizes": wl.sizes(),
           "passes_per_sweep": wl.passes_per_sweep,
           "warmup_failed": warm.failed, "problems": warm.problems}
    if args.write_reference:
        wl.reference = {}   # the stored values are being replaced, not checked
        out["passes"] = _run_passes(wl, 0, min_sweeps=args.write_reference)
    elif not args.trace:
        out["passes"] = _run_passes(wl, args.seconds)
    else:
        from perfbench.tracing import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            start = perf_counter()
            warm_traced = wl.setup()
            setup_wall = perf_counter() - start
        out["passes"], traced = _run_paired(wl, args.seconds / 2, tracer)
        loop_wall = sum(r["seconds"] for r in traced)
        ops = sum(r["ops"] for r in traced)
        out["layers"] = layer_metrics(tracer, ops=ops, loop_wall=loop_wall,
                                      setup_wall=setup_wall,
                                      main_thread=threading.main_thread().ident)
        out["layer_seconds"] = {"loop_wall": loop_wall, "setup_wall": setup_wall}
        out["traced_passes"] = traced
        out["warmup_failed"] += warm_traced.failed
        out["problems"] += warm_traced.problems
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{args.workload}.spans.jsonl")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ---------------------------------------------------------------------------
# the orchestrating process

def _child(args, role: str, deadline: float) -> dict:
    result = Path(args.workdir) / f"{role}-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(args.workdir), "--result", str(result)]
    if args.write_reference:
        cmd += ["--write-reference", str(args.write_reference)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {role} process")
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, cwd=ROOT,
                          env={**os.environ, **CHILD_ENV})
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            return next(line.split()[0] for line in packed.splitlines()
                        if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def _environment(args, sizes: dict) -> dict:
    import numpy
    import tfsep

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "tfsep": tfsep.__version__, "commit": _commit(),
            "blas_threads": CHILD_ENV, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace, "sizes": sizes}


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _summarize(args, worker: dict, setups: list[float]):
    """The result object, the human-readable lines printed before it, and
    the output-check problems."""
    records = worker["passes"]
    per_sweep = worker["passes_per_sweep"]
    attempted = sum(r["ops"] for r in records) + 1
    failed = sum(r["failed"] for r in records) + worker["warmup_failed"]
    canonical = {k: [v for r in records[:per_sweep] for v in r[k]] for k in ("stoi", "si_sdr")}
    lines = [f"passes: {len(records)} ({per_sweep} per sweep), "
             f"{sum(r['ops'] for r in records)} ops, "
             f"{sum(r['seconds'] for r in records):.2f} s timed"]
    if not args.trace:
        metrics = {
            "ops_per_s": _ops_per_s(records),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": worker["peak_rss_mb"],
            "stoi_mean": _mean(canonical["stoi"]),
            "si_sdr_mean": _mean(canonical["si_sdr"]),
        }
        all_stoi = [v for r in records for v in r["stoi"]]
        all_sdr = [v for r in records for v in r["si_sdr"]]
        notes = {
            "ops_per_s": f"over {len(records) / per_sweep:.3g} sweeps; warm-up excluded",
            "setup_s": f"median of {len(setups)} set-ups: "
                       + " ".join(f"{v:.3f}" for v in sorted(setups)),
            "peak_rss_mb": "ru_maxrss of the measuring process",
            "stoi_mean": f"canonical sweep 0, {len(canonical['stoi'])} ops; "
                         f"all {len(all_stoi)} ok ops: {_mean(all_stoi):.6g}",
            "si_sdr_mean": f"canonical sweep 0, {len(canonical['si_sdr'])} ops; "
                           f"all {len(all_sdr)} ok ops: {_mean(all_sdr):.6g}",
        }
        units = END_TO_END_UNITS
    else:
        from perfbench.tracing import PER_LAYER_UNITS, SELF_SUM_TOLERANCE

        traced = worker["traced_passes"]
        untraced_rate = _ops_per_s(records)
        traced_rate = _ops_per_s(traced)
        attempted += sum(r["ops"] for r in traced) + 1
        failed += sum(r["failed"] for r in traced)
        metrics = dict(worker["layers"])
        metrics["trace.ops_per_s_untraced"] = untraced_rate
        metrics["trace.ops_per_s_traced"] = traced_rate
        metrics["trace.overhead_frac"] = statistics.median(
            t["seconds"] / p["seconds"] for p, t in zip(records, traced)) - 1.0
        notes = {}
        units = PER_LAYER_UNITS
        walls = worker["layer_seconds"]
        lines.append(f"traced: {len(traced)} passes, {walls['loop_wall']:.2f} s timed, "
                     f"traced set-up {walls['setup_wall']:.3f} s")
        lines.append(f"tracing overhead: {untraced_rate:.4g} ops/s untraced, "
                     f"{traced_rate:.4g} ops/s traced; a traced pass takes "
                     f"{100 * metrics['trace.overhead_frac']:.1f}% longer than the "
                     "same pass untraced (median over passes)")
        lines.append("self times of the main thread sum to the timed wall within "
                     f"{100 * metrics['trace.self_sum_err_frac']:.4f}% "
                     f"(tolerance {100 * SELF_SUM_TOLERANCE:g}%)")
    lines.append(f"failed_frac: {failed / attempted:.4g} ({failed} failed of {attempted} "
                 "ops, warm-up included)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:42s} {value:14.6g} {units[name]}{note}")
    problems = worker["problems"] + [p for r in records + worker.get("traced_passes", [])
                                     for p in r["problems"]]
    correct = failed == 0
    if args.trace and metrics["trace.self_sum_err_frac"] > SELF_SUM_TOLERANCE:
        correct = False
        problems.append("self times do not add up to the timed wall time")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines, problems


def _run_workload(args) -> dict:
    from perfbench import inputs

    deadline = perf_counter() + RUN_BUDGET_S
    args.workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    try:
        inputs.make_run_inputs(inputs.WORKLOADS[args.workload], args.seed, args.workdir)
        probes = 0 if args.trace or args.write_reference else SETUP_PROBES
        setups = [_child(args, "setup", deadline)["setup_s"] for _ in range(probes // 2)]
        worker = _child(args, "worker", deadline)
        setups += [_child(args, "setup", deadline)["setup_s"]
                   for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    setups.append(worker["setup_s"])

    if args.write_reference:
        _write_reference(args, worker)
    result, lines, problems = _summarize(args, worker, setups)
    env = _environment(args, worker["sizes"])
    print(f"tfsep benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "notes": lines,
                                  "problems": problems,
                                  "pass_seconds": [r["seconds"] for r in worker["passes"]]},
                                 indent=2) + "\n", encoding="utf-8")
    print(f"record: {record.relative_to(ROOT)}")
    return result


def _write_reference(args, worker: dict) -> None:
    from perfbench.inputs import WORKLOADS
    from perfbench.workloads import REFERENCE_DIR, RTOL, SCORE_KEYS

    spec = WORKLOADS[args.workload]
    passes = worker["passes"]
    if any(r["failed"] for r in passes):
        raise SystemExit("perfbench: not storing a reference from a run with failed ops")
    sweeps = {}
    for r in passes:
        sweep = r["index"] // worker["passes_per_sweep"]
        if isinstance(r["reference"], dict):   # grid: config -> scores
            sweeps.setdefault(sweep, {}).update(r["reference"])
        else:                                  # score_pairs: one list per pass
            sweeps.setdefault(sweep, []).extend(r["reference"])
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{spec.reference_name}.json"
    body = ",\n".join(f"{json.dumps(str(k))}: {json.dumps(v, separators=(',', ':'))}"
                       for k, v in sweeps.items())
    path.write_text(
        f'{{"workload": "{spec.reference_name}", "seed": {args.seed}, "rtol": {RTOL},\n'
        f'"columns": {json.dumps(SCORE_KEYS)},\n"sweeps": {{\n{body}\n}}}}\n',
        encoding="utf-8")
    print(f"stored {len(sweeps)} sweeps in {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", type=int, default=0, metavar="PASSES")
    parser.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.write_reference and (args.seed != 0 or args.workload == "all"):
        parser.error("--write-reference needs --seed 0 and a single workload")
    _import_paths()

    if args.role != "main":
        args.result.write_text(json.dumps(_measure(args)), encoding="utf-8")
        return 0

    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = _run_workload(args)
        except (subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) > 1:
        _print_table(results)
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[names[0]]
    print(json.dumps(final))
    return 0


def _print_table(results: dict) -> None:
    metrics = list(next(iter(results.values()))["metrics"])
    print("workload".ljust(21) + "".join(f"{m:>16s}" for m in metrics))
    for name, result in results.items():
        cells = "".join(f"{result['metrics'][m]['value']:>16.6g}" for m in metrics)
        print(f"{name:21s}{cells}  failed {result['failed']}/{result['attempted']}")


if __name__ == "__main__":
    sys.exit(main())
