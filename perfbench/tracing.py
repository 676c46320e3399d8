"""Outside-in layer tracing for the benchmark.

The tracer replaces module attributes that tfsep looks up at call time (for
example `tfsep.harness.decompose` or `tfsep.wavelet._analysis_pair`) with
wrappers that record one span per call, and puts the originals back when
its `installed()` block ends. Nothing under src/ knows about it.

A span is (id, name, start, end, parent, trial, thread, region). The parent
is the innermost open span of the same thread; spans opened inside an IBM
trial or a scored pair carry that operation's trial id. Self time is a
span's duration minus the part of it covered by its child spans. The
benchmark opens one span of its own, ROOT_SPAN, around the timed part of
each pass; it is not a tfsep layer.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    thread: int
    region: str


def _fft_work(args, kwargs, result):
    x = args[0]
    n = x.shape[-1]
    batch = x.size // n
    return {"points": x.size, "flops": 5.0 * n * math.log2(n) * batch}


# MACs are computed, not counted: filter taps x output samples.

def _analysis_work(args, kwargs, result):
    bank = args[1]                            # _analysis_pair(bands, bank, mode)
    lo, hi = result
    return {"macs": float(len(bank) * (lo.size + hi.size))}


def _synthesis_work(args, kwargs, result):
    lo, hi, bank = args[0], args[1], args[2]  # _synthesis_pair(lo, hi, bank, mode, n)
    # every row yields 2*m outputs before trimming, each of len(bank) taps
    return {"macs": float(len(bank) * (lo.size + hi.size))}


def _resample_work(args, kwargs, result):
    s = args[0]
    digest = hashlib.blake2b(s.samples.tobytes(), digest_size=16).hexdigest()
    return {"out_samples": len(result), "input_key": (s.rate, digest)}


# (module, attribute, span name, opens a trial, work counter)
TARGETS = (
    ("tfsep.harness", "grid_search", "harness.grid_search", False, None),
    ("tfsep.harness", "make_mixture", "harness.make_mixture", False, None),
    ("tfsep.harness", "load_wav", "harness.load_wav", False, None),
    ("tfsep.cli", "load_wav", "harness.load_wav", False, None),
    ("tfsep.harness", "emit_report", "harness.emit_report", False, None),
    ("tfsep.harness", "run_ibm_trial", "harness.run_ibm_trial", True, None),
    ("tfsep.cli", "main", "cli.main", True, None),
    ("tfsep.harness", "decompose", "masking.decompose", False, None),
    ("tfsep.harness", "reconstruct", "masking.reconstruct", False, None),
    ("tfsep.harness", "add", "masking.mask", False, None),
    ("tfsep.harness", "ideal_binary_mask", "masking.mask", False, None),
    ("tfsep.harness", "apply_mask", "masking.mask", False, None),
    ("tfsep.masking", "stft", "fourier.stft", False, None),
    ("tfsep.masking", "istft", "fourier.istft", False, None),
    ("tfsep.fourier", "_fft_core", "fourier.fft_core.stft_side", False, _fft_work),
    ("tfsep.metrics", "_fft_core", "fourier.fft_core.stoi_side", False, _fft_work),
    ("tfsep.wavelet", "wavedec", "wavelet.wavedec", False, None),
    ("tfsep.wavelet", "wpt", "wavelet.wpt", False, None),
    ("tfsep.wavelet", "waverec", "wavelet.waverec", False, None),
    ("tfsep.wavelet", "iwpt", "wavelet.iwpt", False, None),
    ("tfsep.wavelet", "_analysis_pair", "wavelet.analysis_pair", False, _analysis_work),
    ("tfsep.wavelet", "_synthesis_pair", "wavelet.synthesis_pair", False, _synthesis_work),
    ("tfsep.harness", "stoi", "metrics.stoi", False, None),
    ("tfsep.metrics", "stoi", "metrics.stoi", False, None),
    ("tfsep.metrics", "resample", "signal.resample", False, _resample_work),
    ("tfsep.harness", "si_sdr", "metrics.si_sdr", False, None),
    ("tfsep.metrics", "si_sdr", "metrics.si_sdr", False, None),
    ("tfsep.harness", "snr", "metrics.snr", False, None),
    ("tfsep.metrics", "snr", "metrics.snr", False, None),
    ("tfsep.harness", "mse", "metrics.mse", False, None),
    ("tfsep.metrics", "mse", "metrics.mse", False, None),
)
ROOT_SPAN = "bench.pass"


class Tracer:
    """Collects spans, and the work counts of the timed passes, in memory.

    `region` labels every span opened while it is set ("setup", "loop" for
    the timed passes, "gap" for untimed work between passes).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.work: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.resample_calls = 0
        self.resample_repeats = 0      # calls whose input equals an earlier call's
        self.region = "setup"
        self._seen_inputs: set = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._trials = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trial: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        trial_id = next(self._trials) if trial else (parent[1] if parent else None)
        region = self.region
        stack.append((span_id, trial_id))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent and parent[0],
                                   trial_id, threading.get_ident(), region))

    def _wrap(self, fn, name: str, trial: bool, work):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, trial):
                result = fn(*args, **kwargs)
            if work is not None:
                tracer._count(name, work(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, amounts: dict) -> None:
        if self.region != "loop":
            return
        with self._lock:
            key = amounts.pop("input_key", None)
            if key is not None:
                self.resample_calls += 1
                self.resample_repeats += key in self._seen_inputs
                self._seen_inputs.add(key)
            for k, v in amounts.items():
                self.work[name][k] += v

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target attribute; put the originals back on exit."""
        saved = []
        try:
            for module_name, attr, name, trial, work in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, trial, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# per-layer metrics -------------------------------------------------------

_SELF_FRAC_LAYERS = (
    "wavelet.analysis_pair", "wavelet.synthesis_pair", "wavelet.wavedec", "wavelet.wpt",
    "wavelet.waverec", "wavelet.iwpt", "fourier.fft_core.stft_side",
    "fourier.fft_core.stoi_side", "fourier.stft", "fourier.istft", "metrics.stoi",
    "signal.resample", "metrics.si_sdr", "metrics.snr", "metrics.mse",
    "masking.decompose", "masking.reconstruct", "masking.mask",
    "harness.run_ibm_trial", "harness.grid_search", "harness.make_mixture",
    "harness.emit_report", "harness.load_wav", "cli.main",
)
_CALLS_LAYERS = (
    "wavelet.analysis_pair", "wavelet.synthesis_pair", "fourier.fft_core.stft_side",
    "fourier.fft_core.stoi_side", "metrics.stoi", "signal.resample",
    "masking.decompose", "harness.run_ibm_trial",
)
# layer, work counted per op, its rate over the layer's self time
_WORK = (
    ("wavelet.analysis_pair", "macs", "MAC", "macs", "mac_per_s", "MAC/s"),
    ("wavelet.synthesis_pair", "macs", "MAC", "macs", "mac_per_s", "MAC/s"),
    ("fourier.fft_core.stft_side", "points", "point", "flops", "flop_per_s", "flop/s"),
    ("fourier.fft_core.stoi_side", "points", "point", "flops", "flop_per_s", "flop/s"),
)
_SETUP_LAYERS = ("harness.load_wav", "harness.make_mixture")

# name -> (unit, better) of every per-layer metric, in print order
PER_LAYER = {}
PER_LAYER.update({f"{n}.calls_per_op": ("call/op", "lower") for n in _CALLS_LAYERS})
PER_LAYER.update({f"{n}.self_frac": ("frac", "lower") for n in _SELF_FRAC_LAYERS})
for _layer, _amount, _unit, _, _rate, _rate_unit in _WORK:
    PER_LAYER[f"{_layer}.{_amount}_per_op"] = (f"{_unit}/op", "lower")
    PER_LAYER[f"{_layer}.{_rate}"] = (_rate_unit, "higher")
PER_LAYER.update({
    "signal.resample.out_samples_per_op": ("sample/op", "lower"),
    "signal.resample.repeat_frac": ("frac", "lower"),
})
PER_LAYER.update({f"{n}.setup_frac": ("frac", "lower") for n in _SETUP_LAYERS})
PER_LAYER.update({
    "harness.pool.busy_frac": ("frac", "higher"),
    "trace.self_sum_err_frac": ("frac", "lower"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
})
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
SELF_SUM_TOLERANCE = 0.01


def layer_metrics(tracer: Tracer, *, ops: int, loop_wall: float, setup_wall: float,
                  main_thread: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes and the traced set-up.

    Counts are per operation of the timed passes. self_frac is a layer's
    self time in the timed passes over their wall time; setup_frac is the
    same over the traced set-up. busy_frac is the time inside trials over the
    wall time of the passes. trace.self_sum_err_frac compares the
    summed self times of the main thread's tfsep layers in the passes (the
    ROOT_SPAN left out) with the wall time of the passes, timed apart from
    the tracer; time that no wrapped layer covers counts as error.
    """
    selfs = self_times(tracer.spans)
    loop_self = defaultdict(float)
    setup_self = defaultdict(float)
    calls = defaultdict(int)
    main_self_sum = 0.0
    busy = 0.0
    for s in tracer.spans:
        if s.region == "loop":
            loop_self[s.name] += selfs[s.id]
            calls[s.name] += 1
            if s.thread == main_thread and s.name != ROOT_SPAN:
                main_self_sum += selfs[s.id]
            if s.name == "harness.run_ibm_trial":
                busy += s.end - s.start
        elif s.region == "setup":
            setup_self[s.name] += selfs[s.id]

    out = {}
    for name in _CALLS_LAYERS:
        out[f"{name}.calls_per_op"] = calls[name] / ops
    for name in _SELF_FRAC_LAYERS:
        out[f"{name}.self_frac"] = loop_self[name] / loop_wall
    for name, amount, _, rate_of, rate, _ in _WORK:
        work = tracer.work[name]
        out[f"{name}.{amount}_per_op"] = work[amount] / ops
        out[f"{name}.{rate}"] = work[rate_of] / loop_self[name] if loop_self[name] else 0.0
    out["signal.resample.out_samples_per_op"] = tracer.work["signal.resample"]["out_samples"] / ops
    out["signal.resample.repeat_frac"] = (tracer.resample_repeats / tracer.resample_calls
                                          if tracer.resample_calls else 0.0)
    for name in _SETUP_LAYERS:
        out[f"{name}.setup_frac"] = setup_self[name] / setup_wall
    out["harness.pool.busy_frac"] = busy / loop_wall   # the workloads run at jobs=1
    out["trace.self_sum_err_frac"] = abs(main_self_sum - loop_wall) / loop_wall
    return out
