"""Tests of the benchmark's own logic (run: python3 -m pytest perfbench/tests -q)."""
import filecmp
import json
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, workloads
from perfbench.tracing import PER_LAYER, Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]


def _span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, None, 1, "loop")


def test_self_times_over_hand_built_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 5.0, 9.0, parent=1),
        _span(5, 5.5, 6.0, parent=4),
        _span(6, 7.0, 8.5, parent=4),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 0.5, 6: 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)   # the root's duration


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 5.0, parent=1),
             _span(3, 3.0, 7.0, parent=1), _span(4, 9.0, 12.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_ops_per_s_leaves_out_failed_ops():
    records = [{"ops": 6, "failed": 0, "seconds": 1.0}, {"ops": 6, "failed": 6, "seconds": 2.0}]
    assert run._ops_per_s(records) == pytest.approx(2.0)


def _tfsep_attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "tfsep" or name.startswith("tfsep.")
            for attr, value in vars(module).items()}


def _tiny_grid_workload(tmp_path, n_configs=3):
    """paper_grid cut down to one pass of n_configs configs per sweep."""
    wl = workloads.GridWorkload(inputs.WORKLOADS["paper_grid"], 5, tmp_path)
    wl.grid = wl.grid[:n_configs]
    wl.chunks = [wl.grid]
    inputs.make_run_inputs(wl.spec, 5, tmp_path)
    return wl


def test_traced_run_restores_every_tfsep_attribute(tmp_path):
    import tfsep.cli
    import tfsep.harness

    wl = _tiny_grid_workload(tmp_path)
    before = _tfsep_attributes()
    tracer = Tracer()
    with tracer.installed():
        assert tfsep.harness.run_ibm_trial is not before[("tfsep.harness", "run_ibm_trial")]
        wl.setup()
        corpus = wl.prepare(1)
        tracer.region = "loop"
        seconds, outcome = wl.run(1, corpus, tracer)
        tracer.region = "gap"
    after = _tfsep_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert wl.check(1, outcome).failed == 0

    names = {s.name for s in tracer.spans}
    assert {"bench.pass", "harness.grid_search", "harness.run_ibm_trial",
            "masking.decompose", "metrics.stoi", "signal.resample"} <= names
    trials = [s for s in tracer.spans if s.name == "harness.run_ibm_trial"]
    assert len({s.trial for s in trials}) == len(trials) == 4   # 3 timed + warm-up
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "masking.decompose":
            assert by_id[s.parent].name == "harness.run_ibm_trial"
            assert s.trial == by_id[s.parent].trial
    metrics = layer_metrics(tracer, ops=3, loop_wall=seconds, setup_wall=1.0,
                            main_thread=tracer.spans[0].thread)
    assert metrics["harness.run_ibm_trial.calls_per_op"] == 1.0
    assert metrics["trace.self_sum_err_frac"] < 1e-3


def test_self_sum_check_counts_time_no_layer_covers():
    tracer = Tracer()
    tracer.spans = [Span(1, "bench.pass", 0.0, 10.0, None, None, 1, "loop"),
                    Span(2, "harness.grid_search", 1.0, 4.0, 1, None, 1, "loop"),
                    Span(3, "harness.run_ibm_trial", 2.0, 3.0, 2, 1, 1, "loop")]
    metrics = layer_metrics(tracer, ops=1, loop_wall=10.0, setup_wall=1.0,
                            main_thread=1)
    assert metrics["trace.self_sum_err_frac"] == pytest.approx(0.7)


def test_tracer_restores_attributes_when_the_run_raises():
    import tfsep.wavelet

    original = tfsep.wavelet._analysis_pair
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            assert tfsep.wavelet._analysis_pair is not original
            1 / 0
    assert tfsep.wavelet._analysis_pair is original


def _tree_files(directory: Path):
    return sorted(p.relative_to(directory) for p in directory.rglob("*") if p.is_file())


def _make_inputs(spec, seed, directory):
    """Returns the names of the canonical and the seeded part of the inputs."""
    if isinstance(spec, inputs.GridSpec):
        inputs.make_run_inputs(spec, seed, directory)
        return "corpus-canonical", "corpus-run"
    inputs.make_pair_pass(spec, seed, 0, directory)
    inputs.make_pair_pass(spec, seed, 1, directory)
    return inputs.pass_dir(directory, 0).name, inputs.pass_dir(directory, 1).name


@pytest.mark.parametrize("workload", ["paper_grid", "stft_sweep", "score_pairs"])
def test_same_seed_gives_same_inputs(tmp_path, workload):
    spec = inputs.WORKLOADS[workload]
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        canonical, seeded = _make_inputs(spec, seed, tmp_path / name)
    a, b, c = (tmp_path / n for n in "abc")
    files = _tree_files(a)
    assert files and files == _tree_files(b) == _tree_files(c)
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(f) for f in files], shallow=False)
    assert not mismatch and not errors
    # the canonical part is the same whatever the seed; the rest follows the seed
    fixed = [str(f) for f in files if f.parts[0] == canonical]
    varied = [str(f) for f in files if f.parts[0] == seeded]
    assert fixed and varied
    assert filecmp.cmpfiles(a, c, fixed, shallow=False)[0] == fixed
    assert not filecmp.cmpfiles(a, c, varied, shallow=False)[0]


def test_output_check_fails_bad_and_changed_rows(tmp_path):
    wl = _tiny_grid_workload(tmp_path)
    seconds, (configs, report, path) = wl.run(0, wl.prepare(0))
    good = wl.check(0, (configs, report, path))
    assert good.failed == 0 and len(good.stoi) == 3
    assert len(good.reference) == 3
    assert good.reference == {k: wl.reference[0][k] for k in good.reference}

    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("stoi")] = "1.5"                     # out of range
    lines[1] = ",".join(cells)
    cells = lines[2].split(",")
    cells[header.index("mse")] = str(float(cells[header.index("mse")]) * 1.001)
    lines[2] = ",".join(cells)                              # differs from the reference
    path.write_text("\n".join(lines[:3]) + "\n")            # and the third row is gone
    bad = wl.check(0, (configs, report, path))
    assert bad.failed == 3 and bad.ops == 3
    assert any("outside [0, 1]" in p for p in bad.problems)
    assert any("differs from stored" in p for p in bad.problems)
    assert any("no row for" in p for p in bad.problems)


def test_pair_check_cross_checks_scores(tmp_path):
    wl = workloads.PairWorkload(inputs.WORKLOADS["score_pairs"], 3, tmp_path)
    ref, deg = inputs.make_pair_pass(wl.spec, 3, 0, tmp_path)[0]
    code, text = wl._score(ref, deg)
    assert wl._pair_problem(code, text, ref, deg, wl.reference[0][0]) is None
    scores = json.loads(text)
    scores["si_sdr"] += 1e-6
    assert "benchmark's own" in wl._pair_problem(code, json.dumps(scores), ref, deg, None)
    assert wl._pair_problem(2, "", ref, deg, None) == "exit code 2"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(inputs.WORKLOADS) == list(run.WORKLOAD_NAMES)
