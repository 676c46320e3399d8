import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfsep
from tfsep import cli, harness
from tfsep.cli import main
from tfsep.harness import (build_config, default_grid, load_grid_file, load_wav, run_ibm_trial,
                           save_wav, wav_header)
from tfsep.metrics import stoi
from tfsep.signal import Signal
from tfsep.synth import make_corpus, speech_like


def _child_env() -> dict:
    """os.environ, with the directory this tfsep was imported from first on
    PYTHONPATH, for a child Python process."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(tfsep.__file__).parents[1]), os.environ.get("PYTHONPATH")))))


@pytest.fixture(scope="module")
def wav_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "voice.wav"
    save_wav(speech_like(1.0, 16000, np.random.default_rng(4)), path)
    return path


class TestDecompose:
    @pytest.mark.parametrize("method", ["stft", "dwt", "wpt"])
    def test_writes_csv(self, wav_file, tmp_path, method):
        out = tmp_path / f"{method}.csv"
        code = main(["decompose", "--in", str(wav_file), "--method", method,
                     "--wavelet", "db4", "--levels", "3", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        if method == "stft":
            assert complex(rows[0].split(",")[0]) is not None
            assert len(rows) == 257
        elif method == "dwt":
            assert len(rows) == 4  # approx + 3 details
        else:
            assert len(rows) == 8

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["decompose", "--in", str(tmp_path / "gone.wav"),
                     "--method", "stft", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize("option, value", [("--win-ms", "0.05"), ("--hop-ms", "0.01")])
    def test_too_small_window_is_data_error(self, option, value, wav_file, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["decompose", "--in", str(wav_file), "--method", "stft",
                     option, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("tfsep: window/hop too small: ")
        assert not out.exists()


class TestStftMilliseconds:
    """A row labelled "W ms <window> window H ms hop" is `--win-ms W --hop-ms H`."""

    class Captured(Exception):
        pass

    def _cli_configs(self, entries, rate, tmp_path, monkeypatch):
        """The config `decompose` hands the transform for each row's label."""
        def capture(sig, cfg):
            raise self.Captured(cfg)

        monkeypatch.setattr(cli, "decompose", capture)
        wav = tmp_path / f"{rate}.wav"
        save_wav(Signal(np.zeros(64), rate), wav)
        configs = []
        for entry in entries:
            win_ms, window, _, hop_ms, _ = entry.params.split()
            with pytest.raises(self.Captured) as got:
                main(["decompose", "--in", str(wav), "--method", "stft", "--out", "x.csv",
                      "--window", window, "--win-ms", win_ms[:-2], "--hop-ms", hop_ms[:-2]])
            configs.append(got.value.args[0])
        return configs

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
    def test_decompose_options_match_grid_rows(self, rate, tmp_path, monkeypatch):
        rows = [e for e in default_grid(1) if e.decomposition == "stft"]
        configs = self._cli_configs(rows, rate, tmp_path, monkeypatch)
        for entry, cfg in zip(rows, configs):
            assert cfg == build_config(entry, rate), entry.params

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_labels_read_back_exactly(self, rate, tmp_path, monkeypatch):
        # `:g` keeps 6 digits: 62.49999 would read "62.5" and a third of 10 ms "3.33333"
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"stft": {
            "windows": ["hann"], "sizes_ms": [62.5, 62.49999, 10],
            "hop_fractions": [0.5, 0.3333333333333333]}}))
        rows = load_grid_file(path)
        assert len({e.params for e in rows}) == len({e.config for e in rows}) == 6
        configs = self._cli_configs(rows, rate, tmp_path, monkeypatch)
        for entry, cfg in zip(rows, configs):
            assert cfg == build_config(entry, rate), entry.params


class TestImages:
    def test_spectrogram(self, wav_file, tmp_path):
        out = tmp_path / "spec.pgm"
        assert main(["spectrogram", "--in", str(wav_file), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n")
        assert out.with_suffix(".csv").exists()

    def test_scaleogram_dwt_and_wpt(self, wav_file, tmp_path):
        for method in ("dwt", "wpt"):
            out = tmp_path / f"scale_{method}.pgm"
            csv_out = tmp_path / f"scale_{method}.csv"
            assert main(["scaleogram", "--in", str(wav_file), "--method", method,
                         "--wavelet", "sym8", "--levels", "5",
                         "--out", str(out), "--csv", str(csv_out)]) == 0
            header = out.read_bytes().split(b"\n", 3)
            rows = int(header[1].split()[1])
            assert rows == (6 if method == "dwt" else 32)
            assert csv_out.exists()


class TestNameOptions:
    def test_rect_and_rectangular_give_identical_spectrograms(self, wav_file, tmp_path):
        for name in ("rect", "rectangular"):
            assert main(["spectrogram", "--in", str(wav_file), "--window", name,
                         "--out", str(tmp_path / f"{name}.pgm")]) == 0
        for suffix in (".pgm", ".csv"):
            assert ((tmp_path / f"rect{suffix}").read_bytes()
                    == (tmp_path / f"rectangular{suffix}").read_bytes())

    @pytest.mark.parametrize("argv", [
        ["spectrogram", "--window", "hamming"],
        ["scaleogram", "--mode", "periodic"],
        ["decompose", "--method", "dwt", "--mode", "periodic"],
        ["decompose", "--method", "dwt", "--wavelet", "sym88"],
        ["scaleogram", "--wavelet", "sym88"]])
    def test_bad_names_exit_one(self, argv, wav_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", str(wav_file), "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert argv[-2] in capsys.readouterr().err


class TestMetricsCommand:
    def test_all_metrics_json(self, wav_file, tmp_path, capsys):
        ref = load_wav(wav_file)
        noisy = Signal(ref.samples + 0.01 * np.random.default_rng(1).normal(size=len(ref)),
                       ref.rate)
        deg_path = tmp_path / "deg.wav"
        save_wav(noisy, deg_path)
        assert main(["metrics", "--ref", str(wav_file), "--deg", str(deg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"stoi", "si_sdr", "snr", "mse"}
        assert 0.0 <= payload["stoi"] <= 1.0

    def test_metric_selection(self, wav_file, capsys):
        assert main(["metrics", "--ref", str(wav_file), "--deg", str(wav_file),
                     "--mse", "--snr"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"mse", "snr"}
        assert payload["mse"] == 0.0
        assert payload["snr"] == "inf"

    def test_silent_degraded_file_prints_strict_json(self, wav_file, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        save_wav(Signal(np.zeros(len(load_wav(wav_file))), 16000), silent)
        assert main(["metrics", "--ref", str(wav_file), "--deg", str(silent)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["si_sdr"] == "-inf"

    @pytest.mark.parametrize("flags", [["--mse"], ["--snr"], ["--mse", "--snr"]])
    def test_empty_files_are_data_errors(self, flags, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        save_wav(Signal(np.zeros(0), 16000), empty)
        assert main(["metrics", "--ref", str(empty), "--deg", str(empty), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tfsep: empty signals have no score\n"

    def test_huge_header_rate_is_a_data_error(self, tmp_path, capsys):
        # a 4,294,967,291 Hz header: resampling to 10 kHz leaves one sample
        rate, data = 4_294_967_291, np.zeros(100, dtype="<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, rate, (2 * rate) & 0xFFFFFFFF, 2, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path = tmp_path / "huge_rate.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert main(["metrics", "--ref", str(path), "--deg", str(path), "--stoi"]) == 2
        assert capsys.readouterr().err == (
            "tfsep: signals too short for STOI (need at least 384 ms)\n")

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM")
    def test_low_header_rate_scores_in_bounded_memory(self, tmp_path):
        # 48,000 samples at a 100 Hz header rate are 480 s, 4.8 million samples
        # at STOI's 10 kHz, every frame kept (569 MiB when STOI copied out every
        # segment). The child reports the high-water mark of its own memory
        # map: its ru_maxrss, RUSAGE_SELF or not, also holds the peak of the
        # map it was forked with, this test process's.
        gen = np.random.default_rng(10)
        clean, other = gen.uniform(-0.4, 0.4, size=(2, 48_000))
        paths = [tmp_path / "ref.wav", tmp_path / "deg.wav"]
        for path, samples in zip(paths, (clean, clean + 0.5 * other)):
            save_wav(Signal(samples, 100), path)
        code = ("import sys\nfrom tfsep.cli import main\n"
                "status = main(['metrics', '--ref', sys.argv[1], '--deg', sys.argv[2], '--stoi'])\n"
                "print(*(line.split()[1] for line in open('/proc/self/status')\n"
                "        if line.startswith('VmHWM:')), file=sys.stderr)\n"
                "sys.exit(status)")
        done = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        ref, deg = (load_wav(path).samples for path in paths)
        assert json.loads(done.stdout) == {"stoi": stoi(ref, deg, 100)}
        assert int(done.stderr) / 1024 < 150, f"peak RSS {int(done.stderr) / 1024:.0f} MiB"

    @pytest.mark.parametrize("deg, message", [
        (Signal(np.zeros(100), 16000), "length mismatch: 16000 vs 100"),
        (Signal(np.zeros(16000), 8000), "rate mismatch: 16000 vs 8000")])
    def test_mismatch_is_data_error(self, deg, message, wav_file, tmp_path, capsys):
        save_wav(deg, tmp_path / "deg.wav")
        assert main(["metrics", "--ref", str(wav_file),
                     "--deg", str(tmp_path / "deg.wav")]) == 2
        assert capsys.readouterr() == ("", f"tfsep: {message}\n")

    def test_silent_reference_snr(self, wav_file, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        save_wav(Signal(np.zeros(len(load_wav(wav_file))), 16000), silent)
        assert main(["metrics", "--ref", str(silent), "--deg", str(wav_file), "--snr"]) == 2
        assert capsys.readouterr() == ("", "tfsep: snr reference must be non-zero\n")
        assert main(["metrics", "--ref", str(silent), "--deg", str(wav_file), "--si-sdr"]) == 2
        assert capsys.readouterr() == ("", "tfsep: si_sdr reference must be non-zero\n")
        assert main(["metrics", "--ref", str(silent), "--deg", str(silent), "--snr"]) == 0
        assert json.loads(capsys.readouterr().out) == {"snr": "inf"}


class TestMixCommand:
    def test_mix_and_sources(self, small_corpus, tmp_path):
        out = tmp_path / "mix.wav"
        sources = tmp_path / "sources"
        assert main(["mix", "--corpus", str(small_corpus), "--speakers", "2",
                     "--seed", "3", "--out", str(out),
                     "--sources-dir", str(sources)]) == 0
        mix = load_wav(out)
        parts = sorted(sources.glob("*.wav"))
        assert len(parts) == 2
        total = np.sum([load_wav(p).samples for p in parts], axis=0)
        # 16-bit quantization of mixture vs sum of quantized sources
        assert np.max(np.abs(mix.samples - total)) <= 3.0 / 32768

    def test_unwritable_out_is_one_error_line(self, small_corpus, tmp_path):
        # a subprocess: a half-built wave writer reports its failure when it is
        # collected, which can be after main has returned
        out = tmp_path / "missing" / "dir" / "m.wav"
        done = subprocess.run([sys.executable, "-m", "tfsep.cli", "mix", "--corpus",
                               str(small_corpus), "--out", str(out)],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == f"tfsep: [Errno 2] No such file or directory: '{out}'\n"


def _grid_file(tmp_path):
    """A grid file of one STFT, one DWT and one WPT row."""
    grid = {
        "stft": {"windows": ["hann"], "sizes_ms": [32], "hop_fractions": [0.5]},
        "wavelet": {"families": ["db4"], "levels": [3]},
        "wpt": {"families": ["db4"], "levels": [3]},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return path


class TestExperimentCommand:
    def test_runs_and_is_deterministic(self, small_corpus, tmp_path):
        grid = _grid_file(tmp_path)
        outputs = []
        for i, jobs in enumerate(("1", "4")):
            out = tmp_path / f"report{i}.csv"
            assert main(["experiment", "--corpus", str(small_corpus),
                         "--mixtures", "2", "--seed", "5", "--grid", str(grid),
                         "--out", str(out), "--jobs", jobs]) == 0
            outputs.append(out.read_text(encoding="utf-8"))

        def drop_time(text):
            rows = [line.split(",") for line in text.strip().split("\n")]
            return [cells[:6] + cells[7:] for cells in rows]

        assert drop_time(outputs[0]) == drop_time(outputs[1])

    def test_json_format(self, small_corpus, tmp_path):
        grid = _grid_file(tmp_path)
        out = tmp_path / "report.json"
        assert main(["experiment", "--corpus", str(small_corpus), "--mixtures", "1",
                     "--seed", "2", "--grid", str(grid), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_interrupt_is_one_line_and_no_report(self, small_corpus, tmp_path, monkeypatch,
                                                 capsys, jobs):
        calls = itertools.count(1)

        def interrupted_at_the_fifth(mix, cfg):
            if next(calls) == 5:
                raise KeyboardInterrupt
            return run_ibm_trial(mix, cfg)

        monkeypatch.setattr(harness, "run_ibm_trial", interrupted_at_the_fifth)
        out = tmp_path / "r.csv"
        try:
            code = main(["experiment", "--corpus", str(small_corpus), "--mixtures", "3",
                         "--grid", str(_grid_file(tmp_path)), "--out", str(out), "--jobs", jobs])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "tfsep: interrupted; no report written\n"
        assert not out.exists()

    def test_bad_corpus_is_data_error(self, tmp_path):
        assert main(["experiment", "--corpus", str(tmp_path / "none"),
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_default_grid_on_tiny_corpus(self, tmp_path):
        # default grid = 48 STFT rows + every family at depths 1..max_level;
        # 64-sample recordings keep the sweep quick (STOI cells stay null)
        corpus = tmp_path / "tiny"
        gen = np.random.default_rng(0)
        for sp in range(2):
            d = corpus / f"s{sp}"
            d.mkdir(parents=True)
            save_wav(Signal(0.4 * gen.normal(size=64), 16000), d / "u.wav")
        out = tmp_path / "default.csv"
        assert main(["experiment", "--corpus", str(corpus), "--mixtures", "1",
                     "--seed", "1", "--grid", "default", "--out", str(out),
                     "--jobs", "2"]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 48 + 56 * 6 * 2  # max_level(64) == 6
        assert all(row.split(",")[8] == "ok" for row in rows)

    def test_default_grid_reads_every_header_after_the_speaker_check(
            self, tmp_path, monkeypatch):
        corpus = tmp_path / "four"
        gen = np.random.default_rng(3)
        for sp in range(4):
            (corpus / f"s{sp}").mkdir(parents=True)
            for u in range(2):
                save_wav(Signal(0.4 * gen.normal(size=64), 16000), corpus / f"s{sp}" / f"{u}.wav")
        decoded, headers = [], []

        def counting_load_wav(path):
            decoded.append(path)
            return load_wav(path)

        def counting_wav_header(path):
            headers.append(path)
            return wav_header(path)

        monkeypatch.setattr(harness, "load_wav", counting_load_wav)
        monkeypatch.setattr(cli, "load_wav", counting_load_wav)
        monkeypatch.setattr(harness, "wav_header", counting_wav_header)
        monkeypatch.setattr(cli, "wav_header", counting_wav_header)
        args = ["experiment", "--corpus", str(corpus), "--mixtures", "1", "--grid", "default",
                "--out", str(tmp_path / "r.csv")]
        assert main([*args, "--speakers", "5"]) == 2
        assert decoded == headers == []
        assert main(args) == 0
        # the depth scan reads every header; only the mixture's two WAVs are decoded
        assert set(headers) == set(corpus.glob("*/*.wav"))
        assert len(decoded) == len(set(decoded)) == 2

    @pytest.mark.parametrize("out", ["missing/r.csv", "."], ids=["no-directory", "a-directory"])
    def test_bad_out_rejected_before_any_wav_is_decoded(
            self, small_corpus, tmp_path, monkeypatch, capsys, out):
        decoded = []

        def counting_load_wav(path):
            decoded.append(path)
            return load_wav(path)

        monkeypatch.setattr(harness, "load_wav", counting_load_wav)
        monkeypatch.setattr(cli, "load_wav", counting_load_wav)
        before = sorted(tmp_path.rglob("*"))
        for grid in ("default", str(_grid_file(tmp_path))):
            assert main(["experiment", "--corpus", str(small_corpus), "--mixtures", "1",
                         "--grid", grid, "--out", str(tmp_path / out)]) == 2
            err = capsys.readouterr().err
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith(f"tfsep: cannot write the report to {tmp_path / out}: ")
        assert decoded == []
        assert sorted(tmp_path.rglob("*")) == [*before, tmp_path / "grid.json"]


class TestGridFileChecks:
    @pytest.mark.parametrize("grid, section, key", [
        ({"stft": {"windows": ["hann"], "hop_fractions": [0.5]}}, "stft", "sizes_ms"),
        ({"stft": {"windows": "hann", "sizes_ms": [32], "hop_fractions": [0.5]}},
         "stft", "windows"),
        ({"wavelet": {"families": ["sym88"], "levels": [3]}}, "wavelet", "families"),
        ({"stft": {"windows": ["hamming"], "sizes_ms": [32], "hop_fractions": [0.5]}},
         "stft", "windows"),
        ({"wpt": {"families": ["db4"], "levels": [3], "mode": "periodic"}}, "wpt", "mode"),
        ({"wavelet": {"families": ["db4"], "levels": [0]}}, "wavelet", "levels"),
        ({"wpt": {"families": ["db4"], "levels": [1.5]}}, "wpt", "levels"),
        ({"wavelet": {"families": ["db4"], "levels": [True]}}, "wavelet", "levels"),
        ({"stft": {"windows": ["hann"], "sizes_ms": [10 ** 400], "hop_fractions": [0.5]}},
         "stft", "sizes_ms"),
    ], ids=["missing-sizes", "windows-not-a-list", "sym88", "hamming", "periodic",
            "levels-0", "levels-1.5", "levels-true", "huge-integer-size"])
    def test_malformed_grid_exits_two_before_any_mixture(
            self, grid, section, key, small_corpus, tmp_path, monkeypatch, capsys):
        def no_mixtures(*args, **kwargs):
            raise AssertionError("a mixture was built for a malformed grid")

        monkeypatch.setattr(harness, "make_mixture", no_mixtures)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["experiment", "--corpus", str(small_corpus), "--grid", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"section {section!r}" in err and f"key {key!r}" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("raw, fault", [
        (b'{"wpt": {"families": ["haar"], "levels": [3]},\n'
         b' "wpt": {"families": ["haar"], "levels": [50]}}', "key 'wpt' is given twice"),
        (b'{"wpt": {"families": ["haar"], "levels": [3], "levels": [4]}}',
         "key 'levels' is given twice"),
        (b'{"wpt": {"families": ["h\xe4ar"], "levels": [3]}}', "codec can't decode"),
    ], ids=["two-wpt-sections", "levels-twice", "not-utf-8"])
    def test_unreadable_grid_exits_two_naming_the_file(
            self, raw, fault, small_corpus, tmp_path, monkeypatch, capsys):
        def no_mixtures(*args, **kwargs):
            raise AssertionError("a mixture was built for an unreadable grid")

        monkeypatch.setattr(harness, "make_mixture", no_mixtures)
        path = tmp_path / "grid.json"
        path.write_bytes(raw)
        assert main(["experiment", "--corpus", str(small_corpus), "--grid", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tfsep: cannot read grid file {path}: ") and fault in err
        assert not (tmp_path / "r.csv").exists()


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_missing_required_option_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--method", "stft"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command, option, value", [
        ("experiment", "--mixtures", "0"), ("experiment", "--mixtures", "-1"),
        ("experiment", "--jobs", "0"), ("experiment", "--speakers", "1"),
        ("experiment", "--speakers", "0"), ("mix", "--speakers", "-3"),
        ("decompose", "--levels", "0"), ("scaleogram", "--levels", "0"),
        ("mix", "--seed", "-1"), ("experiment", "--seed", "-1"),
        *[(command, option, value) for command, option in
          (("decompose", "--win-ms"), ("spectrogram", "--hop-ms"))
          for value in ("nan", "inf", "0", "-1")]])
    def test_counts_below_one_exit_one(self, command, option, value, tmp_path, capsys):
        required = {"experiment": ["--corpus", str(tmp_path)],
                    "mix": ["--corpus", str(tmp_path)],
                    "decompose": ["--in", str(tmp_path / "x.wav"), "--method", "stft"],
                    "spectrogram": ["--in", str(tmp_path / "x.wav")],
                    "scaleogram": ["--in", str(tmp_path / "x.wav")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--out", str(tmp_path / "r.csv"), option, value])
        assert exc.value.code == 1
        assert option in capsys.readouterr().err


class TestDemoCorpusScript:
    SCRIPT = Path(__file__).parents[1] / "scripts" / "make_demo_corpus.py"

    def _run(self, out, *argv):
        return subprocess.run([sys.executable, str(self.SCRIPT), "--out", str(out), *argv],
                              env=_child_env(), capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("option, value", [
        ("--duration", "-1"), ("--duration", "0"), ("--duration", "nan"),
        ("--duration", "1e-5"), ("--duration", "1e308"), ("--rate", "0"), ("--rate", "249"),
        ("--speakers", "0"), ("--recordings", "0"), ("--seed", "-1")])
    def test_bad_values_are_usage_errors(self, option, value, tmp_path):
        done = self._run(tmp_path / "corpus", option, value)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1].startswith(
            f"make_demo_corpus.py: error: argument {option}: ")
        assert not (tmp_path / "corpus").exists()

    def test_smallest_corpus(self, tmp_path):
        # one speaker, one 4 ms recording at 250 Hz: the fricative shaper's one tap
        done = self._run(tmp_path / "corpus", "--speakers", "1", "--recordings", "1",
                         "--rate", "250", "--duration", "0.004")
        assert done.returncode == 0, done.stderr
        assert len(load_wav(next((tmp_path / "corpus").glob("*/*.wav")))) == 1


class TestNoBlas:
    """No score goes through BLAS, so a report does not depend on which BLAS
    kernel the CPU selects or on its thread count, and tfsep needs no BLAS
    setting: importing it changes no environment variable."""

    BLAS_VARS = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")

    def _run(self, code, *argv, **env):
        """`python -c code argv` in the environment of a shell with no BLAS
        variable set, plus `env`."""
        base = {k: v for k, v in _child_env().items() if k not in self.BLAS_VARS}
        return subprocess.run([sys.executable, "-c", code, *argv], env={**base, **env},
                              capture_output=True, text=True, timeout=60)

    def test_import_leaves_the_environment_alone(self):
        code = ("import os; before = dict(os.environ); import tfsep\n"
                "print(sorted(set(os.environ.items()) ^ set(before.items())))")
        done = self._run(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_reports_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # Prescott runs OpenBLAS's Katmai kernels and Haswell its AVX2 ones;
        # the host's own is the default. 44.1 kHz is a rate whose resampling
        # (for STOI) decimates by 441.
        corpora = [make_corpus(tmp_path / f"c{rate}", n_speakers=2, recordings=1, duration=1.0,
                               rate=rate, seed=1) for rate in (16000, 44100)]
        grid = _grid_file(tmp_path)
        code = ("import sys\nfrom tfsep.cli import main\n"
                "for corpus in sys.argv[2:]:\n"
                "    assert main(['experiment', '--corpus', corpus, '--mixtures', '1', '--grid',"
                " sys.argv[1], '--format', 'json', '--out', corpus + '.json']) == 0\n")
        probe = "import numpy as np; a = np.ones((64, 64)); a @ a"
        reports = {}
        for core in ({}, {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}):
            if core:
                shown = self._run(probe, OPENBLAS_VERBOSE="2", **core)
                if shown.returncode or "Core: " not in shown.stderr or "not found" in shown.stderr:
                    continue            # this numpy's BLAS does not offer this kernel here
            for threads in ("1", "2"):
                done = self._run(code, str(grid), *map(str, corpora), OPENBLAS_NUM_THREADS=threads,
                                 **core)
                assert done.returncode == 0, done.stderr
                rows = [row for c in corpora for row in json.loads(Path(f"{c}.json").read_text())]
                for row in rows:
                    del row["time_s"]
                reports[str(core), threads] = rows
        assert all(row["stoi"] is not None for row in rows)
        first = next(iter(reports.values()))
        assert all(report == first for report in reports.values()), list(reports)


class TestCpuFeatures:
    """The filter banks and the resampler sum through einsum's contiguous
    dot-product loop, which numpy builds for its baseline SIMD only, so their
    bytes do not depend on which of the CPU's features numpy dispatches to."""

    SETTINGS = (None, "AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR",
                "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    CODE = """\
import hashlib
import numpy as np
from tfsep.signal import PadMode, Signal, resample
from tfsep.wavelet import DwtConfig, WptConfig, iwpt, max_level, wavedec, waverec, wpt
rng = np.random.default_rng(7)
digest = hashlib.sha256()
for n in (5, 101, 4097):
    s = Signal(rng.normal(size=n), 8000)
    for name in ("haar", "db2", "sym8", "coif5", "db20", "coif17"):
        for mode in PadMode:
            for levels in (1, max_level(n)):
                for forward, inverse, cfg in ((wavedec, waverec, DwtConfig), (wpt, iwpt, WptConfig)):
                    tf = forward(s, cfg(name, levels, mode))
                    digest.update(tf.coeffs.tobytes() + inverse(tf).samples.tobytes())
for rate in (8000, 16000, 22050, 44100):
    digest.update(resample(Signal(rng.normal(size=rate), rate), 10000).samples.tobytes())
print(digest.hexdigest())
"""

    def test_wavelets_and_resampler_do_not_depend_on_cpu_features(self):
        base = {k: v for k, v in _child_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
        digests = {}
        for setting in self.SETTINGS:
            env = base if setting is None else {**base, "NPY_DISABLE_CPU_FEATURES": setting}
            done = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                                  capture_output=True, text=True, timeout=120)
            if done.returncode and "cannot disable" in done.stderr:
                continue                # this numpy cannot turn these features off here
            assert done.returncode == 0, done.stderr
            digests[setting] = done.stdout
        assert None in digests
        assert len(set(digests.values())) == 1, digests
