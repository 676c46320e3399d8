import json

import numpy as np
import pytest

from tfsep import harness
from tfsep.cli import _stft_config, build_parser, main
from tfsep.harness import build_config, default_grid, load_wav, save_wav
from tfsep.signal import Signal
from tfsep.synth import speech_like


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


class TestStftMilliseconds:
    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
    def test_decompose_options_match_grid_rows(self, rate):
        # a row labelled "W ms <window> window H ms hop" is `--win-ms W --hop-ms H`
        for entry in default_grid(1):
            if entry.decomposition != "stft":
                continue
            win_ms, window, _, hop_ms, _ = entry.params.split()
            args = build_parser().parse_args(
                ["decompose", "--in", "x.wav", "--method", "stft", "--out", "x.csv",
                 "--window", "rect" if window == "rectangular" else window,
                 "--win-ms", win_ms[:-2], "--hop-ms", hop_ms[:-2]])
            assert _stft_config(args, rate) == build_config(entry, rate), entry.params


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

    def test_length_mismatch_is_data_error(self, wav_file, tmp_path):
        short = Signal(np.zeros(100), 16000)
        save_wav(short, tmp_path / "short.wav")
        assert main(["metrics", "--ref", str(wav_file),
                     "--deg", str(tmp_path / "short.wav")]) == 2


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


class TestExperimentCommand:
    def _grid_file(self, tmp_path):
        grid = {
            "stft": {"windows": ["hann"], "sizes_ms": [32], "hop_fractions": [0.5]},
            "wavelet": {"families": ["db4"], "levels": [3]},
            "wpt": {"families": ["db4"], "levels": [3]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return path

    def test_runs_and_is_deterministic(self, small_corpus, tmp_path):
        grid = self._grid_file(tmp_path)
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
        grid = self._grid_file(tmp_path)
        out = tmp_path / "report.json"
        assert main(["experiment", "--corpus", str(small_corpus), "--mixtures", "1",
                     "--seed", "2", "--grid", str(grid), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3

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


class TestGridFileChecks:
    @pytest.mark.parametrize("grid, section, key", [
        ({"stft": {"windows": ["hann"], "hop_fractions": [0.5]}}, "stft", "sizes_ms"),
        ({"stft": {"windows": "hann", "sizes_ms": [32], "hop_fractions": [0.5]}},
         "stft", "windows"),
        ({"wavelet": {"families": ["sym88"], "levels": [3]}}, "wavelet", "families"),
        ({"stft": {"windows": ["hamming"], "sizes_ms": [32], "hop_fractions": [0.5]}},
         "stft", "windows"),
        ({"wpt": {"families": ["db4"], "levels": [3], "mode": "periodic"}}, "wpt", "mode"),
    ], ids=["missing-sizes", "windows-not-a-list", "sym88", "hamming", "periodic"])
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


class TestUsageErrors:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_missing_required_option_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--method", "stft"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("option, value", [
        ("--mixtures", "0"), ("--mixtures", "-1"), ("--jobs", "0")])
    def test_counts_below_one_exit_one(self, option, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--corpus", str(tmp_path), "--out",
                  str(tmp_path / "r.csv"), option, value])
        assert exc.value.code == 1
        assert option in capsys.readouterr().err
