import json
import math

import numpy as np
import pytest

from tfsep import harness
from tfsep.harness import (DataError, Mixture, SpeakerCorpus, _mean, build_config,
                           default_grid, emit_report, grid_search, load_grid_file,
                           load_wav, make_mixture, run_ibm_trial, save_wav,
                           stft_entry, wavelet_entry)
from tfsep.masking import DwtConfig, StftConfig, WptConfig
from tfsep.fourier import WindowKind
from tfsep.metrics import MetricScores
from tfsep.signal import Signal
from tfsep.synth import speech_like


class TestWavIo:
    def test_roundtrip_quantization_bound(self, tmp_path, rng):
        s = Signal(rng.uniform(-1.0, 1.0, size=5000), 16000)
        save_wav(s, tmp_path / "x.wav")
        back = load_wav(tmp_path / "x.wav")
        assert back.rate == 16000 and len(back) == 5000
        assert np.max(np.abs(back.samples - s.samples)) <= 1.0 / 32768

    def test_one_minute_file_metadata(self, tmp_path, rng):
        s = Signal(rng.uniform(-0.5, 0.5, size=959669), 16000)
        save_wav(s, tmp_path / "minute.wav")
        back = load_wav(tmp_path / "minute.wav")
        assert back.rate == 16000
        assert len(back) == 959669

    def test_truncated_header_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF\x10\x00\x00\x00WAVE")
        with pytest.raises(DataError):
            load_wav(bad)

    def test_not_a_wav_is_data_error(self, tmp_path):
        bad = tmp_path / "noise.wav"
        bad.write_bytes(b"\x00" * 64)
        with pytest.raises(DataError):
            load_wav(bad)

    def test_unsupported_depth_is_data_error(self, tmp_path):
        import wave
        with wave.open(str(tmp_path / "wide.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(4)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 64)
        with pytest.raises(DataError, match="bit depth"):
            load_wav(tmp_path / "wide.wav")

    def test_stereo_downmix(self, tmp_path):
        import wave
        left = np.full(100, 8192, dtype="<i2")
        right = np.full(100, -8192, dtype="<i2")
        inter = np.empty(200, dtype="<i2")
        inter[0::2], inter[1::2] = left, right
        with wave.open(str(tmp_path / "st.wav"), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(inter.tobytes())
        back = load_wav(tmp_path / "st.wav")
        assert len(back) == 100
        assert np.allclose(back.samples, 0.0)


class TestCorpusAndMixtures:
    def test_corpus_discovery(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        assert len(corpus.speakers) == 4
        assert all(len(sp.files) == 2 for sp in corpus.speakers)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError):
            SpeakerCorpus.from_dir(tmp_path / "nothing")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError):
            SpeakerCorpus.from_dir(tmp_path / "empty")

    def test_same_seed_same_mixture(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        a = make_mixture(corpus, 2, 1234)
        b = make_mixture(corpus, 2, 1234)
        assert a.speaker_ids == b.speaker_ids
        assert np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_mixture_is_sum_of_sources(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        mix = make_mixture(corpus, 3, 9)
        total = np.sum([src.samples for src in mix.sources], axis=0)
        assert np.max(np.abs(mix.mixture.samples - total)) < 1e-12
        assert len({len(src) for src in mix.sources}) == 1
        assert mix.target_index == 0
        assert len(set(mix.speaker_ids)) == 3

    def test_triangle_inequality(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        mix = make_mixture(corpus, 2, 77)
        norm_sum = sum(np.linalg.norm(src.samples) for src in mix.sources)
        assert np.sum(mix.mixture.samples ** 2) <= norm_sum ** 2 + 1e-9

    def test_too_few_speakers(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        with pytest.raises(DataError):
            make_mixture(corpus, 5, 0)
        with pytest.raises(ValueError):
            make_mixture(corpus, 1, 0)

    def test_rate_mismatch(self, tmp_path, rng):
        for name, rate in (("a", 16000), ("b", 8000)):
            d = tmp_path / name
            d.mkdir()
            save_wav(Signal(0.3 * rng.normal(size=rate), rate), d / "u.wav")
        corpus = SpeakerCorpus.from_dir(tmp_path)
        with pytest.raises(DataError, match="rate"):
            make_mixture(corpus, 2, 0)
        mix = make_mixture(corpus, 2, 0, allow_resample=True)
        assert len({src.rate for src in mix.sources}) == 1
        assert abs(len(mix.mixture) - mix.mixture.rate) <= 1  # both were 1 s long


def _degenerate_mixture(rng) -> Mixture:
    src = speech_like(2.0, 16000, np.random.default_rng(21))
    return Mixture(src, (src,), 0, ("solo",), 0)


class TestIbmTrial:
    def test_zero_interference_is_perfect(self, rng):
        mix = _degenerate_mixture(rng)
        for cfg in (StftConfig(WindowKind.HANN, 800, 400, 1024),
                    DwtConfig("sym8", 6), WptConfig("sym8", 6)):
            scores = run_ibm_trial(mix, cfg)
            assert abs(scores.stoi - 1.0) < 1e-6
            assert scores.si_sdr == math.inf or scores.si_sdr > 100.0
            assert scores.mse < 1e-12
            assert scores.decomposition_time > 0.0

    def test_mask_never_hurts_on_average(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        cfg = StftConfig(WindowKind.HANN, 512, 256, 512)
        gains = []
        from tfsep.metrics import si_sdr
        for seed in range(10):
            mix = make_mixture(corpus, 2, seed)
            scores = run_ibm_trial(mix, cfg)
            baseline = si_sdr(mix.sources[0].samples, mix.mixture.samples)
            gains.append(scores.si_sdr - baseline)
        assert np.mean(gains) >= 0.0


class TestGrids:
    def test_default_stft_grid_size(self):
        grid = default_grid(max_levels=6)
        stft_rows = [e for e in grid if e.decomposition == "stft"]
        assert len(stft_rows) == 48  # 2 windows x 8 sizes x 3 hops

    def test_default_wavelet_rows(self):
        grid = default_grid(max_levels=3)
        dwt_rows = [e for e in grid if e.decomposition == "wavelet"]
        wpt_rows = [e for e in grid if e.decomposition == "wavelet_packet"]
        assert len(dwt_rows) == len(wpt_rows) == 56 * 3

    def test_level_cap(self):
        grid = default_grid(max_levels=30)
        levels = {e.spec["levels"] for e in grid if e.decomposition == "wavelet"}
        assert max(levels) == 12
        full = default_grid(max_levels=14, full_depth=True)
        levels = {e.spec["levels"] for e in full if e.decomposition == "wavelet"}
        assert max(levels) == 14

    def test_grid_file(self, tmp_path):
        spec = {
            "stft": {"windows": ["hann"], "sizes_ms": [32], "hop_fractions": [0.5]},
            "wavelet": {"families": ["sym8", "db4"], "levels": [2, 3]},
            "wpt": {"families": ["haar"], "levels": [4]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        grid = load_grid_file(path)
        assert len(grid) == 1 + 4 + 1

    def test_bad_grid_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(DataError):
            load_grid_file(path)
        path.write_text("{}")
        with pytest.raises(DataError):
            load_grid_file(path)


def _small_grid():
    return [
        stft_entry("hann", 32.0, 0.5),
        wavelet_entry("dwt", "db4", 3),
        wavelet_entry("wpt", "db4", 3),
    ]


class TestGridSearch:
    def test_report_shape_and_status(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        report = grid_search(corpus, _small_grid(), n_mixtures=2, seed=3)
        assert len(report.rows) == 3
        assert all(row.status == "ok" for row in report.rows)
        assert all(row.n_mixtures == 2 for row in report.rows)
        stois = [row.stoi for row in report.rows]
        assert stois == sorted(stois, reverse=True)

    def test_invalid_configuration_marks_row_failed(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [wavelet_entry("dwt", "db4", 28), stft_entry("hann", 32.0, 0.5)]
        report = grid_search(corpus, grid, n_mixtures=1, seed=3)
        failed = [row for row in report.rows if row.status != "ok"]
        assert len(failed) == 1
        assert failed[0].stoi is None
        assert "levels" in failed[0].status
        assert report.rows[0].status == "ok"

    def test_deterministic_across_runs_and_jobs(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        reports = [grid_search(corpus, _small_grid(), n_mixtures=2, seed=11, jobs=j)
                   for j in (1, 1, 4)]
        strip = lambda rep: [(r.decomposition, r.params, r.stoi, r.si_sdr, r.snr,
                              r.mse, r.status) for r in rep.rows]
        assert strip(reports[0]) == strip(reports[1]) == strip(reports[2])

    def test_empty_grid_rejected(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        with pytest.raises(ValueError):
            grid_search(corpus, [], n_mixtures=1)

    def test_no_mixtures_rejected(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        with pytest.raises(ValueError, match="mixture"):
            grid_search(corpus, _small_grid(), n_mixtures=0)

    def test_each_mixture_gets_configs_at_its_own_rate(self, tmp_path, monkeypatch):
        # two speakers at 8 kHz, two at 16 kHz; seed 2 draws one mixture of each
        gen = np.random.default_rng(0)
        for name, rate in (("a", 8000), ("b", 8000), ("c", 16000), ("d", 16000)):
            (tmp_path / name).mkdir()
            save_wav(speech_like(1.0, rate, gen), tmp_path / name / "u.wav")
        seen = []

        def spy(mix, cfg):
            seen.append((mix.mixture.rate, cfg))
            return run_ibm_trial(mix, cfg)

        monkeypatch.setattr(harness, "run_ibm_trial", spy)
        entry = stft_entry("hann", 32.0, 0.5)
        report = grid_search(SpeakerCorpus.from_dir(tmp_path), [entry],
                             n_mixtures=2, seed=2)
        assert report.rows[0].status == "ok"
        assert sorted(rate for rate, _ in seen) == [8000, 16000]
        assert all(cfg == build_config(entry, rate) for rate, cfg in seen)
        assert {cfg.win_size for _, cfg in seen} == {256, 512}   # 32 ms at each rate

    def test_row_with_a_missing_metric_has_an_empty_cell(self, small_corpus, monkeypatch):
        calls = []

        def one_stoi_missing(mix, cfg):
            calls.append(mix)
            return MetricScores(None if len(calls) == 1 else 0.8, 5.0, 6.0, 0.1, 0.01)

        monkeypatch.setattr(harness, "run_ibm_trial", one_stoi_missing)
        report = grid_search(SpeakerCorpus.from_dir(small_corpus),
                             [stft_entry("hann", 32.0, 0.5)], n_mixtures=4, seed=3)
        (row,) = report.rows
        assert len(calls) == 4 and row.n_mixtures == 4 and row.status == "ok"
        assert row.stoi is None
        assert row.si_sdr == 5.0

    def test_best_stft_window_is_wide(self, small_corpus):
        # larger Hann windows resolve overlapping voices better
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [stft_entry("hann", ms, 0.5)
                for ms in (5.0, 10.0, 16.0, 32.0, 50.0, 100.0)]
        report = grid_search(corpus, grid, n_mixtures=6, seed=17)
        best = report.rows[0].params
        assert any(best.startswith(f"{ms:g}ms") for ms in (32.0, 50.0, 100.0)), best


class TestMean:
    def test_plain_mean(self):
        assert _mean([1.0, 2.0, 6.0]) == 3.0

    def test_any_missing_value_empties_the_cell(self):
        assert _mean([0.9, None, 0.7, 0.8]) is None
        assert _mean([None]) is None

    def test_one_signed_infinity_is_kept(self):
        assert _mean([math.inf, 3.0]) == math.inf
        assert _mean([-math.inf, 3.0]) == -math.inf

    def test_mixed_infinities_empty_the_cell(self):
        assert _mean([math.inf, -math.inf]) is None
        assert _mean([math.inf, 2.0, -math.inf]) is None


class TestEmitReport:
    def _one_row_report(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        return grid_search(corpus, [stft_entry("hann", 32.0, 0.5)],
                           n_mixtures=1, seed=5)

    def test_csv_roundtrip(self, small_corpus, tmp_path):
        report = self._one_row_report(small_corpus)
        out = tmp_path / "report.csv"
        emit_report(report, "csv", out)
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header[:8] == ["decomposition", "params", "stoi", "si_sdr",
                              "snr", "mse", "time_s", "n_mixtures"]
        cells = lines[1].split(",")
        assert cells[0] == "stft"
        assert abs(float(cells[2]) - report.rows[0].stoi) < 1e-8

    def test_json_schema(self, small_corpus, tmp_path):
        report = self._one_row_report(small_corpus)
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        payload = json.loads(out.read_text())
        assert isinstance(payload, list)
        assert payload[0]["decomposition"] == "stft"
        assert isinstance(payload[0]["stoi"], float)

    def test_infinity_serialized_as_inf(self, tmp_path):
        from tfsep.harness import ExperimentReport, ReportRow
        row = ReportRow("stft", "x", 1.0, math.inf, math.inf, 0.0, 0.1, 1, "ok")
        report = ExperimentReport((row,), 1, 0, "stoi")
        emit_report(report, "csv", tmp_path / "inf.csv")
        assert ",inf," in (tmp_path / "inf.csv").read_text()
        emit_report(report, "json", tmp_path / "inf.json")
        payload = json.loads((tmp_path / "inf.json").read_text())
        assert payload[0]["si_sdr"] == "inf"

    def test_empty_report_rejected(self, tmp_path):
        from tfsep.harness import ExperimentReport
        with pytest.raises(ValueError):
            emit_report(ExperimentReport((), 0, 0, "stoi"), "csv", tmp_path / "no.csv")
