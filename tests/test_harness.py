import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfsep import harness
from tfsep.harness import (DataError, Mixture, SpeakerCorpus, _mean, build_config,
                           default_grid, emit_report, grid_search, load_grid_file,
                           load_wav, make_mixture, run_ibm_trial, save_wav,
                           stft_entry, wav_header, wavelet_entry)
from tfsep.masking import DwtConfig, StftConfig, WptConfig, decompose
from tfsep.fourier import WindowKind
from tfsep.metrics import MetricScores, stoi_reference
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

    @pytest.mark.parametrize("channels, rate, cut, fault", [
        (1, 8000, 1, "not a whole number of 1-channel 16-bit frames"),   # odd byte count
        (2, 8000, 2, "not a whole number of 2-channel 16-bit frames"),   # half a frame
        (3, 8000, 4, "not a whole number of 3-channel 16-bit frames"),
        (1, 0, 0, "header sample rate is 0 Hz")])
    def test_malformed_data_names_file_and_fault(self, tmp_path, channels, rate, cut, fault):
        size = 100 * channels * 2
        fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * 2, channels * 2, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", size) + bytes(size - cut))
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError) as err:
            load_wav(path)
        assert str(err.value).startswith(f"{path}: ") and fault in str(err.value)
        with pytest.raises(DataError) as from_header:     # found without decoding
            wav_header(path)
        assert str(from_header.value) == str(err.value)

    # a 2-channel file holding 100 frames, whose data chunk claims `claimed`
    # frames, cut by `cut` bytes at its end and with a RIFF size `riff_short`
    # bytes short: wave reads up to the claimed size, the file's end or the RIFF
    # chunk's end, whichever comes first, and the header must say as much
    @pytest.mark.parametrize("claimed, cut, riff_short, frames", [
        (100, 0, 0, 100), (100, 20, 0, 95), (100, 0, 32, 92), (100, 20, 60, 85),
        (0, 0, 0, 0), (1000, 0, 0, 100)])
    def test_header_gives_the_decoded_length(self, tmp_path, claimed, cut, riff_short, frames):
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 8000 * 4, 4, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
                + struct.pack("<I", 4 * claimed) + np.arange(200, dtype="<i2").tobytes())
        path = tmp_path / "short.wav"
        whole = b"RIFF" + struct.pack("<I", len(body) - riff_short) + body
        path.write_bytes(whole[:len(whole) - cut])
        assert len(load_wav(path)) == frames
        assert wav_header(path) == (8000, frames, 2, 44)

    def test_ieee_float_wav_is_data_error(self, tmp_path):
        # format tag 3: 32-bit IEEE float samples, which the wave module refuses
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 8000 * 4, 4, 32)
        data = np.zeros(100, dtype="<f4").tobytes()
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path = tmp_path / "float.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError) as err:
            load_wav(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "not a readable WAV file (unknown format: 3)" in str(err.value)


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
        assert len(mix.sources) == 3
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


def _degenerate_mixture(rng) -> Mixture:
    src = speech_like(2.0, 16000, np.random.default_rng(21))
    silence = Signal(np.zeros(len(src)), src.rate)
    return Mixture(src, (src, silence), ("solo", "silence"))


class TestIbmTrial:
    def test_zero_interference_is_perfect(self, rng):
        mix = _degenerate_mixture(rng)
        for cfg in (StftConfig(WindowKind.HANN, 800, 400),
                    DwtConfig("sym8", 6), WptConfig("sym8", 6)):
            scores = run_ibm_trial(mix, cfg)
            assert abs(scores.stoi - 1.0) < 1e-6
            assert scores.si_sdr == math.inf or scores.si_sdr > 100.0
            assert scores.mse < 1e-12
            assert scores.time_s > 0.0

    # no step may run on top of every coefficient array of the trial (the
    # mixture's, the sources', their sum, the mask and the masked copy of a dense
    # 5 ms / 1.25 ms hop STFT): the target is kept as its magnitudes (half an
    # array), the sources are decomposed one at a time, each added into the
    # first one's array, and released once the mask is built, before the mixture
    # is transformed, and the mask is held as booleans. On 2 s signals the peak
    # is then the third source's stft beside |target| and the sum (3.59x: the
    # FFT's chunk buffers weigh on so short a signal), on 12 s ones the same
    # step at 2.82x (3.50x when each sum was a new array). With two sources on
    # 1 s, 16 kHz signals, it is the inverse: the masked copy, istft's chunk
    # buffers and numpy's ufunc buffers (2.59x; 2.82x when istft held a
    # transform buffer for every frame).
    # They were 4.09x and 3.00x with the target's coefficients and a float mask.
    @pytest.mark.parametrize("n_sources, rate, seconds, bound", [
        (3, 8000, 2, 3.65), (3, 8000, 12, 3.0), (2, 16000, 1, 2.7)])
    def test_coefficients_released_before_reconstruction(self, n_sources, rate, seconds, bound):
        import tracemalloc
        gen = np.random.default_rng(0)
        sources = tuple(Signal(gen.normal(size=seconds * rate), rate) for _ in range(n_sources))
        mix = Mixture(Signal(sum(s.samples for s in sources), rate), sources,
                      tuple("abc"[:n_sources]))
        cfg = build_config(stft_entry("hann", 5.0, 1.25), rate)
        size = decompose(mix.mixture, cfg).coeffs.nbytes
        run_ibm_trial(mix, cfg)
        tracemalloc.start()
        try:
            run_ibm_trial(mix, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * size, peak / size

    def test_mask_never_hurts_on_average(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        cfg = StftConfig(WindowKind.HANN, 512, 256)
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
        levels = {e.config.levels for e in grid if e.decomposition == "wavelet"}
        assert max(levels) == 12
        full = default_grid(max_levels=14, full_depth=True)
        levels = {e.config.levels for e in full if e.decomposition == "wavelet"}
        assert max(levels) == 14

    def test_milliseconds_floor_to_samples(self):
        cfg = build_config(stft_entry("hann", 32.0, 16.0), 16000)
        assert cfg.win_size == 512 and cfg.hop == 256 and cfg.fft_size == 512
        cfg = build_config(stft_entry("hann", 50.0, 25.0), 16000)
        assert cfg.win_size == 800 and cfg.fft_size == 1024

    @pytest.mark.parametrize("win_ms, hop_ms", [
        (math.inf, 16.0), (math.nan, 16.0), (32.0, math.inf), (1e308, 5e307)])
    def test_non_finite_sample_counts_rejected(self, win_ms, hop_ms):
        with pytest.raises(ValueError, match="not finite"):
            build_config(stft_entry("hann", win_ms, hop_ms), 44100)

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

    def test_rows_labelled_with_canonical_names(self, tmp_path):
        spec = {
            "stft": {"windows": ["rect", "HANN"], "sizes_ms": [32], "hop_fractions": [0.5]},
            "wavelet": {"families": ["db4"], "levels": [2], "mode": "Zero"},
            "wpt": {"families": ["haar"], "levels": [1], "mode": "SYMMETRIC"},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        assert [e.params for e in load_grid_file(path)] == [
            "32ms rectangular window 16ms hop", "32ms hann window 16ms hop",
            "db4 2 levels zero", "haar 1 levels symmetric"]

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
        stft_entry("hann", 32.0, 16.0),
        wavelet_entry("dwt", "db4", 3),
        wavelet_entry("wpt", "db4", 3),
    ]


class TestGridSearch:
    def test_report_shape_and_status(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        report = grid_search(corpus, _small_grid(), n_mixtures=2, seed=3)
        assert len(report.rows) == 3
        assert all(row.status == "ok" for row in report.rows)
        assert all(row.n_mixtures == 2 for row in report.rows) and report.n_mixtures == 2
        stois = [row.stoi for row in report.rows]
        assert stois == sorted(stois, reverse=True)

    def test_invalid_configuration_marks_row_failed(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [wavelet_entry("dwt", "db4", 28), stft_entry("hann", 32.0, 16.0)]
        report = grid_search(corpus, grid, n_mixtures=1, seed=3)
        failed = [row for row in report.rows if row.status != "ok"]
        assert len(failed) == 1
        assert failed[0].stoi is None
        assert "levels" in failed[0].status
        assert report.rows[0].status == "ok"

    @pytest.mark.parametrize("size_ms, reason", [
        (1e308, "window/hop not finite"), (1e9, "STFT too large"),
        (1e300, "STFT too large: 2 frames x 2^1001 FFT points exceeds 2^25 points"),
        (0.05, "window/hop too small: 0.05 ms / 0.025 ms at 16000 Hz")],
        ids=["1e+308", "1000000000.0", "1e+300", "0.05"])
    def test_unbounded_stft_row_fails(self, small_corpus, size_ms, reason):
        # 1e308 ms is an infinite sample count, 1e9 ms a 119 GiB window, 1e300 ms
        # a 2^1001-point FFT, 0.05 ms under two samples
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [stft_entry("hann", size_ms, size_ms / 2), stft_entry("hann", 32.0, 16.0)]
        report = grid_search(corpus, grid, n_mixtures=1, seed=3)
        assert report.rows[0].status == "ok"
        assert report.rows[1].status.startswith(f"failed: {reason}")
        assert len(report.rows[1].status) < 100, report.rows[1].status

    def test_threads_bounded_by_the_cpus(self, small_corpus, monkeypatch):
        pools = []

        class InlinePool:  # records its size and runs the tasks in order
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        corpus = SpeakerCorpus.from_dir(small_corpus)
        strip = lambda rep: [dataclasses.replace(r, time_s=None) for r in rep.rows]
        reports = []
        for cpus in (2, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            reports.append(grid_search(corpus, _small_grid(), n_mixtures=1, seed=3,
                                       jobs=100000))
        assert pools == [2]  # and no pool when the CPU count is unknown
        assert strip(reports[0]) == strip(reports[1])

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
        entry = stft_entry("hann", 32.0, 16.0)
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
                             [stft_entry("hann", 32.0, 16.0)], n_mixtures=4, seed=3)
        (row,) = report.rows
        assert len(calls) == 4 and row.n_mixtures == 4 and row.status == "ok"
        assert row.stoi is None
        assert row.si_sdr == 5.0

    def test_best_stft_window_is_wide(self, small_corpus):
        # larger Hann windows resolve overlapping voices better
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [stft_entry("hann", ms, ms / 2)
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
        return grid_search(corpus, [stft_entry("hann", 32.0, 16.0)],
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
        report = ExperimentReport((row,))
        emit_report(report, "csv", tmp_path / "inf.csv")
        assert ",inf," in (tmp_path / "inf.csv").read_text()
        emit_report(report, "json", tmp_path / "inf.json")
        payload = json.loads((tmp_path / "inf.json").read_text())
        assert payload[0]["si_sdr"] == "inf"

    def test_empty_report_rejected(self, tmp_path):
        from tfsep.harness import ExperimentReport
        with pytest.raises(ValueError):
            emit_report(ExperimentReport(()), "csv", tmp_path / "no.csv")


def _noise_corpus(root, rates: dict, seconds: float, silent=(), recordings: int = 1):
    """`recordings` recordings per speaker: noise, or zeros for the speakers
    in silent."""
    gen = np.random.default_rng(4)
    for name, rate in rates.items():
        (root / name).mkdir()
        n = round(seconds * rate)
        for i in range(recordings):
            samples = np.zeros(n) if name in silent else 0.3 * gen.normal(size=n)
            save_wav(Signal(samples, rate), root / name / f"u{i:03d}.wav")
    return SpeakerCorpus.from_dir(root)


class TestPerMixtureWork:
    def test_clean_side_of_stoi_runs_once_per_mixture(self, small_corpus, monkeypatch):
        from tfsep import metrics
        calls, metrics_resample = [], metrics.resample

        def counting_resample(sig, rate):
            calls.append(len(sig))
            return metrics_resample(sig, rate)

        monkeypatch.setattr(metrics, "resample", counting_resample)
        grid = [wavelet_entry("dwt", "haar", 1), wavelet_entry("dwt", "db4", 3),
                wavelet_entry("wpt", "haar", 2)]
        report = grid_search(SpeakerCorpus.from_dir(small_corpus), grid, n_mixtures=2, seed=3)
        assert all(row.status == "ok" and row.stoi is not None for row in report.rows)
        assert len(calls) == 2 + 3 * 2      # M references + C x M estimates

    @pytest.mark.parametrize("seconds, silent, reason", [
        (1.0, ("a",), "clean signal is silent"),
        (0.01, (), "signals too short"),
        (0.2, (), "fewer than 30 frames"),
    ], ids=["silent", "too-short", "few-frames"])
    def test_unscorable_target_empties_every_stoi_cell(
            self, tmp_path, monkeypatch, seconds, silent, reason):
        corpus = _noise_corpus(tmp_path, {"a": 16000, "b": 16000}, seconds, silent)
        trials = []

        def spy(mix, cfg):
            scores = run_ibm_trial(mix, cfg)
            alone = run_ibm_trial(dataclasses.replace(mix, reference=None), cfg)
            trials.append((mix, scores.stoi, alone.stoi))
            return scores

        monkeypatch.setattr(harness, "run_ibm_trial", spy)
        grid = [wavelet_entry("dwt", "haar", 1), wavelet_entry("wpt", "haar", 1)]
        # seed 1 draws targets b, b, a, a
        report = grid_search(corpus, grid, n_mixtures=4, seed=1)
        assert all(row.status == "ok" and row.stoi is None for row in report.rows)
        assert all(by_reference == alone for _, by_reference, alone in trials)
        unscorable = [mix for mix, _, _ in trials if mix.reference is None]
        assert unscorable
        for mix in unscorable:      # no reference stored: its build fails for the reason
            with pytest.raises(ValueError, match=reason):
                stoi_reference(mix.sources[0].samples, mix.mixture.rate)
        assert len(trials) == 8

    def test_every_rate_checked_before_the_first_trial(self, tmp_path, monkeypatch):
        # seed 5: the first mixture is all 8 kHz, the second draws speaker d
        corpus = _noise_corpus(tmp_path, {"a": 8000, "b": 8000, "c": 8000, "d": 16000}, 0.5)

        def no_trials(mix, cfg):
            raise AssertionError("a trial ran before every rate was checked")

        monkeypatch.setattr(harness, "run_ibm_trial", no_trials)
        with pytest.raises(DataError, match="sampling rate mismatch"):
            grid_search(corpus, [wavelet_entry("dwt", "haar", 1)], n_mixtures=4, seed=5)
        # the first mixture alone builds, so its trials could have run first
        make_mixture(corpus, 2, int(np.random.SeedSequence(5).generate_state(1)[0]))

    def test_data_cut_mid_frame_found_before_the_first_trial(self, tmp_path, monkeypatch):
        # seed 5: the first mixture draws a, b or c; the second draws d, whose data is cut
        corpus = _noise_corpus(tmp_path, {s: 8000 for s in "abcd"}, 0.5)
        wav = tmp_path / "d" / "u000.wav"
        wav.write_bytes(wav.read_bytes()[:-1])

        def no_trials(mix, cfg):
            raise AssertionError("a trial ran before every recording was checked")

        monkeypatch.setattr(harness, "run_ibm_trial", no_trials)
        with pytest.raises(DataError, match="not a whole number of 1-channel 16-bit frames"):
            grid_search(corpus, [wavelet_entry("dwt", "haar", 1)], n_mixtures=4, seed=5)
        make_mixture(corpus, 2, int(np.random.SeedSequence(5).generate_state(1)[0]))

    def test_each_recording_is_decoded_once_per_mixture(self, tmp_path, monkeypatch):
        # the rate check before the first trial reads headers only
        corpus = _noise_corpus(tmp_path, {s: 8000 for s in "abcd"}, 0.01, recordings=3)
        decoded = []

        def counting_load_wav(path):
            decoded.append(path)
            return load_wav(path)

        monkeypatch.setattr(harness, "load_wav", counting_load_wav)
        report = grid_search(corpus, [wavelet_entry("dwt", "haar", 1)], n_mixtures=400)
        assert report.rows[0].status == "ok"
        assert len(decoded) == 800

    def test_memory_does_not_grow_with_the_mixtures(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        # enough recordings that a corpus held in memory would show
        _noise_corpus(root, {s: 8000 for s in "abcd"}, 0.5, recordings=100)
        grid = tmp_path / "grid.json"
        # the 30-level rows fail: a failed trial must not keep its mixture alive
        grid.write_text(json.dumps({"wavelet": {"families": ["haar"], "levels": [1, 30]}}))
        # each count in a fresh interpreter, so that nothing earlier tests left
        # behind (an interned-string table one entry short of a resize) is traced
        code = ("import sys, tracemalloc\nfrom tfsep.cli import main\ntracemalloc.start()\n"
                "assert main(sys.argv[1:]) == 0\nprint(tracemalloc.get_traced_memory()[1])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
        peaks = []
        for mixtures in (50, 400):
            done = subprocess.run(
                [sys.executable, "-c", code, "experiment", "--corpus", str(root), "--grid",
                 str(grid), "--mixtures", str(mixtures), "--out", str(tmp_path / "r.csv")],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            peaks.append(int(done.stdout))
        assert peaks[1] - peaks[0] < 2 << 20, peaks
