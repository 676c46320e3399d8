"""Coverage for less-traveled paths: odd resampling ratios, non-default
wavelet boundary modes through the masking dispatch, malformed inputs, and
report-sorting options."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfsep.fourier import StftConfig, WindowKind, istft, make_window, stft, stft_frequencies
from tfsep.harness import (ExperimentReport, ReportRow, SpeakerCorpus, emit_report,
                           grid_search, load_grid_file, stft_entry, wavelet_entry)
from tfsep.masking import (DwtConfig, WptConfig, apply_mask, decompose,
                           ideal_binary_mask, reconstruct)
from tfsep.signal import PadMode, Signal, convolve, pad, resample
from tfsep.wavelet import (count_vanishing_moments, cwt_ricker, dwt_bands, dwt_step,
                           idwt_step, iwpt, lookup, ricker_kernel, wavedec, waverec, wpt)


class TestResampleCoprimeRatios:
    def test_coprime_ratio_keeps_constant(self):
        # up = 8009 exceeds the 4005 outputs: every phase has one output sample
        s = Signal(np.full(4000, 0.5), 8000)
        out = resample(s, 8009)
        assert out.rate == 8009
        assert abs(len(out) - 4005) <= 1
        assert np.max(np.abs(out.samples[100:-100] - 0.5)) < 1e-6

    def test_coprime_sinusoid(self):
        t = np.arange(8000) / 8000.0
        s = Signal(np.sin(2 * np.pi * 200.0 * t), 8000)
        out = resample(s, 12007)
        n = 1 << 13
        spec = np.abs(np.fft.rfft(out.samples[:n]))
        peak = np.argmax(spec) * 12007 / n
        assert abs(peak - 200.0) < 12007 / n + 1e-9

    def test_memory_proportional_to_input_and_output(self, rng):
        # no n_out x 64 per-output kernel or gather matrix (about 1 MB each here)
        s = Signal(rng.normal(size=2000), 8000)
        tracemalloc.start()
        try:
            resample(s, 8009)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBoundaryModesThroughMasking:
    @pytest.mark.parametrize("mode", [PadMode.ZERO, PadMode.SYMMETRIC])
    @pytest.mark.parametrize("cls", [DwtConfig, WptConfig])
    def test_roundtrip(self, rng, mode, cls):
        s = Signal(rng.normal(size=3000), 16000)
        cfg = cls("db5", 4, mode)
        back = reconstruct(decompose(s, cfg))
        err = np.linalg.norm(back.samples - s.samples) / np.linalg.norm(s.samples)
        assert err < 1e-8

    def test_masking_smoke(self, rng):
        cfg = DwtConfig("sym6", 3, PadMode.SYMMETRIC)
        x = Signal(rng.normal(size=2000), 16000)
        y = Signal(rng.normal(size=2000), 16000)
        mixture = Signal(x.samples + y.samples, 16000)
        mask = ideal_binary_mask(decompose(x, cfg), decompose(y, cfg))
        est = reconstruct(apply_mask(decompose(mixture, cfg), mask))
        assert len(est) == 2000
        assert np.all(np.isfinite(est.samples))


def _noise(n=64):
    return Signal(np.random.default_rng(n).normal(size=n), 8000)


def _as_periodic(tf):
    """tf with its config's mode set to "periodic", which is not a PadMode."""
    return dataclasses.replace(tf, config=dataclasses.replace(tf.config, mode="periodic"))


class TestMalformedInputs:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: stft_frequencies(500, 16000), ValueError, "power of two, got 500"),
        (lambda: make_window("hann", 8), ValueError, "unknown window kind 'hann'"),
        (lambda: Signal(np.zeros((2, 4)), 8000), ValueError, "one-dimensional"),
        (lambda: convolve([1.0], [1.0], "valid"), ValueError, "unknown convolution mode"),
        (lambda: pad([1.0], 3, "reflect"), ValueError, "unknown pad mode"),
        (lambda: count_vanishing_moments(lookup("haar"), tol=0), ValueError, "tol must be"),
        (lambda: dwt_step(np.zeros(8), lookup("haar"), "periodic"), ValueError,
         "unsupported boundary mode"),
        (lambda: dwt_step(np.zeros((2, 8)), lookup("haar")), ValueError, "1-D signal"),
        (lambda: idwt_step(np.ones(4), np.ones(4), lookup("haar"), "periodic"),
         ValueError, "unsupported boundary mode"),
        (lambda: waverec(_as_periodic(wavedec(_noise(), DwtConfig("haar", 2)))),
         ValueError, "unsupported boundary mode"),
        (lambda: iwpt(_as_periodic(wpt(_noise(), WptConfig("db2", 2)))),
         ValueError, "unsupported boundary mode"),
        (lambda: dwt_bands(wpt(_noise(), WptConfig("haar", 2))), ValueError,
         "expected a DWT representation"),
        (lambda: wpt(_noise(), WptConfig("haar", 0)), ValueError, r"levels must be in \[1, 6\]"),
        (lambda: wpt(_noise(), WptConfig("haar", 7)), ValueError, r"levels must be in \[1, 6\]"),
        (lambda: ricker_kernel(0), ValueError, "scale must be positive"),
        (lambda: cwt_ricker(_noise(), []), ValueError, "need at least one scale"),
        (lambda: decompose(_noise(), "stft"), TypeError, "unknown decomposition config"),
        (lambda: reconstruct(dataclasses.replace(wavedec(_noise(), DwtConfig("haar", 1)),
                                                 config=None)),
         TypeError, "unknown decomposition config"),
        (lambda: emit_report(ExperimentReport((ReportRow("stft", "x", 1.0, 0.0, 0.0, 0.0, 0.1,
                                                         1, "ok"),)), "xml", "never.xml"),
         ValueError, "unknown report format 'xml'"),
    ], ids=["stft-frequencies-size", "window-kind", "signal-2d",
            "convolve-mode", "pad-mode", "moments-tol", "dwt-step-periodic", "dwt-step-2d",
            "idwt-step-periodic", "waverec-periodic", "iwpt-periodic", "dwt-bands-of-wpt",
            "wpt-no-levels", "wpt-too-many-levels", "ricker-scale", "cwt-no-scales",
            "decompose-non-config", "reconstruct-non-config", "report-format"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_istft_rejects_wrong_row_count(self, rng):
        cfg = StftConfig(WindowKind.HANN, 64, 32)
        m = stft(Signal(rng.normal(size=500), 8000), cfg)
        with pytest.raises(ValueError):
            istft(dataclasses.replace(m, coeffs=m.coeffs[:-1]))

    def test_inverses_reject_another_transforms_coefficients(self, rng):
        s = Signal(rng.normal(size=512), 8000)
        tfs = {"stft": stft(s, StftConfig(WindowKind.HANN, 64, 32)),
               "dwt": wavedec(s, DwtConfig("haar", 3)), "wpt": wpt(s, WptConfig("haar", 3))}
        inverses = {"stft": istft, "dwt": waverec, "wpt": iwpt}
        for name, inverse in inverses.items():
            for other, tf in tfs.items():
                if other != name:
                    with pytest.raises(ValueError, match="representation"):
                        inverse(tf)

    def test_idwt_step_rejects_length_mismatch(self):
        bank = lookup("haar")
        with pytest.raises(ValueError):
            idwt_step(np.zeros(4), np.zeros(5), bank)

    @pytest.mark.parametrize("bands, name, mode, length, message", [
        (np.ones((3, 4)), "haar", PadMode.PERIODIZATION, None, "1-D bands"),
        (np.ones(4), "haar", PadMode.PERIODIZATION, 100, r"length must be in \[1, 8\]"),
        (np.ones(4), "haar", PadMode.PERIODIZATION, -3, r"length must be in \[1, 8\]"),
        (np.ones(4), "haar", PadMode.ZERO, 0, r"length must be in \[1, 8\]"),
        (np.ones(2), "db4", PadMode.ZERO, None, r"length must be in \[1, -2\]"),
    ], ids=["2-d", "too-long", "negative", "zero", "bands-shorter-than-filter"])
    def test_idwt_step_rejects_what_it_cannot_invert(self, bands, name, mode, length, message):
        with pytest.raises(ValueError, match=message):
            idwt_step(bands, bands, lookup(name), mode, length)

    @pytest.mark.parametrize("shape", [(8, 100), (16, 125), (4, 125), (1000,)])
    def test_iwpt_rejects_coefficients_of_another_shape(self, rng, shape):
        tf = wpt(Signal(rng.normal(size=1000), 8000), WptConfig("db2", 3))
        assert tf.coeffs.shape == (8, 125)
        with pytest.raises(ValueError, match=r"expected WPT coefficients of shape \(8, 125\)"):
            iwpt(dataclasses.replace(tf, coeffs=np.zeros(shape)))

    @pytest.mark.parametrize("frames", [10, 32, 34])
    def test_istft_rejects_another_frame_count(self, rng, frames):
        m = stft(Signal(rng.normal(size=500), 8000), StftConfig(WindowKind.HANN, 32, 16))
        assert m.coeffs.shape == (17, 33)
        with pytest.raises(ValueError, match=r"shape \(17, 33\), got \(17, %d\)" % frames):
            istft(dataclasses.replace(m, coeffs=np.zeros((17, frames), dtype=complex)))

    def test_dwt_bands_rejects_wrong_size(self, rng):
        coeffs = wavedec(Signal(rng.normal(size=64), 8000), DwtConfig("db2", 2))
        with pytest.raises(ValueError):
            dwt_bands(dataclasses.replace(coeffs, coeffs=np.zeros(65)))

    def test_filter_bank_requires_equal_lengths(self):
        from tfsep.wavelet import WaveletFilterBank
        with pytest.raises(ValueError):
            WaveletFilterBank("odd", np.ones(4), np.ones(3), np.ones(4), np.ones(4))
        with pytest.raises(ValueError, match="even"):  # the synthesis windows pair taps
            WaveletFilterBank("odd", np.ones(3), np.ones(3), np.ones(3), np.ones(3))


class TestGridExtras:
    def test_grid_file_mode_override(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"wavelet": {"families": ["db3"], "levels": [2], "mode": "zero"}}))
        (entry,) = load_grid_file(path)
        assert "zero" in entry.params
        from tfsep.harness import build_config
        cfg = build_config(entry, 16000)
        assert cfg.mode is PadMode.ZERO

    def test_sort_by_time_ascends(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        grid = [stft_entry("hann", 32.0, 16.0), wavelet_entry("dwt", "db4", 3)]
        report = grid_search(corpus, grid, n_mixtures=1, seed=1, sort_by="time_s")
        times = [row.time_s for row in report.rows]
        assert times == sorted(times)

    def test_unknown_sort_key_rejected(self, small_corpus):
        corpus = SpeakerCorpus.from_dir(small_corpus)
        with pytest.raises(ValueError):
            grid_search(corpus, [stft_entry("hann", 32.0, 16.0)],
                        n_mixtures=1, sort_by="loudness")


class TestRoundTripProperties:
    @given(st.integers(120, 900), st.sampled_from(["haar", "db4", "sym8", "coif2"]),
           st.sampled_from(list(PadMode)), st.integers(0, 2 ** 32 - 1))
    def test_wavedec_inverts(self, n, family, mode, seed):
        gen = np.random.default_rng(seed)
        s = Signal(gen.normal(size=n), 8000)
        levels = min(3, int(np.log2(n)))
        back = waverec(wavedec(s, DwtConfig(family, levels, mode))).samples
        assert np.max(np.abs(back - s.samples)) < 1e-8

    @given(st.integers(100, 2000), st.integers(3, 7), st.integers(0, 2 ** 32 - 1))
    def test_stft_inverts(self, n, log_win, seed):
        gen = np.random.default_rng(seed)
        win = 1 << log_win
        cfg = StftConfig(WindowKind.HANN, win, win // 2)
        s = Signal(gen.normal(size=n), 8000)
        back = istft(stft(s, cfg))
        err = np.linalg.norm(back.samples - s.samples) / np.linalg.norm(s.samples)
        assert err < 1e-6
