import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfsep import fourier
from tfsep.fourier import (StftConfig, WindowKind, _fft_core, _irfft, _rfft, export_heatmap,
                           fft, ifft, istft, make_window, stft, stft_frequencies)
from tfsep.harness import build_config, stft_entry
from tfsep.signal import Signal


def brute_dft(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


class TestFft:
    def test_impulse_flat_spectrum(self):
        assert np.allclose(fft([1, 0, 0, 0]), np.ones(4))

    def test_constant_is_dc(self):
        out = fft(np.full(8, 0.5))
        assert np.isclose(out[0], 4.0)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_alternating_sign_hits_nyquist_bin(self):
        x = (-1.0) ** np.arange(8)
        out = fft(x)
        oracle = brute_dft(x)
        assert np.allclose(out, oracle, atol=1e-12)
        energy = np.abs(out) ** 2
        assert np.argmax(energy) == 4
        assert np.isclose(energy[4], np.sum(energy))

    def test_matches_brute_force(self, rng):
        for n in (2, 4, 16, 128, 1024):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.max(np.abs(fft(x) - brute_dft(x))) < 1e-9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft(np.zeros(12))
        with pytest.raises(ValueError):
            ifft(np.zeros(3))

    @given(st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
    def test_ifft_inverts(self, log_n, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=1 << log_n) + 1j * gen.normal(size=1 << log_n)
        back = ifft(fft(x))
        assert np.max(np.abs(back - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


class TestTwiddles:
    def test_one_table_per_fft_core_call(self, rng, monkeypatch):
        calls = []
        table = fourier._twiddles
        monkeypatch.setattr(fourier, "_twiddles", lambda m, sign: calls.append(m) or table(m, sign))
        for log_n in range(13):
            n = 1 << log_n
            x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            for sign in (-1.0, 1.0):
                calls.clear()
                _fft_core(x, sign)
                assert calls == [max(1, n // 2)], (n, calls)

    def test_every_stage_column_is_a_strided_view_bit_for_bit(self):
        # the premise of the one table: a stage's own column and the table's every
        # (m / s)th entry are the same numbers
        for sign in (-1.0, 1.0):
            for log_m in range(17):
                m = 1 << log_m
                table = fourier._twiddles(m, sign)
                for log_s in range(log_m + 1):
                    s = 1 << log_s
                    assert np.array_equal(table[::m // s], fourier._twiddles(s, sign)), (m, s)


class TestNoStateLeft:
    def test_transforms_hold_no_memory_afterwards(self):
        rows = [np.random.default_rng(e).normal(size=(3, 1 << e)) for e in range(1, 17)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for x in rows:
                n = x.shape[-1]
                fft(x)
                ifft(x)
                next(_irfft(_rfft(x, n, window=1.0), n))
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held <= 64 << 10


class TestScratch:
    # a 940 x 256 batch (12 s of STOI's 10 kHz frames) and a 751 x 128 batch: beyond
    # its output the core holds its two chunk buffers (512 KiB), its twiddle table
    # and numpy's broadcasting buffers, about 0.8 MiB in all
    @pytest.mark.parametrize("rows, n", [(940, 256), (751, 128)])
    def test_fft_core_scratch_beyond_output(self, rng, rows, n):
        x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _fft_core(x, -1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1 << 20

    @pytest.mark.parametrize("shape", [(3, 8), (2 * (1 << 14) // 256 + 3, 256), (5, 1 << 15)])
    def test_fft_core_over_its_own_rows(self, rng, shape):
        # stft and istft transform in place, in strided views, across several chunks
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for sign in (-1.0, 1.0):
            buf = np.zeros((shape[0], shape[1] + 1), dtype=np.complex128)
            rows = buf[:, :-1]
            rows[...] = x
            _fft_core(rows, sign, out=rows)
            ref = _fft_core(x, sign)
            assert np.array_equal(rows.view(np.float64), ref.view(np.float64))
            assert np.all(buf[:, -1] == 0)

    # 12 s at 8 kHz under the default grid's densest STFT (5 ms hann window,
    # 1.25 ms hop) and a rectangular 5 ms window at hop == window. stft windows
    # the frames straight into its result's buffer and transforms there, so it
    # holds about 0.3x its result besides it (the padded signal, the chunk
    # buffers, one row block), 1.2x at hop == window, where the result has a
    # quarter as many frames. istft inverts one FFT chunk of frames at a time:
    # one chunk's transform buffer and the FFT's chunk pair, which also holds the
    # mirror term, plus numpy's per-call ufunc buffers and the window-square
    # sums of a few frames, about 1.1 MiB at any length: 0.23x and 0.94x its
    # input here (0.29x and 0.94x with blocks of an eighth of the frames, 1.14x
    # and 1.65x with a transform buffer for every frame and signal-long sums).
    def test_stft_and_istft_scratch_beyond_output(self, rng):
        s = Signal(rng.normal(size=12 * 8000), 8000)
        for kind, hop_ms, stft_bound, istft_bound in [("hann", 1.25, 0.5, 0.26),
                                                      ("rectangular", 5.0, 1.5, 1.05)]:
            cfg = build_config(stft_entry(kind, 5.0, hop_ms), 8000)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tf = stft(s, cfg)
                stft_peak = tracemalloc.get_traced_memory()[1] - start
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                back = istft(tf)
                istft_peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            size = tf.coeffs.nbytes
            assert stft_peak - size <= stft_bound * size, (kind, stft_peak / size)
            assert istft_peak - back.samples.nbytes <= istft_bound * size, (kind, istft_peak / size)

    def test_istft_scratch_does_not_grow_with_the_signal(self, rng):
        # 1187 KiB beyond the output at 12 s and at 60 s; 511 KiB more at 60 s
        # with blocks of an eighth of the frames
        cfg = StftConfig(WindowKind.HANN, 512, 256)
        scratch = []
        for seconds in (12, 60):
            tf = stft(Signal(rng.normal(size=seconds * 8000), 8000), cfg)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                back = istft(tf)
                scratch.append(tracemalloc.get_traced_memory()[1] - start - back.samples.nbytes)
            finally:
                tracemalloc.stop()
        assert abs(scratch[1] - scratch[0]) <= 64 << 10, scratch


class TestInputsUntouched:
    """The transforms only read their input: it stays bit-unchanged and shares
    no memory with the output."""

    @pytest.mark.parametrize("shape", [(1,), (2,), (512,), (5, 8), (3, 1 << 14)])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_complex_transforms(self, rng, shape, dtype):
        x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype == np.complex128 else 0)
        assert x.dtype == dtype
        for layout in (x, np.asfortranarray(x)):
            before = layout.tobytes()
            for transform in (fft, ifft, lambda v: _fft_core(v, -1.0), lambda v: _fft_core(v, 1.0)):
                out = transform(layout)
                assert layout.tobytes() == before
                assert not np.shares_memory(out, layout)

    @pytest.mark.parametrize("n, width", [(2, 2), (16, 9), (512, 400), (1 << 14, 1 << 14)])
    def test_rfft(self, rng, n, width):
        for frames in (rng.normal(size=(4, width)), np.asfortranarray(rng.normal(size=(4, width)))):
            before = frames.tobytes()
            out = _rfft(frames, n, window=1.0)
            assert frames.tobytes() == before
            assert not np.shares_memory(out, frames)
            for spec in (out, np.asfortranarray(out)):   # _irfft divides its result in place
                spectrum = spec.tobytes()
                for back in _irfft(spec, n):
                    assert not np.shares_memory(back, spec)
                assert spec.tobytes() == spectrum

    def test_stft(self, rng):
        s = Signal(rng.normal(size=4001), 8000)
        before = s.samples.tobytes()
        for cfg in (StftConfig(WindowKind.HANN, 256, 64),
                    StftConfig(WindowKind.RECTANGULAR, 100, 100)):
            tf = stft(s, cfg)
            assert s.samples.tobytes() == before
            assert not np.shares_memory(tf.coeffs, s.samples)
            for coeffs in (tf.coeffs, np.ascontiguousarray(tf.coeffs)):   # istft too
                spectrum = coeffs.tobytes()
                back = istft(replace(tf, coeffs=coeffs))
                assert coeffs.tobytes() == spectrum
                assert not np.shares_memory(back.samples, coeffs)


class TestWindows:
    def test_hann_small(self):
        assert np.allclose(make_window(WindowKind.HANN, 4), [0, 0.5, 1, 0.5])

    def test_rectangular(self):
        assert np.array_equal(make_window(WindowKind.RECTANGULAR, 7), np.ones(7))

    def test_hann_midpoint_is_one(self):
        for n in (8, 64, 256):
            assert make_window(WindowKind.HANN, n)[n // 2] == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_window(WindowKind.HANN, 1)


class TestStftConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StftConfig(WindowKind.HANN, 512, 0)
        with pytest.raises(ValueError):
            StftConfig(WindowKind.HANN, 512, 600)
        with pytest.raises(ValueError, match="win_size >= 2"):
            StftConfig(WindowKind.RECTANGULAR, 1, 1)

    @given(st.integers(2, 1 << 24))
    def test_fft_size_is_the_next_power_of_two(self, win):
        nfft = StftConfig(WindowKind.HANN, win, 1).fft_size
        assert nfft & (nfft - 1) == 0 and win <= nfft < 2 * win


class TestStft:
    def test_one_minute_recording_shape(self, rng):
        s = Signal(0.1 * rng.normal(size=959669), 16000)
        m = stft(s, StftConfig(WindowKind.HANN, 512, 256))
        assert m.coeffs.shape[0] == 257
        assert abs(m.coeffs.shape[1] - 3750) <= 2

    def test_frequency_axis(self):
        f = stft_frequencies(512, 16000)
        assert f.size == 257
        assert f[0] == 0.0
        assert np.array_equal(f, np.arange(257) * 31.25)

    def test_bin_centered_sinusoid_single_row(self):
        # rectangular window, frequency exactly on bin 8 of a 128-point frame
        rate, nfft = 4000, 128
        t = np.arange(1024)
        x = np.cos(2 * np.pi * 8 * t / nfft)
        m = stft(Signal(x, rate), StftConfig(WindowKind.RECTANGULAR, nfft, nfft))
        # drop edge frames that see the zero padding
        interior = np.abs(m.coeffs[:, 1:-1])
        energy_by_row = (interior ** 2).sum(axis=1)
        assert np.argmax(energy_by_row) == 8
        others = np.delete(energy_by_row, 8)
        assert others.max() < 1e-18 * energy_by_row[8]

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(Signal(np.zeros(0), 8000), StftConfig(WindowKind.HANN, 16, 8))

    @pytest.mark.parametrize("cfg", [
        # a 1e9 ms window (1.6e10 samples), and a 1-sample hop under a 2^20 window:
        # their complex frame matrices would take 512 GiB and 250 GiB
        build_config(stft_entry("hann", 1e9, 5e8), 16000),
        StftConfig(WindowKind.RECTANGULAR, 1 << 20, 1)])
    def test_oversized_frame_matrix_rejected_before_allocating(self, cfg):
        s = Signal(np.zeros(16000), 16000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="frames x"):
                stft(s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_linearity(self, rng):
        cfg = StftConfig(WindowKind.HANN, 64, 32)
        x = Signal(rng.normal(size=1000), 8000)
        y = Signal(rng.normal(size=1000), 8000)
        a, b = 0.7, -1.3
        combo = stft(Signal(a * x.samples + b * y.samples, 8000), cfg)
        parts = a * stft(x, cfg).coeffs + b * stft(y, cfg).coeffs
        assert np.max(np.abs(combo.coeffs - parts)) < 1e-9 * max(1, np.abs(parts).max())

    def test_frame_parseval(self, rng):
        n = 256
        frame = rng.normal(size=n) * make_window(WindowKind.HANN, n)
        spec = fft(frame)
        time_e = np.sum(frame ** 2)
        freq_e = np.sum(np.abs(spec) ** 2) / n
        assert abs(time_e - freq_e) < 1e-9 * time_e


class TestIstft:
    @pytest.mark.parametrize("window,win,hop", [
        (WindowKind.HANN, 512, 256),
        (WindowKind.HANN, 512, 128),
        (WindowKind.RECTANGULAR, 512, 512),
        (WindowKind.HANN, 320, 80),
    ])
    def test_roundtrip_white_noise(self, rng, window, win, hop):
        s = Signal(rng.normal(size=7919), 16000)
        cfg = StftConfig(window, win, hop)
        back = istft(stft(s, cfg))
        assert back.rate == s.rate and len(back) == len(s)
        err = np.linalg.norm(back.samples - s.samples) / np.linalg.norm(s.samples)
        assert err < 1e-6

    def test_non_covering_configuration_rejected(self, rng):
        # periodic Hann with hop == win leaves w[0] = 0 gaps
        s = Signal(rng.normal(size=4096), 8000)
        m = stft(s, StftConfig(WindowKind.HANN, 512, 512))
        with pytest.raises(ValueError):
            istft(m)

    def test_speech_roundtrip(self, speech_signal):
        cfg = build_config(stft_entry("hann", 32.0, 16.0), speech_signal.rate)
        back = istft(stft(speech_signal, cfg))
        err = (np.linalg.norm(back.samples - speech_signal.samples)
               / np.linalg.norm(speech_signal.samples))
        assert err < 1e-6


class TestHeatmapExport:
    def test_two_by_two_pixels(self, tmp_path):
        pgm = tmp_path / "m.pgm"
        export_heatmap(np.array([[0.0, 1.0], [1.0, 0.0]]), pgm)
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(raw[-4:], dtype=np.uint8).reshape(2, 2)
        # bottom PGM row is matrix row 0
        assert pixels[::-1].tolist() == [[0, 255], [255, 0]]

    def test_all_zero_guard(self, tmp_path):
        pgm = tmp_path / "z.pgm"
        export_heatmap(np.zeros((3, 5)), pgm)
        raw = pgm.read_bytes()
        assert set(raw[-15:]) == {0}

    def test_csv_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(4, 9))
        pgm = tmp_path / "r.pgm"
        export_heatmap(matrix, pgm, tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            parsed = np.array([[float(v) for v in row] for row in csv.reader(fh)])
        assert np.max(np.abs(parsed - matrix)) < 1e-9
        assert b"\r" not in (tmp_path / "r.csv").read_bytes()   # LF rows, as decompose writes

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_heatmap(np.array([[np.nan, 1.0]]), tmp_path / "bad.pgm")
