"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers (run with `pytest tests/test_acceptance.py -v -s`).
"""
import json
import math
import time

import numpy as np
import pytest

from tfsep.cli import main as cli_main
from tfsep.fourier import StftConfig, WindowKind, fft, stft, istft, stft_frequencies
from tfsep.harness import SpeakerCorpus, make_mixture, run_ibm_trial
from tfsep.masking import DwtConfig, WptConfig
from tfsep.metrics import mse, si_sdr, snr, stoi
from tfsep.signal import PadMode, Signal
from tfsep.wavelet import (WaveletFilterBank, available_families, central_frequency,
                           count_vanishing_moments, dwt_step, gray_permutation,
                           iwpt, lookup, max_level, scale_to_frequency, verify_pr,
                           wavedec, waverec, wpt)

REPRESENTATIVE_FAMILIES = ("haar", "db4", "sym8", "coif5")


def _report(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion:02d}: PASS - {message}")


@pytest.fixture(scope="module")
def probe_signals(recordings):
    gen = np.random.default_rng(2024)
    signals = []
    for _ in range(50):
        n = int(gen.integers(900, 4100))
        rate = int(gen.choice([8000, 16000]))
        signals.append(Signal(0.3 * gen.normal(size=n), rate))
    return signals + list(recordings)


def test_criterion_01_transform_roundtrips(probe_signals):
    start = time.perf_counter()
    worst = {"stft": 0.0, "dwt": 0.0, "wpt": 0.0}

    hops = (0.25, 0.5, 0.75)
    sizes_ms = (5.0, 10.0, 16.0, 25.0, 32.0, 50.0, 100.0, 120.0)
    for sig in probe_signals:
        norm = np.linalg.norm(sig.samples)
        for window in (WindowKind.HANN, WindowKind.RECTANGULAR):
            for size_ms in sizes_ms:
                for hop_frac in hops:
                    win = int(size_ms / 1000.0 * sig.rate)
                    cfg = StftConfig(window, win, max(1, round(hop_frac * win)))
                    back = istft(stft(sig, cfg))
                    err = np.linalg.norm(back.samples - sig.samples) / norm
                    worst["stft"] = max(worst["stft"], err)
                    assert err < 1e-6, (window, size_ms, hop_frac, sig.rate, err)

    for sig in probe_signals:
        norm = np.linalg.norm(sig.samples)
        depth = min(6, max_level(len(sig)))
        for name in available_families():
            back = waverec(wavedec(sig, DwtConfig(name, depth)))
            err = np.linalg.norm(back.samples - sig.samples) / norm
            worst["dwt"] = max(worst["dwt"], err)
            assert err < 1e-8, ("dwt", name, err)
            back = iwpt(wpt(sig, WptConfig(name, depth)))
            err = np.linalg.norm(back.samples - sig.samples) / norm
            worst["wpt"] = max(worst["wpt"], err)
            assert err < 1e-8, ("wpt", name, err)
        for name in REPRESENTATIVE_FAMILIES:
            for levels in range(1, depth + 1):
                for mode in (PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC):
                    back = waverec(wavedec(sig, DwtConfig(name, levels, mode)))
                    assert np.linalg.norm(back.samples - sig.samples) / norm < 1e-8
                    back = iwpt(wpt(sig, WptConfig(name, levels, mode)))
                    assert np.linalg.norm(back.samples - sig.samples) / norm < 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"round-trip sweep took {elapsed:.1f}s"
    _report(1, f"48 STFT configs + 57 banks on 53 signals; worst rel err "
               f"stft={worst['stft']:.2e} dwt={worst['dwt']:.2e} "
               f"wpt={worst['wpt']:.2e}; {elapsed:.1f}s")


def test_criterion_02_stft_frequency_axis():
    f = stft_frequencies(512, 16000)
    assert f.size == 257
    assert np.array_equal(f, np.arange(257) * 31.25)
    assert f[-1] == 8000.0
    f = stft_frequencies(128, 4000)
    assert f.size == 65
    assert np.array_equal(f, np.arange(65) * 31.25)
    assert f[-1] == 2000.0
    _report(2, "257 bins at 31.25 Hz spacing up to 8 kHz; 65 bins up to 2 kHz")


def test_criterion_03_fft_against_brute_force_dft():
    gen = np.random.default_rng(31)
    worst = 0.0
    n = 2
    while n <= 1024:
        x = gen.normal(size=n) + 1j * gen.normal(size=n)
        k = np.arange(n)
        oracle = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
        worst = max(worst, float(np.max(np.abs(fft(x) - oracle))))
        n *= 2
    assert worst <= 1e-9
    _report(3, f"N in {{2..1024}}, worst abs deviation {worst:.2e}")


def test_criterion_04_perfect_reconstruction_checks():
    for name in available_families():
        check = verify_pr(lookup(name), 1e-8)
        assert check.ok, (name, check)
    haar = lookup("haar")
    tampered = haar.dec_hi.copy()
    tampered[0] *= 1.01
    broken = WaveletFilterBank("haar-1pct", haar.dec_lo, tampered,
                               haar.rec_lo, haar.rec_hi)
    assert not verify_pr(broken, 1e-8).ok
    _report(4, f"all {len(available_families())} banks pass at 1e-8; "
               "1%-perturbed haar fails")


def test_criterion_05_vanishing_moments():
    for p in range(1, 9):
        assert count_vanishing_moments(lookup(f"db{p}"), max_p=25) == p
        if p >= 2:
            assert count_vanishing_moments(lookup(f"sym{p}"), max_p=25) == p
    n = 512
    t = np.linspace(0.0, 1.0, n)
    for p in range(1, 9):
        for name in ([f"db{p}"] + ([f"sym{p}"] if p >= 2 else [])):
            bank = lookup(name)
            poly = np.polynomial.polynomial.polyval(
                t, np.linspace(1.0, 2.0, p))
            _, detail = dwt_step(poly, bank)
            interior = detail[: (n - len(bank)) // 2]
            bound = 1e-6 * np.linalg.norm(poly)
            assert np.max(np.abs(interior)) <= bound, name
    _report(5, "db1-8 / sym2-8 report exact moment counts; degree-(p-1) "
               "polynomials annihilated below 1e-6 * ||input||")


def test_criterion_06_gray_code_ordering():
    g = gray_permutation(3)
    assert g.tolist() == [0, 1, 3, 2, 7, 6, 4, 5]
    assert np.argsort(g).tolist() == [0, 1, 3, 2, 6, 7, 5, 4]
    rate, n = 16000, 65536
    t = np.arange(n) / rate
    sweep = np.sin(2 * np.pi * (rate / 2.0) / (2 * t[-1]) * t * t)
    leaves = wpt(Signal(sweep, rate), WptConfig("sym8", 5))
    kernel = np.ones(9) / 9.0
    ridge = [int(np.argmax(np.convolve(row ** 2, kernel, mode="same")))
             for row in leaves.coeffs]
    assert np.all(np.diff(ridge) > 0)
    _report(6, "recurrence indices and inverse match; chirp ridge strictly "
               "increasing over 32 frequency-ordered leaves")


def test_criterion_07_central_frequency():
    cf = central_frequency("sym8")
    assert abs(cf - 0.666) <= 0.01
    f5 = scale_to_frequency("sym8", 2 ** 4, 16000)
    f6 = scale_to_frequency("sym8", 2 ** 5, 16000)
    assert abs(f5 - 666.0) <= 10.0
    assert abs(f6 - 333.0) <= 5.0
    _report(7, f"sym8 cf={cf:.4f} cycles/sample; {f5:.0f} Hz and {f6:.0f} Hz "
               "at dyadic scales 16 and 32")


def test_criterion_08_metric_identities(speech_signal):
    gen = np.random.default_rng(8)
    s = gen.normal(size=2048)
    s_hat = s + 0.2 * gen.normal(size=2048)
    base = si_sdr(s, s_hat)
    for beta in (0.25, 0.9, 4.0, -2.0):
        assert abs(si_sdr(s, beta * s_hat) - base) <= 1e-9
    for alpha in (0.5, 0.9, 1.1, 2.0):
        expected = -20.0 * math.log10(abs(1.0 - alpha))
        assert abs(snr(s, alpha * s) - expected) <= 1e-9
    clean = speech_signal.samples
    assert abs(stoi(clean, clean, speech_signal.rate) - 1.0) <= 1e-9
    assert mse(s, s) == 0.0
    _report(8, "si_sdr scale-invariant to 1e-9 dB; snr gain law to 1e-9; "
               "stoi(s,s)=1; mse(s,s)=0")


def test_criterion_09_separation_benchmark(benchmark_corpus):
    start = time.perf_counter()
    corpus = SpeakerCorpus.from_dir(benchmark_corpus)
    seeds = [int(s) for s in np.random.SeedSequence(7).generate_state(10)]
    mixtures = [make_mixture(corpus, 2, s) for s in seeds]
    assert mixtures[0].mixture.rate == 16000

    win = int(0.050 * 16000)
    configs = {
        "stft": StftConfig(WindowKind.HANN, win, win // 2),
        "dwt": DwtConfig("sym8", 6),
        "wpt": WptConfig("sym8", 6),
    }
    means = {}
    for label, cfg in configs.items():
        scores = [run_ibm_trial(mix, cfg) for mix in mixtures]
        means[label] = {
            "stoi": float(np.mean([sc.stoi for sc in scores])),
            "si_sdr": float(np.mean([sc.si_sdr for sc in scores])),
            "time": float(np.mean([sc.time_s for sc in scores])),
        }

    assert means["stft"]["stoi"] >= 0.90
    assert means["stft"]["si_sdr"] >= 10.0
    assert means["wpt"]["stoi"] >= 0.90
    assert means["wpt"]["si_sdr"] >= 9.0
    assert means["dwt"]["stoi"] >= 0.85
    # trend contracts
    assert means["wpt"]["stoi"] > means["dwt"]["stoi"]
    assert means["dwt"]["time"] < means["stft"]["time"]
    assert means["dwt"]["time"] < means["wpt"]["time"]

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(9, "; ".join(
        f"{k}: STOI={v['stoi']:.3f} SI-SDR={v['si_sdr']:.1f}dB t={v['time'] * 1e3:.0f}ms"
        for k, v in means.items()) + f"; {elapsed:.0f}s")


def test_criterion_10_experiment_determinism(small_corpus, tmp_path):
    grid = {
        "stft": {"windows": ["hann"], "sizes_ms": [32, 50], "hop_fractions": [0.5]},
        "wavelet": {"families": ["sym8"], "levels": [4]},
        "wpt": {"families": ["sym8"], "levels": [4]},
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))

    outputs = []
    for i, jobs in enumerate(("1", "1", "8")):
        out = tmp_path / f"run{i}.csv"
        code = cli_main(["experiment", "--corpus", str(small_corpus),
                         "--mixtures", "3", "--seed", "99", "--grid", str(grid_path),
                         "--out", str(out), "--jobs", jobs])
        assert code == 0
        outputs.append(out.read_bytes())

    def drop_time(raw: bytes) -> bytes:
        rows = [line.split(b",") for line in raw.strip().split(b"\n")]
        return b"\n".join(b",".join(cells[:6] + cells[7:]) for cells in rows)

    assert drop_time(outputs[0]) == drop_time(outputs[1])
    assert drop_time(outputs[0]) == drop_time(outputs[2])
    _report(10, "byte-identical reports (minus time_s) across reruns and "
                "thread counts 1 and 8")
