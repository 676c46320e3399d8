import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfsep._filter_tables import WAVELET_MOMENTS
from tfsep.signal import PadMode, Signal
from tfsep.wavelet import (DwtConfig, WaveletFilterBank, WptConfig, available_families,
                           central_frequency, count_vanishing_moments, cqf_highpass,
                           cwt_ricker, dwt_bands, dwt_heatmap_matrix, dwt_step,
                           gray_permutation, idwt_step, iwpt, lookup, max_level,
                           qmf_highpass, scale_to_frequency, verify_pr, wavedec, waverec,
                           wpt)
from tfsep.wavelet import _CASCADE_ITERATIONS, _upsample_by

ALL_MODES = [PadMode.PERIODIZATION, PadMode.ZERO, PadMode.SYMMETRIC]
SQRT2 = np.sqrt(2.0)


class TestRegistry:
    def test_haar_filters(self):
        bank = lookup("haar")
        assert np.allclose(bank.dec_lo, [1 / SQRT2, 1 / SQRT2])
        assert np.allclose(np.abs(bank.dec_hi), [1 / SQRT2, 1 / SQRT2])
        assert np.isclose(np.sum(bank.dec_hi), 0.0)

    def test_db4_has_eight_taps(self):
        assert len(lookup("db4")) == 8

    def test_sym8_registered(self):
        assert len(lookup("sym8")) == 16

    def test_family_count(self):
        fams = available_families()
        assert len(fams) == 57  # haar + db1..20 + sym2..20 + coif1..17
        assert {"haar", "db20", "sym20", "coif17"} <= set(fams)

    def test_unknown_name_lists_families(self):
        with pytest.raises(ValueError, match="haar"):
            lookup("morl")

    def test_registered_moments_are_measured(self):
        for name in available_families():
            expected = WAVELET_MOMENTS[name]
            measured = count_vanishing_moments(lookup(name), max_p=expected)
            assert measured == expected, name


class TestQmfCqf:
    def test_qmf_alternates_signs(self):
        assert qmf_highpass([1.0, 2.0, 3.0]).tolist() == [1.0, -2.0, 3.0]

    def test_cqf_of_haar_lowpass(self):
        g = cqf_highpass([1 / SQRT2, 1 / SQRT2])
        assert np.allclose(g, [1 / SQRT2, -1 / SQRT2])
        assert np.allclose(g, lookup("haar").rec_hi)

    def test_cqf_twice_restores_up_to_sign(self):
        for name in ("db3", "sym6", "coif2"):
            h = lookup(name).rec_lo
            twice = cqf_highpass(cqf_highpass(h))
            assert np.allclose(twice, h) or np.allclose(twice, -h)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qmf_highpass([])
        with pytest.raises(ValueError, match="empty filter"):
            cqf_highpass([])


class TestPerfectReconstruction:
    def test_haar_passes(self):
        check = verify_pr(lookup("haar"), 1e-8)
        assert check.ok and check.delay >= 0

    def test_every_registered_bank_passes(self):
        for name in available_families():
            check = verify_pr(lookup(name), 1e-8)
            assert check.ok, (name, check)

    def test_perturbed_haar_fails(self):
        haar = lookup("haar")
        broken = haar.dec_hi.copy()
        broken[0] += 0.01
        bank = WaveletFilterBank("broken", haar.dec_lo, broken, haar.rec_lo,
                                 haar.rec_hi)
        assert not verify_pr(bank, 1e-8).ok

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_pr(lookup("haar"), 0.0)


class TestDwtStep:
    def test_constant_signal_has_zero_detail(self):
        approx, detail = dwt_step([1, 1, 1, 1], lookup("haar"))
        assert np.allclose(approx, SQRT2)
        assert np.allclose(detail, 0.0)

    def test_alternating_signal_is_pure_detail(self):
        approx, detail = dwt_step([1, -1, 1, -1], lookup("haar"))
        assert np.allclose(approx, 0.0)
        assert np.allclose(np.abs(detail), SQRT2)

    def test_roundtrip_every_bank(self, rng):
        x = rng.normal(size=64)
        for name in available_families():
            bank = lookup(name)
            approx, detail = dwt_step(x, bank)
            back = idwt_step(approx, detail, bank)
            assert np.max(np.abs(back - x)) < 1e-10, name

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("n", [64, 63, 17, 5, 2])
    def test_roundtrip_modes_and_lengths(self, rng, mode, n):
        x = rng.normal(size=n)
        for name in ("haar", "db4", "sym8", "coif3", "db20"):
            bank = lookup(name)
            approx, detail = dwt_step(x, bank, mode)
            back = idwt_step(approx, detail, bank, mode, length=n)
            assert np.max(np.abs(back - x)) < 1e-10, (name, mode, n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dwt_step(np.zeros(0), lookup("haar"))
        for mode in (PadMode.PERIODIZATION, PadMode.ZERO):
            with pytest.raises(ValueError):
                idwt_step([], [], lookup("haar"), mode)

    def test_matches_naive_circular_correlation(self, rng):
        # independent oracle: per-definition loops over the periodized signal
        def naive(x, bank):
            n = x.size
            k = len(bank)
            lo = np.zeros(n // 2)
            hi = np.zeros(n // 2)
            for out in range(n // 2):
                for i in range(k):
                    lo[out] += bank.rec_lo[i] * x[(i + 2 * out) % n]
                    hi[out] += bank.rec_hi[i] * x[(i + 2 * out) % n]
            return lo, hi

        for name in ("haar", "db7", "sym8", "coif4"):
            bank = lookup(name)
            for n in (8, 64, 126):
                x = rng.normal(size=n)
                lo, hi = dwt_step(x, bank)
                lo_ref, hi_ref = naive(x, bank)
                assert np.max(np.abs(lo - lo_ref)) < 1e-12, (name, n)
                assert np.max(np.abs(hi - hi_ref)) < 1e-12, (name, n)


class TestWavedec:
    def test_six_level_band_lengths(self, rng):
        s = Signal(rng.normal(size=65536), 16000)
        approx, *details = dwt_bands(wavedec(s, DwtConfig("sym8", 6)))
        assert [d.size for d in details[::-1]] == [32768, 16384, 8192, 4096, 2048, 1024]
        assert approx.size == 1024

    def test_odd_length_follows_ceil_chain(self, rng):
        s = Signal(rng.normal(size=100), 8000)
        coeffs = wavedec(s, DwtConfig("db2", 3))
        assert [d.size for d in dwt_bands(coeffs)[:0:-1]] == [50, 25, 13]
        back = waverec(coeffs)
        assert np.max(np.abs(back.samples - s.samples)) < 1e-10

    def test_polynomial_annihilation(self):
        n = 512
        t = np.linspace(0.0, 1.0, n)
        for p in range(1, 9):
            bank = lookup(f"db{p}")
            poly = np.polynomial.polynomial.polyval(
                t, np.arange(1, p + 1, dtype=float))
            _, detail = dwt_step(poly, bank)
            interior = detail[: (n - len(bank)) // 2]
            assert np.max(np.abs(interior)) <= 1e-6 * np.linalg.norm(poly), p

    def test_matches_manual_cascade_exactly(self, rng):
        s = Signal(rng.normal(size=4096), 8000)
        bank = lookup("db5")
        coeff_approx, *details = dwt_bands(wavedec(s, DwtConfig("db5", 4)))
        approx = s.samples
        for level in range(4):
            approx, detail = dwt_step(approx, bank)
            assert np.array_equal(detail, details[::-1][level])
        assert np.array_equal(approx, coeff_approx)

    def test_level_bounds(self, rng):
        s = Signal(rng.normal(size=100), 8000)
        with pytest.raises(ValueError):
            wavedec(s, DwtConfig("haar", 0))
        with pytest.raises(ValueError):
            wavedec(s, DwtConfig("haar", max_level(100) + 1))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_roundtrip_all_banks(self, rng, mode):
        s = Signal(rng.normal(size=1024), 8000)
        for name in available_families():
            for levels in (1, 3, 6):
                coeffs = wavedec(s, DwtConfig(name, levels, mode))
                back = waverec(coeffs)
                err = np.max(np.abs(back.samples - s.samples))
                assert err < 1e-8, (name, mode, levels, err)

    def test_energy_preserved_with_periodization(self, rng):
        s = Signal(rng.normal(size=4096), 8000)
        for name in ("haar", "db7", "sym12", "coif4"):
            coeffs = wavedec(s, DwtConfig(name, 5))
            ratio = np.linalg.norm(coeffs.coeffs) / np.linalg.norm(s.samples)
            assert abs(ratio - 1.0) < 1e-8, name


class TestFlatten:
    def test_single_level(self):
        coeffs = wavedec(Signal(np.arange(8.0), 8000), DwtConfig("haar", 1))
        approx, detail = dwt_step(np.arange(8.0), lookup("haar"))
        assert np.array_equal(coeffs.coeffs, np.concatenate([approx, detail]))

    def test_length_conserved(self, rng):
        s = Signal(rng.normal(size=4096), 8000)
        coeffs = wavedec(s, DwtConfig("sym8", 6))
        assert coeffs.coeffs.shape == (4096,)

    def test_dwt_bands_roundtrip(self, rng):
        s = Signal(rng.normal(size=777), 8000)
        bank = lookup("db3")
        coeffs = wavedec(s, DwtConfig("db3", 4))
        approx, *details = dwt_bands(coeffs)
        assert np.array_equal(np.concatenate([approx, *details]), coeffs.coeffs)
        ref = s.samples
        for detail in details[::-1]:
            ref, ref_detail = dwt_step(ref, bank)
            assert np.array_equal(detail, ref_detail)
        assert np.array_equal(approx, ref)


class TestGrayOrdering:
    def test_two_levels(self):
        assert gray_permutation(2).tolist() == [0, 1, 3, 2]

    def test_three_levels_and_inverse(self):
        g = gray_permutation(3)
        assert g.tolist() == [0, 1, 3, 2, 7, 6, 4, 5]
        assert np.argsort(g).tolist() == [0, 1, 3, 2, 6, 7, 5, 4]

    @given(st.integers(0, 12))
    def test_bijection(self, levels):
        g = gray_permutation(levels)
        assert sorted(g.tolist()) == list(range(2 ** levels))

    def test_inverse_composition_is_identity(self):
        for levels in range(9):
            g = gray_permutation(levels)
            assert np.array_equal(g[np.argsort(g)], np.arange(2 ** levels))

    def test_matches_reflected_binary_code(self):
        # inverse permutation must be the classic n ^ (n >> 1) sequence
        for levels in range(1, 11):
            inv = np.argsort(gray_permutation(levels))
            ref = np.array([n ^ (n >> 1) for n in range(2 ** levels)])
            assert np.array_equal(inv, ref)

    def test_equals_the_parity_recurrence(self):
        def recurrence(levels):
            # oracle: G[2j] and G[2j+1] are 2G[j] and 2G[j]+1, swapped when
            # G[j] is odd, starting from G[0] = 0
            g = np.array([0], dtype=np.intp)
            for _ in range(levels):
                even = g % 2 == 0
                out = np.empty(2 * g.size, dtype=np.intp)
                out[0::2] = np.where(even, 2 * g, 2 * g + 1)
                out[1::2] = np.where(even, 2 * g + 1, 2 * g)
                g = out
            return g

        for levels in range(17):
            g = gray_permutation(levels)
            assert g.dtype == np.intp
            assert np.array_equal(g, recurrence(levels)), levels

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gray_permutation(-1)


class TestWpt:
    def test_leaf_geometry(self, rng):
        s = Signal(rng.normal(size=65536), 16000)
        leaves = wpt(s, WptConfig("sym8", 6))
        assert leaves.coeffs.shape == (64, 1024)

    def test_total_coefficients_conserved(self, rng):
        s = Signal(rng.normal(size=1000), 8000)
        leaves = wpt(s, WptConfig("haar", 3))
        assert leaves.coeffs.shape == (8, 125)
        assert leaves.coeffs.size == 1000

    def test_single_level_equals_dwt_step(self, rng):
        x = rng.normal(size=256)
        bank = lookup("db6")
        leaves = wpt(Signal(x, 8000), WptConfig("db6", 1))
        approx, detail = dwt_step(x, bank)
        assert np.array_equal(leaves.coeffs[0], approx)
        assert np.array_equal(leaves.coeffs[1], detail)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_roundtrip(self, rng, mode):
        s = Signal(rng.normal(size=640), 8000)
        for name in ("haar", "db4", "sym8", "coif5", "db20"):
            for levels in (1, 3, 6):
                back = iwpt(wpt(s, WptConfig(name, levels, mode)))
                err = np.max(np.abs(back.samples - s.samples))
                assert err < 1e-8, (name, mode, levels, err)

    def test_rows_are_frequency_ordered(self):
        # a pure tone must concentrate in the leaf row holding its frequency
        rate = 16000
        t = np.arange(16384)
        for freq in (430.0, 1700.0, 3333.0, 6100.0):
            s = Signal(np.sin(2 * np.pi * freq * t / rate), rate)
            leaves = wpt(s, WptConfig("sym8", 5))
            width = rate / 2 / 32
            assert abs(int(np.argmax((leaves.coeffs ** 2).sum(axis=1)))
                       - int(freq // width)) <= 1, freq

    def test_chirp_ridge_is_monotone(self):
        rate = 16000
        n = 65536
        t = np.arange(n) / rate
        sweep = np.sin(2 * np.pi * (rate / 2.0) / (2 * t[-1]) * t * t)  # 0 Hz -> Nyquist
        leaves = wpt(Signal(sweep, rate), WptConfig("sym8", 5))
        energy = leaves.coeffs ** 2
        # smooth each row a little, then track the ridge position
        kernel = np.ones(9) / 9.0
        ridge = [int(np.argmax(np.convolve(row, kernel, mode="same")))
                 for row in energy]
        assert np.all(np.diff(ridge) > 0)

    def test_unregistered_bank_rejected(self, rng):
        # a config names a registered bank; custom banks work at the step level
        s = Signal(rng.normal(size=64), 8000)
        for forward, cls in ((wavedec, DwtConfig), (wpt, WptConfig)):
            with pytest.raises(ValueError, match="unknown wavelet 'mine'"):
                forward(s, cls("mine", 2))

    def test_forwards_keep_their_config(self, rng):
        s = Signal(rng.normal(size=64), 8000)
        for forward, cls in ((wavedec, DwtConfig), (wpt, WptConfig)):
            cfg = cls("db2", 2, PadMode.ZERO)
            assert forward(s, cfg).config is cfg

    def test_config_of_another_kind_rejected(self, rng):
        s = Signal(rng.normal(size=64), 8000)
        with pytest.raises(ValueError, match="expected a DWT representation, got config Wpt"):
            wavedec(s, WptConfig("haar", 2))
        with pytest.raises(ValueError, match="expected a WPT representation, got config Dwt"):
            wpt(s, DwtConfig("haar", 2))


class TestInverseMemory:
    """waverec and iwpt synthesise every level into one pair of flat buffers:
    the interleaved input with its zero margins, and the filter output, which
    waverec's result is a view of. Their tracemalloc peak, result included, on 12 s
    at 16 kHz, as a multiple of the coefficients' size. With a new input,
    output and periodization copy per level they peaked at 5.07x (iwpt,
    coif5, depth 12), 4.02x (iwpt, sym8, depth 6), 3.50x (waverec,
    periodization) and 2.50x (waverec, zero and symmetric)."""

    @staticmethod
    def _peak(inverse, tf):
        inverse(tf)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            inverse(tf)
            return (tracemalloc.get_traced_memory()[1] - start) / tf.coeffs.nbytes
        finally:
            tracemalloc.stop()

    # coif5's 2048 pairs of 47-sample bands at depth 12 carry 58 zeros of
    # margin each: 1.62x in the input buffer and 1.32x in the output (3.09x);
    # sym8's 32 pairs at depth 6 carry little (2.02x)
    @pytest.mark.parametrize("wavelet, levels, bound", [("coif5", 12, 3.2), ("sym8", 6, 2.1)])
    def test_iwpt_peak(self, rng, wavelet, levels, bound):
        tf = wpt(Signal(rng.normal(size=12 * 16000), 16000), WptConfig(wavelet, levels))
        assert self._peak(iwpt, tf) <= bound

    # a deep packet's output buffer holds the first level's margins, 14x the
    # signal here: iwpt's result is a copy that keeps none of it alive
    def test_iwpt_result_holds_only_its_samples(self, rng):
        tf = wpt(Signal(rng.normal(size=16000), 8000), WptConfig("coif17", 12))
        assert iwpt(tf).samples.base is None

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_waverec_peak(self, rng, mode):
        tf = wavedec(Signal(rng.normal(size=12 * 16000), 16000), DwtConfig("sym8", 6, mode))
        assert self._peak(waverec, tf) <= 2.1


class TestCustomBank:
    """A bank outside the registry has no multi-level transform of its own: a
    cascade of dwt_step and idwt_step is one."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_step_cascade_roundtrip(self, rng, mode):
        rec_lo = lookup("db3").rec_lo[::-1]  # time-reversed db3: orthogonal, not registered
        rec_hi = cqf_highpass(rec_lo)
        # named after a registered bank with other filters, so no lookup by name may happen
        bank = WaveletFilterBank("db4", rec_lo[::-1], rec_hi[::-1], rec_lo, rec_hi)
        assert verify_pr(bank).ok and count_vanishing_moments(bank) == 3
        x = rng.normal(size=1000)
        approx, levels = x, []
        for _ in range(3):
            n = approx.size
            approx, detail = dwt_step(approx, bank, mode)
            levels.append((n, detail))
        for n, detail in levels[::-1]:
            approx = idwt_step(approx, detail, bank, mode, length=n)
        assert np.max(np.abs(approx - x)) < 1e-10

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_biorthogonal_roundtrip(self, rng, mode):
        # CDF 5/3 (bior2.2), every filter zero-padded to 6 taps: analysis and
        # synthesis differ, so each step has to apply its own pair
        dec_lo = SQRT2 / 8 * np.array([0, -1, 2, 6, 2, -1])
        dec_hi = SQRT2 / 4 * np.array([0, 1, -2, 1, 0, 0])
        rec_lo = SQRT2 / 4 * np.array([0, 1, 2, 1, 0, 0])
        rec_hi = SQRT2 / 8 * np.array([0, 1, 2, -6, 2, 1])
        bank = WaveletFilterBank("bior2.2", dec_lo, dec_hi, rec_lo, rec_hi)
        assert verify_pr(bank).ok
        x = rng.normal(size=64)
        approx, detail = dwt_step(x, bank, mode)
        assert np.max(np.abs(idwt_step(approx, detail, bank, mode) - x)) < 1e-10

    def test_verify_pr_passes_the_placements_the_steps_invert(self, rng):
        # CDF 5/3 zero-padded to 8 taps, analysis filters from tap a and
        # synthesis filters from tap b: every placement cancels aliasing and
        # has one no-distortion delay, a + b + 3, but the steps invert delay 7 only
        def placed(taps, at):
            out = np.zeros(8)
            out[at:at + len(taps)] = taps
            return out

        x = rng.normal(size=64)
        for a, b in itertools.product(range(4), repeat=2):
            bank = WaveletFilterBank("bior2.2", placed(SQRT2 / 8 * np.array([-1, 2, 6, 2, -1]), a),
                                     placed(SQRT2 / 4 * np.array([1, -2, 1]), a),
                                     placed(SQRT2 / 4 * np.array([1, 2, 1]), b),
                                     placed(SQRT2 / 8 * np.array([1, 2, -6, 2, 1]), b))
            check = verify_pr(bank)
            assert check.ok == (a + b == 4) and check.alias_error < 1e-12, (a, b, check)
            approx, detail = dwt_step(x, bank, PadMode.ZERO)
            err = np.max(np.abs(idwt_step(approx, detail, bank, PadMode.ZERO) - x))
            assert (err < 1e-10) == check.ok, (a, b, err)

    def test_tampered_analysis_does_not_roundtrip(self, rng):
        # criterion 4's bank: verify_pr rejects it, and the steps agree
        haar = lookup("haar")
        tampered = haar.dec_hi.copy()
        tampered[0] *= 1.01
        bank = WaveletFilterBank("haar-1pct", haar.dec_lo, tampered, haar.rec_lo, haar.rec_hi)
        x = rng.normal(size=64)
        approx, detail = dwt_step(x, bank)
        assert np.max(np.abs(idwt_step(approx, detail, bank) - x)) > 1e-3

    def test_analysis_reads_dec_hi(self):
        # no vanishing moment: a constant leaves a detail of the taps' sum
        haar = lookup("haar")
        bank = WaveletFilterBank("unbalanced", haar.dec_lo, np.array([0.75, -0.65]),
                                 haar.rec_lo, haar.rec_hi)
        assert count_vanishing_moments(bank) == 0
        _, detail = dwt_step(np.ones(8), bank)
        assert np.allclose(detail, 0.1)

    def test_registered_analysis_is_reversed_synthesis(self):
        # bit for bit, so the analysis step multiplies by the same taps in the
        # same order as when it read rec_* directly
        for name in available_families():
            bank = lookup(name)
            assert np.array_equal(bank.dec_lo, bank.rec_lo[::-1]), name
            assert np.array_equal(bank.dec_hi, bank.rec_hi[::-1]), name


class TestVanishingMoments:
    def test_haar_has_one(self):
        assert count_vanishing_moments(lookup("haar")) == 1

    def test_db_and_sym_counts(self):
        assert count_vanishing_moments(lookup("db4")) == 4
        assert count_vanishing_moments(lookup("sym8")) == 8

    def test_nonzero_sum_gives_zero(self):
        haar = lookup("haar")
        hi = np.array([0.75, -0.65])  # taps sum to 0.1
        bank = WaveletFilterBank("unbalanced", haar.dec_lo, hi, haar.rec_lo,
                                 haar.rec_hi)
        assert count_vanishing_moments(bank) == 0


def _dense_central_frequency(name):
    """central_frequency as first written: the whole harmonics x samples
    Fourier basis at once (318 MiB for coif17)."""
    bank = lookup(name)
    phi = np.array([1.0])
    for j in range(_CASCADE_ITERATIONS - 1):
        phi = np.convolve(phi, _upsample_by(bank.rec_lo, 1 << j))
    psi = np.convolve(phi, _upsample_by(bank.rec_hi, 1 << (_CASCADE_ITERATIONS - 1)))
    support = len(bank) - 1
    period = support << _CASCADE_ITERATIONS
    harmonics = np.arange(1, 4 * support + 1)
    basis = np.exp(-2j * np.pi * np.outer(harmonics, np.arange(psi.size)) / period)
    k = harmonics[int(np.argmax(np.abs(basis @ psi)))]
    return float(k) / support


# _dense_central_frequency of the longest coiflets (38-318 MiB each): k / support
_DENSE_COIFLETS = {"coif7": 28 / 41, "coif8": 32 / 47, "coif9": 36 / 53, "coif10": 40 / 59,
                   "coif11": 44 / 65, "coif12": 48 / 71, "coif13": 52 / 77, "coif14": 56 / 83,
                   "coif15": 60 / 89, "coif16": 64 / 95, "coif17": 68 / 101}


class TestFrequencyMapping:
    def test_sym8_central_frequency(self):
        assert abs(central_frequency("sym8") - 0.666) <= 0.01

    # the top two harmonics of coif11-coif17 differ by under 1e-4 relative, so
    # the power must be summed as the dense basis product sums it
    @pytest.mark.parametrize("name", available_families())
    def test_central_frequency_matches_dense_basis(self, name):
        expected = _DENSE_COIFLETS.get(name)
        if expected is None:
            expected = _dense_central_frequency(name)
        assert central_frequency(name) == expected

    def test_central_frequency_memory_bounded(self):
        tracemalloc.start()
        try:
            central_frequency.__wrapped__("coif17")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20

    def test_sym8_dyadic_scales_at_16k(self):
        assert abs(scale_to_frequency("sym8", 2 ** 4, 16000) - 666.0) <= 10.0
        assert abs(scale_to_frequency("sym8", 2 ** 5, 16000) - 333.0) <= 5.0

    def test_doubling_scale_halves_frequency(self):
        for scale in (1.0, 2.0, 7.0):
            assert np.isclose(scale_to_frequency("db6", 2 * scale, 8000),
                              scale_to_frequency("db6", scale, 8000) / 2.0)


class TestRickerCwt:
    def test_constant_maps_to_zero(self):
        # away from the zero-padded edges, a zero-mean kernel must null a constant
        s = Signal(np.full(2048, 0.7), 8000)
        scales = np.arange(1.0, 33.0)
        out = cwt_ricker(s, scales)
        edge = int(np.ceil(8 * scales.max())) + 1
        assert np.max(np.abs(out[:, edge:-edge])) <= 1e-8

    def test_shape(self, rng):
        s = Signal(rng.normal(size=500), 8000)
        assert cwt_ricker(s, [1.0, 4.0, 9.5]).shape == (3, 500)

    def test_sinusoid_peaks_at_matching_scale(self):
        f0 = 0.0225  # cycles per sample
        t = np.arange(8192)
        s = Signal(0.8 * np.sin(2 * np.pi * f0 * t), 8000)
        scales = np.arange(1.0, 33.0)
        response = np.abs(cwt_ricker(s, scales)[:, 2048:-2048]).max(axis=1)
        # oracle: |a^(1/2) (a w)^2 exp(-(a w)^2 / 2)| maximized over the grid
        w0 = 2 * np.pi * f0
        oracle = np.sqrt(scales) * (scales * w0) ** 2 * np.exp(-0.5 * (scales * w0) ** 2)
        assert int(np.argmax(response)) == int(np.argmax(oracle))
        # the mapped frequency of the winning scale is in the right ballpark
        ricker_cf = np.sqrt(2.0) / (2.0 * np.pi)
        best = scales[int(np.argmax(response))]
        assert abs(ricker_cf / best - f0) / f0 < 0.35

    def test_linear_in_signal(self, rng):
        x = rng.normal(size=600)
        y = rng.normal(size=600)
        scales = [2.0, 5.0]
        lhs = cwt_ricker(Signal(0.25 * x + 0.5 * y, 8000), scales)
        rhs = (0.25 * cwt_ricker(Signal(x, 8000), scales)
               + 0.5 * cwt_ricker(Signal(y, 8000), scales))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            cwt_ricker(Signal(np.zeros(16), 8000), [1.0, 0.0])


class TestDwtHeatmap:
    def test_rows_and_width(self, rng):
        s = Signal(rng.normal(size=1000), 8000)
        coeffs = wavedec(s, DwtConfig("sym8", 4))
        matrix = dwt_heatmap_matrix(coeffs)
        assert matrix.shape == (5, 500)
        # coarse rows are stretched copies of their bands
        assert np.array_equal(matrix[0][:4], np.repeat(dwt_bands(coeffs)[0], 8)[:4])
