import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tfsep.fourier import StftConfig, WindowKind
from tfsep.harness import build_config, stft_entry
from tfsep.masking import (DwtConfig, WptConfig, add, apply_mask,
                           decompose, ideal_binary_mask, ideal_ratio_mask,
                           reconstruct)
from tfsep.signal import Signal, TFRepresentation
from tfsep.wavelet import dwt_bands, lookup, wavedec


def stft_32ms(rate):
    return build_config(stft_entry("hann", 32.0, 16.0), rate)


ALL_CONFIG_BUILDERS = [
    lambda rate: stft_32ms(rate),
    lambda rate: DwtConfig("sym8", 6),
    lambda rate: WptConfig("sym8", 6),
]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _bit_identical(ours, ref):
    """Same shape, dtype and values, signs of zero included, for real and
    imaginary parts alike."""
    parts = (lambda a: (a.real, a.imag)) if np.iscomplexobj(ref) else (lambda a: (a,))
    return ours.shape == ref.shape and ours.dtype == ref.dtype and all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in zip(parts(ours), parts(ref)))


class TestDispatch:
    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_roundtrip(self, rng, build):
        s = Signal(rng.normal(size=12000), 16000)
        tf = decompose(s, build(16000))
        back = reconstruct(tf)
        assert back.rate == s.rate and len(back) == len(s)
        tolerance = 1e-6 if isinstance(tf.config, StftConfig) else 1e-8
        assert rel_err(back.samples, s.samples) < tolerance

    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_linearity(self, rng, build):
        cfg = build(16000)
        x = Signal(rng.normal(size=8000), 16000)
        y = Signal(rng.normal(size=8000), 16000)
        both = decompose(Signal(x.samples + y.samples, 16000), cfg)
        summed = add(decompose(x, cfg), decompose(y, cfg))
        lhs, rhs = both.coeffs, summed.coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.abs(rhs).max())

    # add sums into its first operand's array, which a trial's interference sum
    # relies on to hold one running sum, and leaves the second as it was
    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_add_sums_into_its_first_operand(self, rng, build):
        cfg = build(16000)
        a = decompose(Signal(rng.normal(size=8000), 16000), cfg)
        b = decompose(Signal(rng.normal(size=8000), 16000), cfg)
        a_before, b_before = a.coeffs.copy(), b.coeffs.copy()
        buffer = a.coeffs
        summed = add(a, b)
        assert summed is a and summed.coeffs is buffer
        assert _bit_identical(summed.coeffs, a_before + b_before)
        assert _bit_identical(b.coeffs, b_before)

    @pytest.mark.parametrize("other", [
        lambda tf: replace(tf, config=DwtConfig("sym8", 5)),          # same length, other config
        lambda tf: replace(tf, coeffs=tf.coeffs[:-1])],               # other shape
        ids=["config", "shape"])
    def test_add_rejects_incongruent_operands_before_writing(self, rng, other):
        a = decompose(Signal(rng.normal(size=4000), 16000), DwtConfig("sym8", 4))
        a_before = a.coeffs.copy()
        b = other(decompose(Signal(rng.normal(size=4000), 16000), DwtConfig("sym8", 4)))
        with pytest.raises(ValueError, match="not congruent"):
            add(a, b)
        assert _bit_identical(a.coeffs, a_before)

    def test_band_layout_matches_matrix(self, rng):
        s = Signal(rng.normal(size=4000), 16000)
        tf = decompose(s, stft_32ms(16000))
        # 512-sample window, 256 hop, 256 samples of padding at each end
        frames = 1 + int(np.ceil((4000 + 2 * 256 - 512) / 256))
        assert tf.coeffs.shape == (257, frames)
        ragged = decompose(s, DwtConfig("db3", 4))
        bands = dwt_bands(wavedec(s, DwtConfig("db3", 4)))
        assert len(bands) == 5
        assert ragged.coeffs.shape == (sum(b.size for b in bands),)


def _tf_pair(values_s, values_n, rng):
    """Tiny STFT representations with controlled magnitudes in one bin."""
    s = Signal(rng.normal(size=512), 8000)
    cfg = StftConfig(WindowKind.HANN, 64, 32)
    base = decompose(s, cfg)
    import dataclasses
    return (dataclasses.replace(base, coeffs=np.full_like(base.coeffs, values_s)),
            dataclasses.replace(base, coeffs=np.full_like(base.coeffs, values_n)))


class TestIdealBinaryMask:
    def test_target_dominates(self, rng):
        S, N = _tf_pair(3.0, 1.0, rng)
        mask = ideal_binary_mask(S, N)
        assert mask.dtype == np.float64 and mask.shape == S.coeffs.shape
        assert np.all(mask == 1.0)

    def test_tie_goes_to_target(self, rng):
        S, N = _tf_pair(2.0, 2.0, rng)
        mask = ideal_binary_mask(S, N)
        assert np.all(mask == 1.0)
        zeros, _ = _tf_pair(0.0, 0.0, rng)
        mask = ideal_binary_mask(zeros, zeros)
        assert np.all(mask == 1.0)

    def test_threshold_limits(self, rng):
        S, N = _tf_pair(5.0, 1.0, rng)
        assert np.all(ideal_binary_mask(S, N, np.inf) == 0.0)
        assert np.all(ideal_binary_mask(N, S, -np.inf) == 1.0)

    def test_mask_values_are_binary(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = DwtConfig("db4", 3)
        mask = ideal_binary_mask(decompose(x, cfg), decompose(y, cfg))
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_complementary_masks_cover_everything(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = stft_32ms(16000)
        S, N = decompose(x, cfg), decompose(y, cfg)
        m_target = ideal_binary_mask(S, N)
        m_other = ideal_binary_mask(N, S)
        a, b = m_target, m_other
        assert np.all(a + b >= 1.0)
        ties = np.abs(S.coeffs) == np.abs(N.coeffs)
        assert np.all((a + b)[~ties] == 1.0)  # bins partition except ties

    # the mask is built in |target|'s own array, so its dtype and layout must
    # not reach the result: float64 0/1 whatever the coefficients were
    @pytest.mark.parametrize("kind", ["float32", "complex64", "int16", "permuted", "strided"])
    def test_any_coefficients_give_a_float64_mask(self, rng, kind):
        t, i = (rng.normal(size=(6, 70, 50)) + 1j * rng.normal(size=(6, 70, 50)) for _ in range(2))
        if kind == "complex64":
            t, i = t.astype(kind), i.astype(kind)
        elif kind in ("float32", "int16"):
            t, i = ((4 * x.real if kind == "float32" else np.round(4 * x.real)).astype(kind)
                    for x in (t, i))
        elif kind == "permuted":    # contiguous, but neither C nor F order
            t = np.ascontiguousarray(t.transpose(1, 0, 2)).transpose(1, 0, 2)
        else:
            t, i = t[:, ::2, 1:], i[:, ::2, 1:]
        T, I = (TFRepresentation(x, WptConfig("haar", 1), 16000, 100) for x in (t, i))
        for threshold in (0.0, 0.25):
            ref = (np.abs(t) - np.abs(i) >= threshold).astype(np.float64)
            assert _bit_identical(ideal_binary_mask(T, I, threshold), ref)

    def test_shape_mismatch_rejected(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        a = decompose(x, DwtConfig("db4", 3))
        b = decompose(x, DwtConfig("db4", 2))
        with pytest.raises(ValueError):
            ideal_binary_mask(a, b)


class TestWhatATrialHolds:
    """An IBM trial keeps the target's magnitudes, not its coefficients, and
    the mask as booleans; neither may move a bit of the mask or the product."""

    @staticmethod
    def _pair(rng, cfg):
        tfs = [decompose(Signal(rng.normal(size=12000), 16000), cfg) for _ in range(2)]
        for tf in tfs:
            tf.coeffs[..., ::5] = -0.0                # signed zeros and ties reach the mask
        return tfs

    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_magnitudes_give_the_same_mask(self, rng, build):
        T, I = self._pair(rng, build(16000))
        mask = ideal_binary_mask(T, I)
        assert _bit_identical(ideal_binary_mask(replace(T, coeffs=np.abs(T.coeffs)), I), mask)
        # the mask is built in blocks of memory order: a target laid out
        # otherwise than the interference pairs the same elements
        other = replace(T, coeffs=np.asfortranarray(T.coeffs) if T.coeffs.flags.c_contiguous
                        else np.ascontiguousarray(T.coeffs))
        assert _bit_identical(ideal_binary_mask(other, I, 0.25), ideal_binary_mask(T, I, 0.25))

    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_boolean_mask_gives_the_same_product(self, rng, build):
        T, I = self._pair(rng, build(16000))
        mask = ideal_binary_mask(T, I)
        assert _bit_identical(apply_mask(I, mask.astype(bool)).coeffs, apply_mask(I, mask).coeffs)

    # the mask is written over |target| 4096 elements at a time, so beyond its
    # result it holds one block, not |interference| or a boolean copy (0.50x one
    # STFT array and 2.00x one WPT array when it did)
    @pytest.mark.parametrize("cfg", [build_config(stft_entry("hann", 5.0, 1.25), 16000),
                                     WptConfig("db4", 5)], ids=["stft", "wpt"])
    def test_scratch_beyond_the_result(self, rng, cfg):
        T, I = (decompose(Signal(rng.normal(size=32000), 16000), cfg) for _ in range(2))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mask = ideal_binary_mask(T, I)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - mask.nbytes < 0.25 * T.coeffs.nbytes, (peak - mask.nbytes) / T.coeffs.nbytes


class TestIdealRatioMask:
    def test_equal_magnitudes_give_half(self, rng):
        S, N = _tf_pair(2.0, 2.0, rng)
        assert np.allclose(ideal_ratio_mask(S, N), 0.5)

    def test_one_to_three(self, rng):
        S, N = _tf_pair(1.0, 3.0, rng)
        assert np.allclose(ideal_ratio_mask(S, N), 0.1)

    def test_silent_bins_get_zero(self, rng):
        S, N = _tf_pair(0.0, 0.0, rng)
        assert np.all(ideal_ratio_mask(S, N) == 0.0)

    def test_noiseless_mask_is_identity(self, rng):
        s = Signal(rng.normal(size=6000), 16000)
        cfg = stft_32ms(16000)
        S = decompose(s, cfg)
        import dataclasses
        silence = dataclasses.replace(S, coeffs=np.zeros_like(S.coeffs))
        mask = ideal_ratio_mask(S, silence)
        back = reconstruct(apply_mask(S, mask))
        assert rel_err(back.samples, s.samples) < 1e-6

    def test_complement_sums_to_one(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = WptConfig("db5", 4)
        S, N = decompose(x, cfg), decompose(y, cfg)
        a, b = ideal_ratio_mask(S, N), ideal_ratio_mask(N, S)
        assert np.all((a >= 0.0) & (a <= 1.0))
        assert np.allclose(a + b, 1.0)


class TestApplyMask:
    def test_all_ones_is_identity(self, rng):
        s = Signal(rng.normal(size=5000), 16000)
        tf = decompose(s, stft_32ms(16000))
        ones = np.ones(tf.coeffs.shape)
        masked = apply_mask(tf, ones)
        assert np.array_equal(masked.coeffs, tf.coeffs)

    def test_shape_mismatch_rejected(self, rng):
        tf = decompose(Signal(rng.normal(size=3000), 16000), DwtConfig("db4", 3))
        with pytest.raises(ValueError, match="mask shape"):
            apply_mask(tf, np.ones(tf.coeffs.size + 1))

    def test_all_zeros_reconstructs_silence(self, rng):
        s = Signal(rng.normal(size=5000), 16000)
        tf = decompose(s, DwtConfig("sym5", 4))
        zeros = np.zeros(tf.coeffs.shape)
        back = reconstruct(apply_mask(tf, zeros))
        assert np.allclose(back.samples, 0.0)

    def test_binary_mask_idempotent(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = stft_32ms(16000)
        M = decompose(Signal(x.samples + y.samples, 16000), cfg)
        mask = ideal_binary_mask(decompose(x, cfg), decompose(y, cfg))
        once = apply_mask(M, mask)
        twice = apply_mask(once, mask)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_phase_preserved(self, rng):
        s = Signal(rng.normal(size=4000), 16000)
        tf = decompose(s, stft_32ms(16000))
        half = np.full(tf.coeffs.shape, 0.5)
        a, b = apply_mask(tf, half).coeffs, tf.coeffs
        nonzero = np.abs(b) > 1e-12
        assert np.allclose(np.angle(a[nonzero]), np.angle(b[nonzero]))


class TestPerfectSeparation:
    @pytest.mark.parametrize("build", ALL_CONFIG_BUILDERS)
    def test_disjoint_supports_reconstruct_exactly(self, rng, build):
        # temporally disjoint sources occupy disjoint coefficient supports
        rate = 16000
        a = np.zeros(16000)
        a[1000:4000] = rng.normal(size=3000)
        b = np.zeros(16000)
        b[9000:12000] = rng.normal(size=3000)
        cfg = build(rate)
        target, interference = Signal(a, rate), Signal(b, rate)
        mix = Signal(a + b, rate)
        S, N = decompose(target, cfg), decompose(interference, cfg)
        disjoint = not np.any((np.abs(S.coeffs) > 1e-9) & (np.abs(N.coeffs) > 1e-9))
        if not disjoint:
            pytest.skip("supports overlap for this transform's leakage")
        est = reconstruct(apply_mask(decompose(mix, cfg), ideal_binary_mask(S, N)))
        tolerance = 1e-6 if isinstance(cfg, StftConfig) else 1e-8
        assert rel_err(est.samples, a) < tolerance
