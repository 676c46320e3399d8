import numpy as np
import pytest

from tfsep.fourier import StftConfig, WindowKind
from tfsep.masking import (DwtConfig, Mask, MaskKind, WptConfig, add, apply_mask,
                           decompose, ideal_binary_mask, ideal_ratio_mask,
                           reconstruct)
from tfsep.signal import Signal
from tfsep.wavelet import lookup, wavedec


def stft_32ms(rate):
    return StftConfig.from_milliseconds(WindowKind.HANN, 32.0, 16.0, rate)


ALL_CONFIG_BUILDERS = [
    lambda rate: stft_32ms(rate),
    lambda rate: DwtConfig("sym8", 6),
    lambda rate: WptConfig("sym8", 6),
]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


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

    def test_band_layout_matches_matrix(self, rng):
        s = Signal(rng.normal(size=4000), 16000)
        tf = decompose(s, stft_32ms(16000))
        # 512-sample window, 256 hop, 256 samples of padding at each end
        frames = 1 + int(np.ceil((4000 + 2 * 256 - 512) / 256))
        assert tf.coeffs.shape == (257, frames)
        ragged = decompose(s, DwtConfig("db3", 4))
        bands = wavedec(s, lookup("db3"), 4)
        assert len(bands.details) + 1 == 5
        assert ragged.coeffs.shape == (bands.approx.size + sum(d.size for d in bands.details),)


def _tf_pair(values_s, values_n, rng):
    """Tiny STFT representations with controlled magnitudes in one bin."""
    s = Signal(rng.normal(size=512), 8000)
    cfg = StftConfig(WindowKind.HANN, 64, 32, 64)
    base = decompose(s, cfg)
    import dataclasses
    return (dataclasses.replace(base, coeffs=np.full_like(base.coeffs, values_s)),
            dataclasses.replace(base, coeffs=np.full_like(base.coeffs, values_n)))


class TestIdealBinaryMask:
    def test_target_dominates(self, rng):
        S, N = _tf_pair(3.0, 1.0, rng)
        mask = ideal_binary_mask(S, N)
        assert mask.kind is MaskKind.BINARY
        assert np.all(mask.weights == 1.0)

    def test_tie_goes_to_target(self, rng):
        S, N = _tf_pair(2.0, 2.0, rng)
        mask = ideal_binary_mask(S, N)
        assert np.all(mask.weights == 1.0)
        zeros, _ = _tf_pair(0.0, 0.0, rng)
        mask = ideal_binary_mask(zeros, zeros)
        assert np.all(mask.weights == 1.0)

    def test_threshold_limits(self, rng):
        S, N = _tf_pair(5.0, 1.0, rng)
        assert np.all(ideal_binary_mask(S, N, np.inf).weights == 0.0)
        assert np.all(ideal_binary_mask(N, S, -np.inf).weights == 1.0)

    def test_mask_values_are_binary(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = DwtConfig("db4", 3)
        mask = ideal_binary_mask(decompose(x, cfg), decompose(y, cfg))
        assert set(np.unique(mask.weights)) <= {0.0, 1.0}

    def test_complementary_masks_cover_everything(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        y = Signal(rng.normal(size=3000), 16000)
        cfg = stft_32ms(16000)
        S, N = decompose(x, cfg), decompose(y, cfg)
        m_target = ideal_binary_mask(S, N)
        m_other = ideal_binary_mask(N, S)
        a, b = m_target.weights, m_other.weights
        assert np.all(a + b >= 1.0)
        ties = np.abs(S.coeffs) == np.abs(N.coeffs)
        assert np.all((a + b)[~ties] == 1.0)  # bins partition except ties

    def test_shape_mismatch_rejected(self, rng):
        x = Signal(rng.normal(size=3000), 16000)
        a = decompose(x, DwtConfig("db4", 3))
        b = decompose(x, DwtConfig("db4", 2))
        with pytest.raises(ValueError):
            ideal_binary_mask(a, b)


class TestIdealRatioMask:
    def test_equal_magnitudes_give_half(self, rng):
        S, N = _tf_pair(2.0, 2.0, rng)
        assert np.allclose(ideal_ratio_mask(S, N).weights, 0.5)

    def test_one_to_three(self, rng):
        S, N = _tf_pair(1.0, 3.0, rng)
        assert np.allclose(ideal_ratio_mask(S, N).weights, 0.1)

    def test_silent_bins_get_zero(self, rng):
        S, N = _tf_pair(0.0, 0.0, rng)
        assert np.all(ideal_ratio_mask(S, N).weights == 0.0)

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
        a, b = ideal_ratio_mask(S, N).weights, ideal_ratio_mask(N, S).weights
        assert np.all((a >= 0.0) & (a <= 1.0))
        assert np.allclose(a + b, 1.0)


class TestApplyMask:
    def test_all_ones_is_identity(self, rng):
        s = Signal(rng.normal(size=5000), 16000)
        tf = decompose(s, stft_32ms(16000))
        ones = Mask(np.ones(tf.coeffs.shape), MaskKind.BINARY)
        masked = apply_mask(tf, ones)
        assert np.array_equal(masked.coeffs, tf.coeffs)

    def test_all_zeros_reconstructs_silence(self, rng):
        s = Signal(rng.normal(size=5000), 16000)
        tf = decompose(s, DwtConfig("sym5", 4))
        zeros = Mask(np.zeros(tf.coeffs.shape), MaskKind.BINARY)
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
        half = Mask(np.full(tf.coeffs.shape, 0.5), MaskKind.RATIO)
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
