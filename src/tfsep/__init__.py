"""Signal decomposition (STFT / DWT / WPT from first principles), ideal
time-frequency masking, speech-intelligibility metrics, and the
speaker-isolation benchmark harness."""

from .signal import (PadMode, Signal, TFRepresentation, convolve, dot, downsample2,
                     l2_norm, pad, resample, upsample2)
from .fourier import (StftConfig, WindowKind, export_heatmap, fft, ifft, istft,
                      make_window, stft, stft_frequencies)
from .wavelet import (DwtConfig, WaveletFilterBank, WptConfig, available_families,
                      central_frequency, count_vanishing_moments, cwt_ricker,
                      dwt_bands, dwt_step, gray_permutation, idwt_step, iwpt, lookup,
                      qmf_highpass, cqf_highpass, scale_to_frequency, verify_pr,
                      wavedec, waverec, wpt)
from .masking import (apply_mask, decompose, ideal_binary_mask, ideal_ratio_mask,
                      reconstruct)
from .metrics import MetricError, MetricScores, mse, si_sdr, snr, stoi
from .harness import (DataError, ExperimentReport, Mixture, SpeakerCorpus,
                      default_grid, emit_report, grid_search, load_grid_file,
                      load_wav, make_mixture, run_ibm_trial, save_wav)

__version__ = "0.1.0"
