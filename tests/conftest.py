import os

# One BLAS thread for the oracles' numpy and scipy calls unless the run sets
# its own: BLAS threads would compete with the wall-clock gates. BLAS reads
# these when numpy loads, so they are set before anything imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import HealthCheck, settings

from tfsep.signal import Signal
from tfsep.synth import make_corpus, speech_like

settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def speech_signal() -> Signal:
    """One clean speech-like utterance at 16 kHz."""
    return speech_like(3.0, 16000, np.random.default_rng(123))


@pytest.fixture(scope="session")
def recordings() -> list[Signal]:
    """Three speech-like recordings at mixed sampling rates."""
    gen = np.random.default_rng(7)
    return [speech_like(2.0, 16000, gen), speech_like(1.5, 16000, gen),
            speech_like(2.0, 8000, gen)]


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A small synthetic speaker corpus for harness tests."""
    root = tmp_path_factory.mktemp("corpus")
    make_corpus(root, n_speakers=4, recordings=2, duration=3.0, rate=16000, seed=5)
    return root


@pytest.fixture(scope="session")
def benchmark_corpus(tmp_path_factory):
    """The larger corpus used by the separation benchmark."""
    root = tmp_path_factory.mktemp("bench_corpus")
    make_corpus(root, n_speakers=10, recordings=2, duration=12.0, rate=16000, seed=42)
    return root
