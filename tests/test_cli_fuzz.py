"""Property-based test of the whole CLI: whatever the flags, grid file or WAV
file, `main` exits 0, 1 or 2, never with a traceback, and a failure ends in
one `tfsep` error line."""
import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tfsep.cli import main
from tfsep.harness import save_wav
from tfsep.synth import make_corpus, speech_like

# placeholders, replaced by the module's files when the argv runs
WAV, CORPUS, GRID, OUT = "<wav>", "<corpus>", "<grid>", "<out>"

_SPECIAL = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e9", "1e308", "", "abc"]


def _values(*ordinary):
    return st.sampled_from(_SPECIAL + list(ordinary))


_STFT_FLAGS = {"--window": st.sampled_from(["hann", "rect", "hamming", ""]),
               "--win-ms": _values("32", "5"), "--hop-ms": _values("16", "2")}
_WAVELET_FLAGS = {"--wavelet": st.sampled_from(["haar", "db4", "sym88", ""]),
                  "--levels": _values("1", "3", "1000000000"),
                  "--mode": st.sampled_from(["zero", "periodization", "symmetric", "periodic"])}
_RUN_FLAGS = {"--speakers": _values("2", "3", "4"),
              "--seed": _values("7", "123456789012345678901234567890")}
# command -> (fixed arguments, drawn flags, flags always drawn)
_COMMANDS = {
    "decompose": (["--in", WAV, "--out", OUT],
                  {"--method": st.sampled_from(["stft", "dwt", "wpt"]),
                   **_STFT_FLAGS, **_WAVELET_FLAGS}, ["--method"]),
    "spectrogram": (["--in", WAV, "--out", OUT], _STFT_FLAGS, []),
    "scaleogram": (["--in", WAV, "--out", OUT],
                   {"--method": st.sampled_from(["dwt", "wpt"]), **_WAVELET_FLAGS}, []),
    "metrics": (["--ref", WAV, "--deg", WAV], {}, []),
    "mix": (["--corpus", CORPUS, "--out", OUT], _RUN_FLAGS, []),
    # --mixtures and --jobs stay small: every drawn mixture is built up front
    "experiment": (["--corpus", CORPUS, "--grid", GRID, "--out", OUT],
                   {**_RUN_FLAGS, "--mixtures": _values("1", "2"),
                    "--jobs": _values("1", "2", "4"),
                    "--format": st.sampled_from(["csv", "json"])}, []),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    fixed, flags, required = _COMMANDS[command]
    optional = sorted(set(flags) - set(required))
    chosen = required + (draw(st.lists(st.sampled_from(optional), unique=True))
                         if optional else [])
    argv = [command, *fixed]
    for flag in chosen:
        argv += [flag, draw(flags[flag])]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    make_corpus(root / "corpus", n_speakers=3, recordings=1, duration=1.0, rate=8000, seed=9)
    save_wav(speech_like(1.0, 8000, np.random.default_rng(9)), root / "voice.wav")
    (root / "grid.json").write_text(json.dumps(
        {"stft": {"windows": ["hann"], "sizes_ms": [32], "hop_fractions": [0.5]},
         "wavelet": {"families": ["db4"], "levels": [3]}}))
    return {WAV: str(root / "voice.wav"), CORPUS: str(root / "corpus"),
            GRID: str(root / "grid.json"), OUT: str(root / "out")}


def _run(argv, files):
    """Run the CLI on argv and check the exit-code and stderr contract."""
    argv = [files.get(arg, arg) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code:
        assert (text.strip().splitlines() or [""])[-1].startswith("tfsep"), (argv, text)


@settings(max_examples=60)
@given(argv=_argvs())
@example(argv=["decompose", "--in", WAV, "--out", OUT, "--method", "stft", "--win-ms", "inf"])
@example(argv=["decompose", "--in", WAV, "--out", OUT, "--method", "stft", "--win-ms", "1e9"])
@example(argv=["spectrogram", "--in", WAV, "--out", OUT, "--win-ms", "1e308"])
def test_flags(files, argv):
    _run(argv, files)


# the first value of each key is valid
_KEY_VALUES = {
    "windows": ["hann", "rectangular", "hamming", 3, None],
    "sizes_ms": [32, 5.0, 1e308, 1e9, 1e-300, 0, -1, math.nan, math.inf, "32"],
    "hop_fractions": [0.5, 1e308, 1e-300, 2.0, 0, -1, math.nan, "0.5"],
    "families": ["haar", "db4", "sym88", 3, None],
    "levels": [3, 1, 0, -1, 10 ** 9, 1e308, 2.5, True, "3"],
    "mode": ["zero", "periodization", "symmetric", "periodic", 3, None, ["zero"]],
    "bogus": [1],
}
_SECTION_KEYS = {"stft": ["windows", "sizes_ms", "hop_fractions"],
                 "wavelet": ["families", "levels", "mode"],
                 "wpt": ["families", "levels", "mode"]}


@st.composite
def _grids(draw):
    """A grid file's JSON: valid sections in which a few keys, the section
    or the whole object are replaced by drawn values."""
    grid = {"bogus": {}} if draw(st.integers(0, 9)) == 0 else {}
    for section in draw(st.lists(st.sampled_from(["stft", "wavelet", "wpt"]),
                                 min_size=1, unique=True)):
        keys = _SECTION_KEYS[section]
        sect = {key: _KEY_VALUES[key][0] if key == "mode" else _KEY_VALUES[key][:1]
                for key in keys}
        for key in draw(st.sets(st.sampled_from(keys + ["bogus"]), max_size=2)):
            pool = st.sampled_from(_KEY_VALUES[key])
            sect[key] = draw(st.one_of(st.lists(pool, max_size=2), pool))
        for key in draw(st.sets(st.sampled_from(keys), max_size=1)):
            del sect[key]
        grid[section] = draw(st.sampled_from([sect] * 8 + [[sect], "stft"]))
    return draw(st.sampled_from([grid] * 8 + [[grid], 3]))


@settings(max_examples=40)
@given(grid=_grids())
@example(grid={"stft": {"windows": ["hann"], "sizes_ms": [1e308], "hop_fractions": [0.5]}})
@example(grid={"stft": {"windows": ["hann"], "sizes_ms": [1e9], "hop_fractions": [0.5]}})
def test_grid_files(files, tmp_path_factory, grid):
    path = tmp_path_factory.getbasetemp() / "fuzz_grid.json"
    path.write_text(json.dumps(grid))
    _run(["experiment", "--corpus", CORPUS, "--grid", str(path), "--mixtures", "1",
          "--out", OUT], files)


def _wav_bytes(channels, width, rate, frames, cut, seed):
    """A PCM WAV file, its data chunk `cut` bytes shorter than its header says."""
    size = frames * channels * width
    data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * width,
                      channels * width, 8 * width)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", size) + data[:max(0, size - cut)])
    return b"RIFF" + struct.pack("<I", len(body)) + body


@settings(max_examples=40)
@given(channels=st.integers(1, 8), width=st.sampled_from([2, 2, 2, 1, 3, 4]),
       rate=st.sampled_from([8000, 16000, 8000, 0]), frames=st.integers(0, 6000),
       cut=st.sampled_from([0, 0, 0, 1, 3, 100]), seed=st.integers(0, 99),
       command=st.sampled_from([["decompose", "--method", "stft", "--out", OUT],
                                ["decompose", "--method", "dwt", "--out", OUT],
                                ["decompose", "--method", "wpt", "--out", OUT],
                                ["spectrogram", "--out", OUT], ["scaleogram", "--out", OUT],
                                ["metrics", "--deg", WAV]]))
@example(channels=1, width=2, rate=8000, frames=0, cut=0, seed=0, command=["metrics", "--deg", WAV])
# odd-length data, half a stereo frame, a header rate of 0
@example(channels=1, width=2, rate=8000, frames=100, cut=1, seed=0,
         command=["decompose", "--method", "stft", "--out", OUT])
@example(channels=2, width=2, rate=8000, frames=100, cut=2, seed=0,
         command=["decompose", "--method", "dwt", "--out", OUT])
@example(channels=1, width=2, rate=0, frames=100, cut=0, seed=0,
         command=["decompose", "--method", "stft", "--out", OUT])
def test_wav_files(files, tmp_path_factory, channels, width, rate, frames, cut, seed, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(_wav_bytes(channels, width, rate, frames, cut, seed))
    flag = "--ref" if command[0] == "metrics" else "--in"
    _run([*command, flag, str(path)], {**files, WAV: str(path)})
