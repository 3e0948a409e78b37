"""Reference helpers that several test modules check the package against."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

# numpy's dispatch targets with AVX-512 loops; with them disabled, numpy's
# float64 log, float32 sin and cos and the rest take their AVX2 or SSE loops
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
HAS_AVX512 = all(CPU_FEATURES.get(f) for f in AVX512_TARGETS)
_OFF_AVX512_SCRIPT = """
import sys
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as features
assert not any(features[f] for f in sys.argv[1].split()), "AVX-512 loops still enabled"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def round_half_away(values):
    """Round half away from zero (0.5 -> 1, -0.5 -> -1), as float."""
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)


def second_call_peak(call):
    """The tracemalloc peak, in bytes, of a second `call()`: the first, not
    traced, builds what the package caches on first use (the lane jump
    matrices), so the figure is the call's own working set."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_tests(args, tests, env):
    """Run the pytest node ids `tests` in a subprocess of `python args...`
    from the repository root, under the environment `env` added to this
    one; returns its output once it has passed."""
    done = subprocess.run(
        [sys.executable, *args, *tests],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, **env),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def run_tests_off_avx512(tests):
    """`run_tests` with numpy's AVX-512 loops disabled."""
    targets = " ".join(AVX512_TARGETS)
    return run_tests(["-c", _OFF_AVX512_SCRIPT, targets], tests,
                     {"NPY_DISABLE_CPU_FEATURES": targets})
