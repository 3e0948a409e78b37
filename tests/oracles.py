"""Reference helpers that several test modules check the package against."""

import tracemalloc

import numpy as np


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
