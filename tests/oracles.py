"""Reference helpers that several test modules check the package against."""

import numpy as np


def round_half_away(values):
    """Round half away from zero (0.5 -> 1, -0.5 -> -1), as float."""
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)
