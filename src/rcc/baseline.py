"""Fixed HSV range classifier, the conventional approach being compared
against.

Everything runs on (n, h, w, 3) uint8 patch stacks.  Ranges are calibrated
per class from training patches: each patch's mean pixel is converted to
HSV (`mean_hsv`), hue gets circular p5/p95 percentiles (so red wrapping
past 0 degrees works), saturation and value get plain p5 floors.
Classification is first-match containment in ascending class order; no
match means "unknown" (returned as -1) and scores as incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .net import CLASS_NAMES
from .synth import read_csv

N_CLASSES = len(CLASS_NAMES)


class CalibrationError(ValueError):
    """Training data cannot produce a range for every class."""


@dataclass(frozen=True)
class HsvRange:
    """Acceptance region: hue window plus saturation/value floors.

    h_max may exceed 360 to express a window that wraps past 0 degrees;
    containment tests hue at both h and h + 360.
    """

    class_index: int
    h_min: float
    h_max: float
    s_min: float
    v_min: float

    def __post_init__(self):
        # hold plain floats, so a range built from ints or numpy scalars is
        # written to CSV as one built from floats would be (0.0, not 0)
        for name in ("h_min", "h_max", "s_min", "v_min"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 <= self.h_min < 360:
            raise ValueError(f"h_min {self.h_min} outside [0, 360)")
        # also false for a NaN h_max
        if not self.h_min <= self.h_max <= self.h_min + 360.0:
            raise ValueError(
                f"h_max {self.h_max} outside [h_min, h_min + 360] for h_min {self.h_min}"
            )
        for name, value in (("s_min", self.s_min), ("v_min", self.v_min)):
            if not 0 <= value <= 1:
                raise ValueError(f"{name} {value} outside [0, 1]")

    def contains(self, h, s, v):
        """Whether (h, s, v) lies in the range, elementwise over arrays."""
        in_window = ((self.h_min <= h) & (h <= self.h_max)) | (
            (self.h_min <= h + 360.0) & (h + 360.0 <= self.h_max)
        )
        return (s >= self.s_min) & (v >= self.v_min) & in_window


def channel_means(patches: np.ndarray) -> np.ndarray:
    """(n, 3) float64 channel means of an (n, h, w, 3) uint8 patch stack.

    Each is its channel's int64 sum over one contiguous (n, 3, h*w) copy,
    divided by h*w: the bytes of ``patches.mean(axis=(1, 2),
    dtype=np.float64)``, whose float64 sum of uint8 values is exact too, at
    a fraction of the strided reduction's cost.
    """
    n, h, w, channels = patches.shape
    planes = np.ascontiguousarray(patches.reshape(n, h * w, channels).transpose(0, 2, 1))
    return planes.sum(axis=2, dtype=np.int64) / (h * w)


@np.errstate(divide="ignore", invalid="ignore")  # hues where delta is 0 are reset
def mean_hsv(patches: np.ndarray) -> np.ndarray:
    """(n, 3) array of (h degrees, s, v) of each (n, h, w, 3) uint8 patch's
    channel-mean pixel, by the hexcone; h lies in [0, 360) and is 0 wherever
    s is 0."""
    rgb = channel_means(patches) / 255.0
    r, g, b = rgb.T
    v = rgb.max(axis=1)
    delta = v - rgb.min(axis=1)
    s = np.divide(delta, v, out=np.zeros_like(v), where=v != 0)
    h = 60.0 * np.where(
        v == r,
        ((g - b) / delta) % 6.0,
        np.where(v == g, (b - r) / delta + 2.0, (r - g) / delta + 4.0),
    )
    h[(delta == 0) | (s == 0)] = 0.0
    h[h >= 360.0] -= 360.0
    return np.stack([h, s, v], axis=1)


def _circular_deviations(hues: np.ndarray) -> tuple[float, np.ndarray]:
    """Circular mean hue and per-sample deviations in [-180, 180)."""
    radians = np.deg2rad(hues)
    center = math.degrees(
        math.atan2(np.sin(radians).sum(), np.cos(radians).sum())
    ) % 360.0
    deviations = (hues - center + 180.0) % 360.0 - 180.0
    return center, deviations


def calibrate_ranges(patches: np.ndarray, labels: Sequence[int]) -> list[HsvRange]:
    """Fit one HsvRange per class from a training patch stack and its labels."""
    labels = np.asarray(labels)
    if len(labels) != len(patches):
        raise ValueError(f"{len(labels)} labels for {len(patches)} patches")
    bad = (labels < 0) | (labels >= N_CLASSES)
    if bad.any():
        raise ValueError(f"class index {labels[bad][0]} out of range")
    hsv = mean_hsv(patches)
    ranges = []
    for index in range(N_CLASSES):
        hues, sats, vals = hsv[labels == index].T
        if not len(hues):
            raise CalibrationError(f"no samples for class {index}")
        center, deviations = _circular_deviations(hues)
        low, high = np.percentile(deviations, [5.0, 95.0])
        h_min = (center + low) % 360.0
        ranges.append(
            HsvRange(
                class_index=index,
                h_min=h_min,
                h_max=h_min + (high - low),
                s_min=float(np.percentile(sats, 5.0)),
                v_min=float(np.percentile(vals, 5.0)),
            )
        )
    return ranges


def classify_hsv(patches: np.ndarray, ranges: Sequence[HsvRange]) -> np.ndarray:
    """Per patch, the first class (ascending index) whose range contains
    its mean HSV; -1 where no range matches."""
    h, s, v = mean_hsv(patches).T
    classes = np.full(len(h), -1, dtype=np.int64)
    for r in sorted(ranges, key=lambda r: r.class_index):
        classes[(classes == -1) & r.contains(h, s, v)] = r.class_index
    return classes


def count_hsv_hits(
    patches: np.ndarray, labels: Sequence[int], ranges: Sequence[HsvRange]
) -> int:
    """How many rows of the patch stack `classify_hsv` gives their label."""
    return int((classify_hsv(patches, ranges) == labels).sum())


def ranges_from_csv(text: str, name: str = "ranges.csv") -> list[HsvRange]:
    """Ranges in class order; ValueError naming the line unless every row
    is complete and there is exactly one per class 0..N_CLASSES-1."""
    ranges: dict[int, HsvRange] = {}

    def parse(row: dict) -> None:
        index, *bounds = row.values()
        r = HsvRange(int(index), *map(float, bounds))
        if not 0 <= r.class_index < N_CLASSES:
            raise ValueError(f"class index {r.class_index} out of range")
        if r.class_index in ranges:
            raise ValueError(f"second row for class {r.class_index}")
        ranges[r.class_index] = r

    rows = read_csv(text, HsvRange, name, parse)
    for index in range(N_CLASSES):
        if index not in ranges:
            last = rows[-1][0] if rows else 1
            raise ValueError(f"{name} line {last}: file ends, no row for class {index}")
    return [ranges[index] for index in range(N_CLASSES)]
