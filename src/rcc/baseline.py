"""Fixed HSV range classifier, the conventional approach being compared
against.

Ranges are calibrated per class from training patches: the patch's mean
pixel is converted to HSV, hue gets circular p5/p95 percentiles (so red
wrapping past 0 degrees works), saturation and value get plain p5 floors.
Classification is first-match containment in ascending class order; no
match means "unknown" (returned as None) and scores as incorrect.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .image import rgb_to_hsv
from .net import CLASS_NAMES
from .synth import read_csv, write_csv

N_CLASSES = len(CLASS_NAMES)


class CalibrationError(Exception):
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

    def contains(self, h: float, s: float, v: float) -> bool:
        if s < self.s_min or v < self.v_min:
            return False
        return (
            self.h_min <= h <= self.h_max
            or self.h_min <= h + 360.0 <= self.h_max
        )


def mean_pixel_hsv(patch: np.ndarray) -> tuple[float, float, float]:
    """HSV of the channel-wise mean pixel of an (h, w, 3) patch."""
    mean = patch.astype(np.float64).mean(axis=(0, 1))
    return rgb_to_hsv(float(mean[0]), float(mean[1]), float(mean[2]))


def _circular_deviations(hues: np.ndarray) -> tuple[float, np.ndarray]:
    """Circular mean hue and per-sample deviations in [-180, 180)."""
    radians = np.deg2rad(hues)
    center = math.degrees(
        math.atan2(np.sin(radians).sum(), np.cos(radians).sum())
    ) % 360.0
    deviations = (hues - center + 180.0) % 360.0 - 180.0
    return center, deviations


def calibrate_ranges(
    patches: np.ndarray, labels: Sequence[int], n_classes: int = N_CLASSES
) -> list[HsvRange]:
    """Fit one HsvRange per class from a training patch stack and its labels."""
    by_class: list[list[tuple[float, float, float]]] = [[] for _ in range(n_classes)]
    for patch, label in zip(patches, labels, strict=True):
        if not 0 <= label < n_classes:
            raise ValueError(f"class index {label} out of range")
        by_class[label].append(mean_pixel_hsv(patch))
    ranges = []
    for index, entries in enumerate(by_class):
        if not entries:
            raise CalibrationError(f"no samples for class {index}")
        hues = np.array([e[0] for e in entries])
        sats = np.array([e[1] for e in entries])
        vals = np.array([e[2] for e in entries])
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


def classify_hsv(patch: np.ndarray, ranges: Sequence[HsvRange]) -> int | None:
    """First class (ascending index) whose range contains the patch's mean
    HSV; None when no range matches."""
    h, s, v = mean_pixel_hsv(patch)
    for r in sorted(ranges, key=lambda r: r.class_index):
        if r.contains(h, s, v):
            return r.class_index
    return None


def count_hsv_hits(
    patches: np.ndarray, labels: Sequence[int], ranges: Sequence[HsvRange]
) -> int:
    """How many rows of the patch stack `classify_hsv` gives their label."""
    return sum(
        1
        for patch, label in zip(patches, labels)
        if classify_hsv(patch, ranges) == label
    )


RANGES_COLUMNS = tuple(f.name for f in fields(HsvRange))


def ranges_to_csv(ranges: Sequence[HsvRange]) -> str:
    return write_csv(
        RANGES_COLUMNS, map(astuple, sorted(ranges, key=lambda r: r.class_index))
    )


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

    rows = read_csv(text, RANGES_COLUMNS, name, parse)
    for index in range(N_CLASSES):
        if index not in ranges:
            last = rows[-1][0] if rows else 1
            raise ValueError(f"{name} line {last}: file ends, no row for class {index}")
    return [ranges[index] for index in range(N_CLASSES)]
