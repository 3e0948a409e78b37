"""Fixed HSV range classifier tests, including the hue wrap at 0 degrees."""

import numpy as np
import pytest

from rcc.baseline import (
    CalibrationError,
    HsvRange,
    calibrate_ranges,
    classify_hsv,
    mean_pixel_hsv,
    ranges_from_csv,
    ranges_to_csv,
)


def flat(rgb):
    return np.full((4, 4, 3), rgb, dtype=np.uint8)


def hue_patch(hue_deg, s=0.9, v=0.9):
    """Solid patch at a given hue via inverse hexcone conversion."""
    c = v * s
    x = c * (1 - abs((hue_deg / 60.0) % 2 - 1))
    m = v - c
    sector = int(hue_deg // 60) % 6
    rgb = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    channels = [round(255 * (u + m)) for u in rgb]
    return flat(tuple(channels))


def fit(hues, labels, n_classes):
    """calibrate_ranges on a stack of hue_patch(h) for each h in `hues`."""
    return calibrate_ranges(np.stack([hue_patch(h) for h in hues]), labels, n_classes)


class TestHsvRange:
    def test_plain_containment(self):
        r = HsvRange(0, h_min=100.0, h_max=140.0, s_min=0.2, v_min=0.2)
        assert r.contains(120.0, 0.5, 0.5)
        assert not r.contains(99.0, 0.5, 0.5)
        assert not r.contains(120.0, 0.1, 0.5)
        assert not r.contains(120.0, 0.5, 0.1)

    def test_wrapped_window_accepts_both_sides_of_zero(self):
        r = HsvRange(0, h_min=350.0, h_max=370.0, s_min=0.0, v_min=0.0)
        assert r.contains(355.0, 1.0, 1.0)
        assert r.contains(5.0, 1.0, 1.0)  # 5 + 360 = 365 inside
        assert not r.contains(30.0, 1.0, 1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            HsvRange(0, h_min=-1.0, h_max=10.0, s_min=0.0, v_min=0.0)
        with pytest.raises(ValueError):
            HsvRange(0, h_min=50.0, h_max=40.0, s_min=0.0, v_min=0.0)
        with pytest.raises(ValueError):
            HsvRange(0, h_min=0.0, h_max=10.0, s_min=1.5, v_min=0.0)


class TestCalibration:
    def test_two_clusters_get_separating_ranges(self):
        ranges = fit((115, 120, 125, 235, 240, 245), [0, 0, 0, 1, 1, 1], n_classes=2)
        green, blue = ranges
        assert green.h_min <= 120 <= green.h_max
        assert blue.h_min <= 240 <= blue.h_max
        assert classify_hsv(hue_patch(120), ranges) == 0
        assert classify_hsv(hue_patch(240), ranges) == 1

    def test_red_cluster_wrapping_zero(self):
        ranges = fit((350, 355, 5, 10), [0] * 4, n_classes=1)
        r = ranges[0]
        assert r.contains(*mean_pixel_hsv(hue_patch(355)))
        assert r.contains(*mean_pixel_hsv(hue_patch(5)))
        assert not r.contains(180.0, 0.9, 0.9)

    def test_single_sample_degenerates_to_a_point(self):
        sample = hue_patch(60)
        ranges = fit([60], [0], n_classes=1)
        r = ranges[0]
        assert r.h_max - r.h_min == pytest.approx(0.0, abs=1e-9)
        hue = mean_pixel_hsv(sample)[0]
        # zero-width window sits on the sample hue up to float error
        assert abs((r.h_min - hue + 180.0) % 360.0 - 180.0) < 1e-9

    def test_missing_class_raises(self):
        with pytest.raises(CalibrationError):
            fit([10], [0], n_classes=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fit([10], [5], n_classes=2)


class TestClassification:
    def test_no_match_returns_none(self):
        ranges = [HsvRange(0, 100.0, 140.0, 0.3, 0.3)]
        assert classify_hsv(hue_patch(0), ranges) is None

    def test_desaturated_input_rejected_by_floor(self):
        ranges = [HsvRange(0, 0.0, 360.0, 0.5, 0.0)]
        assert classify_hsv(flat((128, 128, 128)), ranges) is None

    def test_overlapping_ranges_resolve_to_lowest_index(self):
        ranges = [
            HsvRange(1, 0.0, 360.0, 0.0, 0.0),
            HsvRange(0, 0.0, 360.0, 0.0, 0.0),
        ]
        assert classify_hsv(hue_patch(200), ranges) == 0


class TestCsv:
    def test_round_trip(self):
        ranges = [
            HsvRange(0, 350.25, 372.5, 0.31, 0.22),
            HsvRange(1, 100.0, 140.0, 0.5, 0.4),
        ] + [HsvRange(i, 10.0 * i, 20.0 * i, 0.1, 0.2) for i in range(2, 6)]
        parsed = ranges_from_csv(ranges_to_csv(ranges))
        assert parsed == ranges

    def test_header_validated(self):
        with pytest.raises(ValueError):
            ranges_from_csv("a,b,c\n1,2,3\n")
