"""Fixed HSV range classifier tests, including the hue wrap at 0 degrees."""

import colorsys
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcc.baseline import (
    CalibrationError,
    HsvRange,
    calibrate_ranges,
    channel_means,
    classify_hsv,
    count_hsv_hits,
    mean_hsv,
    ranges_from_csv,
)
from rcc.synth import write_csv


def flat(*colors):
    """A stack of solid 4x4 patches, one per (r, g, b) color."""
    return np.stack([np.full((4, 4, 3), rgb, dtype=np.uint8) for rgb in colors])


def hue_rgb(hue_deg, s=0.9, v=0.9):
    """The (r, g, b) of a hue via inverse hexcone conversion."""
    c = v * s
    x = c * (1 - abs((hue_deg / 60.0) % 2 - 1))
    m = v - c
    sector = int(hue_deg // 60) % 6
    rgb = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    return tuple(round(255 * (u + m)) for u in rgb)


def hue_stack(*hues):
    """A stack of solid patches, one per hue."""
    return flat(*map(hue_rgb, hues))


def fit(clusters):
    """calibrate_ranges on one patch per hue, where clusters[k] holds the
    hues of class k."""
    hues = [h for cluster in clusters for h in cluster]
    labels = [k for k, cluster in enumerate(clusters) for _ in cluster]
    return calibrate_ranges(hue_stack(*hues), labels)


patch_stacks = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 6), st.just(3)),
)


class TestMeanHsv:
    @given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 40),
                                          st.integers(1, 40), st.just(3)),
                      elements=st.sampled_from([0, 1, 127, 128, 254, 255]) | st.integers(0, 255)))
    @example(np.full((2, 33, 31, 3), 255, dtype=np.uint8))
    def test_channel_means_are_the_float64_means(self, patches):
        expected = patches.mean(axis=(1, 2), dtype=np.float64)
        assert channel_means(patches).tobytes() == expected.tobytes()

    def test_primary_corners(self):
        hsv = mean_hsv(flat((255, 0, 0), (0, 255, 0), (0, 0, 255), (255, 255, 0)))
        assert hsv.tolist() == [
            [0.0, 1.0, 1.0], [120.0, 1.0, 1.0], [240.0, 1.0, 1.0], [60.0, 1.0, 1.0],
        ]

    def test_achromatic_pins_hue_to_zero(self):
        (h, s, v), = mean_hsv(flat((128, 128, 128)))
        assert h == 0.0
        assert s == 0.0
        assert math.isclose(v, 128 / 255)

    def test_black(self):
        assert mean_hsv(flat((0, 0, 0))).tolist() == [[0.0, 0.0, 0.0]]

    @given(patch_stacks)
    def test_ranges_hold_everywhere(self, patches):
        h, s, v = mean_hsv(patches).T
        assert ((0.0 <= h) & (h < 360.0)).all()
        assert ((0.0 <= s) & (s <= 1.0)).all()
        assert ((0.0 <= v) & (v <= 1.0)).all()
        assert (h[s == 0.0] == 0.0).all()

    @given(patch_stacks)
    def test_matches_colorsys(self, patches):
        """Each row against stdlib colorsys on the patch's mean pixel; hue
        is compared around the circle, where 0 and 360 meet."""
        hsv = mean_hsv(patches)
        assert hsv.shape == (len(patches), 3)
        for patch, (h, s, v) in zip(patches, hsv):
            mean = patch.astype(np.float64).mean(axis=(0, 1)) / 255.0
            h_ref, s_ref, v_ref = colorsys.rgb_to_hsv(*mean.tolist())
            assert abs((h - 360.0 * h_ref + 180.0) % 360.0 - 180.0) < 1e-9
            assert abs(s - s_ref) < 1e-9
            assert abs(v - v_ref) < 1e-9


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

    def test_containment_is_elementwise(self):
        r = HsvRange(0, h_min=350.0, h_max=370.0, s_min=0.2, v_min=0.2)
        h = np.array([355.0, 5.0, 30.0, 355.0, 5.0])
        s = np.array([0.5, 0.5, 0.5, 0.1, 0.5])
        v = np.array([0.5, 0.5, 0.5, 0.5, 0.1])
        assert r.contains(h, s, v).tolist() == [True, True, False, False, False]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            HsvRange(0, h_min=-1.0, h_max=10.0, s_min=0.0, v_min=0.0)
        with pytest.raises(ValueError):
            HsvRange(0, h_min=50.0, h_max=40.0, s_min=0.0, v_min=0.0)
        with pytest.raises(ValueError):
            HsvRange(0, h_min=0.0, h_max=10.0, s_min=1.5, v_min=0.0)


class TestCalibration:
    def test_two_clusters_get_separating_ranges(self):
        ranges = fit([(115, 120, 125), (235, 240, 245), [0], [60], [180], [300]])
        green, blue = ranges[:2]
        assert green.h_min <= 120 <= green.h_max
        assert blue.h_min <= 240 <= blue.h_max
        assert classify_hsv(hue_stack(120, 240), ranges).tolist() == [0, 1]

    def test_red_cluster_wrapping_zero(self):
        r = fit([(350, 355, 5, 10), [60], [120], [180], [240], [300]])[0]
        assert r.contains(*mean_hsv(hue_stack(355, 5)).T).all()
        assert not r.contains(180.0, 0.9, 0.9)

    def test_single_sample_degenerates_to_a_point(self):
        r = fit([[60], [0], [120], [180], [240], [300]])[0]
        assert r.h_max - r.h_min == pytest.approx(0.0, abs=1e-9)
        hue = mean_hsv(hue_stack(60))[0, 0]
        # zero-width window sits on the sample hue up to float error
        assert abs((r.h_min - hue + 180.0) % 360.0 - 180.0) < 1e-9

    def test_missing_class_raises(self):
        with pytest.raises(CalibrationError, match="no samples for class 5"):
            fit([[0], [60], [120], [180], [240]])

    def test_label_out_of_range_rejected(self):
        for label in (6, -1):
            with pytest.raises(ValueError, match=f"class index {label} out of range"):
                calibrate_ranges(hue_stack(10, 20), [0, label])

    def test_label_count_must_match_patches(self):
        with pytest.raises(ValueError, match="1 labels for 2 patches"):
            calibrate_ranges(hue_stack(10, 20), [0])


class TestClassification:
    def test_no_match_returns_none(self):
        """No matching range is class -1, "none"."""
        ranges = [HsvRange(0, 100.0, 140.0, 0.3, 0.3)]
        assert classify_hsv(hue_stack(0), ranges).tolist() == [-1]

    def test_desaturated_input_rejected_by_floor(self):
        ranges = [HsvRange(0, 0.0, 360.0, 0.5, 0.0)]
        assert classify_hsv(flat((128, 128, 128)), ranges).tolist() == [-1]

    def test_overlapping_ranges_resolve_to_lowest_index(self):
        ranges = [
            HsvRange(1, 0.0, 360.0, 0.0, 0.0),
            HsvRange(0, 0.0, 360.0, 0.0, 0.0),
        ]
        assert classify_hsv(hue_stack(200), ranges).tolist() == [0]

    def test_one_class_per_row(self):
        ranges = [
            HsvRange(0, 100.0, 140.0, 0.3, 0.3),
            HsvRange(1, 220.0, 260.0, 0.3, 0.3),
            HsvRange(2, 0.0, 360.0, 0.0, 0.0),
        ]
        patches = np.concatenate([hue_stack(120, 0, 240), flat((128, 128, 128))])
        assert classify_hsv(patches, ranges).tolist() == [0, 2, 1, 2]
        assert count_hsv_hits(patches, [0, 1, 1, 2], ranges) == 3


class TestCsv:
    def test_round_trip(self):
        ranges = [
            HsvRange(0, 350.25, 372.5, 0.31, 0.22),
            HsvRange(1, 100.0, 140.0, 0.5, 0.4),
        ] + [HsvRange(i, 10.0 * i, 20.0 * i, 0.1, 0.2) for i in range(2, 6)]
        parsed = ranges_from_csv(write_csv(HsvRange, ranges))
        assert parsed == ranges

    def test_header_validated(self):
        with pytest.raises(ValueError):
            ranges_from_csv("a,b,c\n1,2,3\n")
