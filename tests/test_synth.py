"""Synthetic data generation: illumination model, balance, determinism."""

from collections import Counter

import numpy as np
import pytest

from rcc.image import Image, read_ppm, rgb_to_hsv
from rcc.synth import (
    BACKGROUND_LEVEL,
    COLOR_CLASSES,
    ILLUMINANT_CYCLE,
    ILLUMINANT_PRESETS,
    IlluminationSpec,
    SampleManifest,
    SampleRecord,
    _spread_picks,
    apply_illumination,
    generate_dataset,
    manifest_to_csv,
    read_manifest,
    render_patch,
    render_scene,
)
from rcc.segment import BoundRect


def flat_image(rgb, w=4, h=4):
    return Image(np.full((h, w, 3), rgb, dtype=np.uint8))


class TestIllumination:
    def test_half_gain_halves_channels(self):
        out = apply_illumination(
            flat_image((200, 100, 50)), IlluminationSpec(gain=(0.5, 0.5, 0.5)), 0
        )
        assert out.pixels[0, 0].tolist() == [100, 50, 25]

    def test_gamma_two_squares_normalized_channel(self):
        out = apply_illumination(flat_image((128, 128, 128)),
                                 IlluminationSpec(gamma=2.0), 0)
        # 255 * (128/255)^2 = 64.25, rounded down to 64
        assert (out.pixels == 64).all()

    def test_identity_spec_is_lossless(self):
        img = flat_image((13, 200, 77))
        assert apply_illumination(img, IlluminationSpec(), 0) == img

    def test_gain_clips_at_white(self):
        out = apply_illumination(flat_image((200, 200, 200)),
                                 IlluminationSpec(gain=(1.5, 1.5, 1.5)), 0)
        assert (out.pixels == 255).all()

    def test_noise_is_seed_deterministic(self):
        img = flat_image((120, 120, 120), w=8, h=8)
        spec = IlluminationSpec(noise_std=4.0)
        a = apply_illumination(img, spec, 99)
        b = apply_illumination(img, spec, 99)
        c = apply_illumination(img, spec, 100)
        assert a == b
        assert a != c

    def test_zero_noise_ignores_seed(self):
        img = flat_image((120, 120, 120))
        spec = IlluminationSpec(noise_std=0.0)
        assert apply_illumination(img, spec, 1) == apply_illumination(img, spec, 2)

    def test_spec_bounds_enforced(self):
        with pytest.raises(ValueError):
            IlluminationSpec(gain=(0.1, 1.0, 1.0))
        with pytest.raises(ValueError):
            IlluminationSpec(gamma=3.0)
        with pytest.raises(ValueError):
            IlluminationSpec(noise_std=30.0)


class TestRenderers:
    def test_patch_determinism(self):
        color = COLOR_CLASSES[0]
        spec = ILLUMINANT_PRESETS["warm"]
        a = render_patch(color, 0.7, spec, seed=5)
        b = render_patch(color, 0.7, spec, seed=5)
        assert a == b
        assert a != render_patch(color, 0.7, spec, seed=6)

    def test_patch_brightness_bounds(self):
        with pytest.raises(ValueError):
            render_patch(COLOR_CLASSES[0], 0.1, IlluminationSpec(), seed=0)

    def test_patch_tracks_base_color(self):
        patch = render_patch(
            COLOR_CLASSES[4], 1.0, IlluminationSpec(), seed=3, jitter=0
        )
        mean = patch.pixels.astype(float).mean(axis=(0, 1))
        assert mean[2] > mean[0] + 50 and mean[2] > mean[1] + 50  # blue dominates

    def test_scene_background_near_white(self):
        rect = BoundRect(10, 10, 24, 24)
        scene, truth = render_scene(
            COLOR_CLASSES[0], rect, 64, 64, IlluminationSpec(), seed=2, jitter=0
        )
        assert truth == rect
        corner = scene.pixels[:5, :5]
        assert abs(float(corner.mean()) - BACKGROUND_LEVEL) < 2

    def test_scene_rect_must_fit(self):
        with pytest.raises(ValueError):
            render_scene(
                COLOR_CLASSES[0], BoundRect(50, 0, 24, 24), 64, 64,
                IlluminationSpec(), seed=0,
            )


class TestClassPalette:
    def test_hues_are_in_spectrum_order(self):
        hues = [
            rgb_to_hsv(*c.base_rgb).h if rgb_to_hsv(*c.base_rgb).h > 5 else 0.0
            for c in COLOR_CLASSES
        ]
        assert hues == sorted(hues)
        assert len(set(int(h // 20) for h in hues)) == 6  # well separated

    def test_names_align_with_indices(self):
        for i, c in enumerate(COLOR_CLASSES):
            assert c.index == i


class TestSpreadPicks:
    def test_exact_quota(self):
        for n in (1, 7, 41, 42):
            for quota in range(0, n + 1):
                picks = _spread_picks(n, quota)
                assert len(picks) == quota
                assert all(0 <= j < n for j in picks)

    def test_even_coverage(self):
        picks = sorted(_spread_picks(40, 8))
        gaps = np.diff(picks)
        assert gaps.min() >= 4 and gaps.max() <= 6


class TestManifest:
    def test_duplicate_filenames_rejected(self):
        record = SampleRecord("a.ppm", 0, "red", "train", 0.5, "identity", 1)
        with pytest.raises(ValueError):
            SampleManifest(records=(record, record))

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="unknown split 'val'"):
            SampleRecord("a.ppm", 0, "red", "val", 0.5, "identity", 1)

    def test_csv_header(self):
        text = manifest_to_csv(SampleManifest(records=()))
        assert text == "filename,class_index,class_name,split,brightness_gain,illuminant_name,seed\n"
        # each field is written as the repr of its Python value, numpy's too
        gains = (0.1 + 0.2, 5e-324, -0.0, 1e16, np.float64(1 / 3))
        records = tuple(
            SampleRecord(f"{i}.ppm", 0, "red", "test", gain, "identity", 2**64 - 1)
            for i, gain in enumerate(gains)
        )
        lines = manifest_to_csv(SampleManifest(records=records)).split("\n")
        assert lines[1:] == [
            ",".join((f"{i}.ppm", "0", "red", "test", repr(float(gain)), "identity",
                      repr(2**64 - 1)))
            for i, gain in enumerate(gains)
        ] + [""]


class TestGenerateDataset:
    def test_small_dataset_structure(self, tmp_path):
        manifest = generate_dataset(tmp_path, total=30, train=24, seed=7, scenes=3)
        assert len(manifest.records) == 30
        assert len(manifest.split("train")) == 24
        assert len(manifest.split("test")) == 6
        by_class = Counter(r.class_index for r in manifest.records)
        assert by_class == Counter({i: 5 for i in range(6)})
        test_by_class = Counter(r.class_index for r in manifest.split("test"))
        assert test_by_class == Counter({i: 1 for i in range(6)})
        for record in manifest.records[:5]:
            img = read_ppm((tmp_path / record.filename).read_bytes())
            assert img.width == 32 and img.height == 32
        assert len(manifest.scenes) == 3
        assert manifest.scenes[0].illuminant_name == ILLUMINANT_CYCLE[0]

    def test_round_trips_through_csv(self, tmp_path):
        manifest = generate_dataset(tmp_path, total=12, train=6, seed=1, scenes=2)
        assert read_manifest(tmp_path) == manifest

    def test_byte_identical_regeneration(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        generate_dataset(dir_a, total=12, train=6, seed=3, scenes=2)
        generate_dataset(dir_b, total=12, train=6, seed=3, scenes=2)
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_different_seeds_differ(self, tmp_path):
        generate_dataset(tmp_path / "a", total=12, train=6, seed=0, scenes=0)
        generate_dataset(tmp_path / "b", total=12, train=6, seed=1, scenes=0)
        a = (tmp_path / "a" / "patch_0000.ppm").read_bytes()
        b = (tmp_path / "b" / "patch_0000.ppm").read_bytes()
        assert a != b

    def test_brightness_ramp_spans_full_range(self, tmp_path):
        manifest = generate_dataset(tmp_path, total=30, train=24, seed=0, scenes=0)
        per_class = [r.brightness_gain for r in manifest.records if r.class_index == 0]
        assert min(per_class) == pytest.approx(0.2)
        assert max(per_class) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "csv_name, old, new",
        [
            ("manifest.csv", ",0,red,", ",9,red,"),
            ("manifest.csv", ",0,red,", ",-1,red,"),
            ("manifest.csv", ",0,red,", ",0,blue,"),
            ("scenes.csv", ",0,red,", ",6,red,"),
            ("scenes.csv", ",0,red,", ",0,green,"),
        ],
    )
    def test_read_manifest_rejects_bad_class(self, tmp_path, csv_name, old, new):
        generate_dataset(tmp_path, total=12, train=6, seed=0, scenes=1)
        path = tmp_path / csv_name
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ValueError, match="class_"):
            read_manifest(tmp_path)

    def test_train_count_must_leave_a_test_split(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(tmp_path, total=10, train=10, seed=0)
