"""Synthetic data generation: illumination model, balance, determinism."""

import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rcc import synth
from rcc.baseline import mean_hsv
from rcc.image import Image, read_ppm, write_ppm
from rcc.rng import (
    Xoshiro256StarStar,
    box_muller,
    box_muller_polar,
    derive_stream_seed,
    doubles_from,
)
from rcc.synth import (
    BACKGROUND_LEVEL,
    BRIGHTNESS_MAX,
    BRIGHTNESS_MIN,
    COLOR_CLASSES,
    DEFAULT_JITTER,
    ILLUMINANT_CYCLE,
    ILLUMINANT_PRESETS,
    PATCH_SIZE,
    SCENE_CANVAS,
    IlluminationSpec,
    SampleManifest,
    SampleRecord,
    _scene_rect,
    _spread_picks,
    apply_illumination,
    generate_dataset,
    read_manifest,
    render_patches,
    render_scene,
    render_scenes,
    write_csv,
)
from rcc.segment import BoundRect

from oracles import HAS_AVX512, round_half_away, run_tests_off_avx512, second_call_peak


def flat_image(rgb, w=4, h=4):
    return Image(np.full((h, w, 3), rgb, dtype=np.uint8))


def illuminate(img, spec, noise_seed):
    """`apply_illumination` on one image."""
    return Image(apply_illumination(img.pixels[None], spec, [noise_seed])[0])


def render_patch(color, brightness, spec, seed, jitter=DEFAULT_JITTER):
    """`render_patches` for one patch."""
    return Image(render_patches([color], [brightness], [spec], [seed], jitter)[0])


# The per-image renderer that `render_patches` replaced, kept as its oracle.
def oracle_apply_illumination(img, spec, noise_seed):
    channels = img.pixels.astype(np.float64)
    gains = np.array(spec.gain, dtype=np.float64)
    lit = 255.0 * (gains * channels / 255.0) ** spec.gamma
    lit = round_half_away(lit)
    if spec.noise_std > 0:
        rng = Xoshiro256StarStar(noise_seed)
        noise = spec.noise_std * rng.normals(lit.size).reshape(lit.shape)
        lit = round_half_away(lit + noise)
    return Image(np.clip(lit, 0, 255).astype(np.uint8))


def oracle_render_patch(color, brightness, spec, seed, jitter=DEFAULT_JITTER):
    if not BRIGHTNESS_MIN <= brightness <= BRIGHTNESS_MAX:
        raise ValueError(
            f"brightness {brightness} outside [{BRIGHTNESS_MIN}, {BRIGHTNESS_MAX}]"
        )
    rng = Xoshiro256StarStar(seed)
    base = brightness * np.array(color.base_rgb, dtype=np.float64)
    flat = np.broadcast_to(base, (PATCH_SIZE, PATCH_SIZE, 3)).copy()
    if jitter > 0:
        offsets = rng.integers_below(2 * jitter + 1, flat.size) - jitter
        flat += offsets.reshape(flat.shape)
    noise_seed = rng.next_uint64()
    raw = Image(np.clip(round_half_away(flat), 0, 255).astype(np.uint8))
    return oracle_apply_illumination(raw, spec, noise_seed)


# The per-scene renderer that `render_scenes` replaced, kept as its oracle.
def oracle_render_scene(color, rect, canvas_w, canvas_h, spec, seed, jitter=DEFAULT_JITTER):
    if rect.x + rect.w > canvas_w or rect.y + rect.h > canvas_h:
        raise ValueError(
            f"rect {rect} does not fit canvas {canvas_w}x{canvas_h}"
        )
    rng = Xoshiro256StarStar(seed)
    brightness = BRIGHTNESS_MIN + (BRIGHTNESS_MAX - BRIGHTNESS_MIN) * rng.next_double()
    canvas = np.full((canvas_h, canvas_w, 3), float(BACKGROUND_LEVEL))
    canvas[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] = (
        brightness * np.array(color.base_rgb, dtype=np.float64)
    )
    if jitter > 0:
        offsets = rng.integers_below(2 * jitter + 1, canvas.size) - jitter
        canvas += offsets.reshape(canvas.shape)
    noise_seed = rng.next_uint64()
    raw = Image(np.clip(round_half_away(canvas), 0, 255).astype(np.uint8))
    return oracle_apply_illumination(raw, spec, noise_seed), rect


class TestIllumination:
    def test_half_gain_halves_channels(self):
        out = illuminate(
            flat_image((200, 100, 50)), IlluminationSpec(gain=(0.5, 0.5, 0.5)), 0
        )
        assert out.pixels[0, 0].tolist() == [100, 50, 25]

    def test_gamma_two_squares_normalized_channel(self):
        out = illuminate(flat_image((128, 128, 128)),
                                 IlluminationSpec(gamma=2.0), 0)
        # 255 * (128/255)^2 = 64.25, rounded down to 64
        assert (out.pixels == 64).all()

    def test_identity_spec_is_lossless(self):
        img = flat_image((13, 200, 77))
        assert illuminate(img, IlluminationSpec(), 0) == img

    def test_gain_clips_at_white(self):
        out = illuminate(flat_image((200, 200, 200)),
                                 IlluminationSpec(gain=(1.5, 1.5, 1.5)), 0)
        assert (out.pixels == 255).all()

    def test_noise_is_seed_deterministic(self):
        img = flat_image((120, 120, 120), w=8, h=8)
        spec = IlluminationSpec(noise_std=4.0)
        a = illuminate(img, spec, 99)
        b = illuminate(img, spec, 99)
        c = illuminate(img, spec, 100)
        assert a == b
        assert a != c

    def test_zero_noise_ignores_seed(self):
        img = flat_image((120, 120, 120))
        spec = IlluminationSpec(noise_std=0.0)
        assert illuminate(img, spec, 1) == illuminate(img, spec, 2)

    def test_spec_bounds_enforced(self):
        with pytest.raises(ValueError):
            IlluminationSpec(gain=(0.1, 1.0, 1.0))
        with pytest.raises(ValueError):
            IlluminationSpec(gamma=3.0)
        with pytest.raises(ValueError):
            IlluminationSpec(noise_std=30.0)

    @pytest.mark.parametrize("spec", [
        ILLUMINANT_PRESETS["warm"],
        IlluminationSpec((0.7, 1.1, 1.3), 1.7, 0.0),
        IlluminationSpec((1.2, 0.9, 0.6), 0.6, 2.5),
    ])
    def test_stack_matches_per_image_oracle(self, spec):
        # a 5x3 image has an odd channel count, so each image drops a sine draw
        rng = Xoshiro256StarStar(41)
        pixels = rng.integers_below(256, 6 * 3 * 5 * 3).reshape(6, 3, 5, 3).astype(np.uint8)
        seeds = [int(s) for s in rng.fill_uint64(6)]
        lit = apply_illumination(pixels, spec, seeds)
        assert lit.dtype == np.uint8
        for img, seed, out in zip(pixels, seeds, lit):
            assert np.array_equal(out, oracle_apply_illumination(Image(img), spec, seed).pixels)

    def test_one_noise_seed_per_image(self):
        pixels = np.zeros((3, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="2 noise seeds for 3 images"):
            apply_illumination(pixels, IlluminationSpec(), [0, 1])


# every channel value in every channel, so the whole light table is read
EVERY_VALUE = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(1, 16, 16, 3)
# the Box-Muller radius at the u1 floor 2**-53, and IlluminationSpec's largest std
RADIUS_MAX = math.sqrt(-2.0 * math.log(2.0**-53))
STD_MAX = 25.0


class TestTableLighting:
    """`apply_illumination` gathers from a table of the 256 channel values'
    light; the per-pixel arithmetic of `oracle_apply_illumination` must give
    the same bytes on any spec and stack."""

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.uint8, st.tuples(
            st.integers(1, 4), st.integers(1, 12), st.integers(1, 12), st.just(3))),
        st.tuples(*[st.floats(0.2, 2.0)] * 3),
        st.floats(0.5, 2.0),
        st.sampled_from([0.0, 4.0, STD_MAX]),
        st.integers(0, 2**64 - 1),
    )
    @example(EVERY_VALUE, (0.2, 1.37, 2.0), 0.5, 0.0, 1)
    @example(EVERY_VALUE, (2.0, 0.2, 0.93), 2.0, 4.0, 2)
    @example(EVERY_VALUE, (0.41, 1.0, 1.9), 1.0, 4.0, 3)
    @example(EVERY_VALUE, (1.3, 0.6, 1.0), 0.8, STD_MAX, 4)
    def test_matches_per_pixel_oracle(self, pixels, gain, gamma, noise_std, seed):
        spec = IlluminationSpec(gain, gamma, noise_std)
        seeds = [derive_stream_seed(seed, i) for i in range(len(pixels))]
        lit = apply_illumination(pixels, spec, seeds)
        assert lit.shape == pixels.shape and lit.dtype == np.uint8
        for img, noise_seed, out in zip(pixels, seeds, lit):
            expected = oracle_apply_illumination(Image(img), spec, noise_seed)
            assert out.tobytes() == expected.pixels.tobytes()

    def test_float32_trig_keeps_inside_the_slack(self):
        # The slack holds while the float32 cos and sin of an angle's float32
        # cast lie within NOISE_SLACK / (RADIUS_MAX * STD_MAX) of the float64
        # ones.  They must keep within an eighth of that, so that a numpy
        # whose float32 loops drift fails here before it moves a byte.
        budget = synth.NOISE_SLACK / (RADIUS_MAX * STD_MAX) / 8

        def check(u2=None, angle=None):
            if angle is None:  # Box-Muller's angles of the uniforms u2
                angle = box_muller_polar(np.stack([np.full_like(u2, 0.5), u2], axis=-1))[1]
            angle32 = angle.astype(np.float32)
            for trig in (np.cos, np.sin):
                error = np.abs(trig(angle32).astype(np.float64) - trig(angle))
                assert error.max() <= budget, trig

        for start in range(0, 2**22, 2**20):  # 2*pi*k/2**22, a quarter at a time
            check(np.arange(start, start + 2**20) / 2**22)
        check(np.array([1 - 2.0**-53]))
        quarter_turns = np.arange(5) * (math.pi / 2)
        check(angle=np.concatenate([np.nextafter(quarter_turns, -np.inf)[1:], quarter_turns,
                                    np.nextafter(quarter_turns, np.inf)]))

    def test_values_whose_float32_noise_rounds_apart_are_redone(self, monkeypatch):
        # Every u1 is 0, floored to 2**-53: the largest radius.  Of 2**20
        # angles, keep those whose float32 cosine or sine would round a
        # level-128 value at the largest std otherwise than float64's does.
        raw = np.zeros((2**20, 2), dtype=np.uint64)
        raw[:, 1] = np.arange(2**20, dtype=np.uint64) << np.uint64(44)
        u = doubles_from(raw)
        radius, angle = box_muller_polar(u)
        angle32 = angle.astype(np.float32)
        estimate = radius * np.concatenate([np.cos(angle32), np.sin(angle32)], axis=-1)
        level = 128.0
        flips = np.floor(level + estimate * STD_MAX + 0.5) != np.floor(
            level + box_muller(u) * STD_MAX + 0.5)
        pairs = np.flatnonzero(flips.any(axis=1))
        assert len(pairs) > 0
        raw = raw[np.resize(pairs, -(-len(pairs) // 3) * 6)].reshape(1, -1)  # whole pixels
        monkeypatch.setattr(synth, "fill_streams", lambda seeds, count: raw[:, :count])
        pixels = np.full((1, raw.size // 3, 1, 3), int(level), dtype=np.uint8)
        spec = IlluminationSpec((1.0, 1.0, 1.0), 1.0, STD_MAX)
        noisy = level + (box_muller(doubles_from(raw)) * STD_MAX).reshape(pixels.shape)
        expected = np.clip(round_half_away(noisy), 0, 255).astype(np.uint8)
        assert np.array_equal(apply_illumination(pixels, spec, [0]), expected)

    def test_redoing_every_value_keeps_the_bytes(self, monkeypatch):
        # a slack of half a level leaves no value sure, so each takes the
        # float64 redo, and no byte may move
        pixels = np.concatenate([EVERY_VALUE] * 3 + [np.full_like(EVERY_VALUE, 255)])
        specs = [ILLUMINANT_PRESETS["bright"], IlluminationSpec((0.3, 1.2, 1.9), 1.6, STD_MAX)]
        seeds = [derive_stream_seed(9, i) for i in range(len(pixels))]
        before = [apply_illumination(pixels, spec, seeds) for spec in specs]
        redone = []
        exact = synth.box_muller

        def counted(u):
            redone.append(u.size // 2)
            return exact(u)

        monkeypatch.setattr(synth, "NOISE_SLACK", 0.5)
        monkeypatch.setattr(synth, "box_muller", counted)
        for spec, lit in zip(specs, before):
            redone.clear()
            assert np.array_equal(apply_illumination(pixels, spec, seeds), lit)
            assert sum(redone) == pixels.size


# Off AVX-512, numpy's float32 sin and cos take another SIMD loop (and its
# float64 log another), so the lighting's bound and redo must keep the bytes
# there too.
@pytest.mark.skipif(not HAS_AVX512, reason="CPU lacks AVX-512")
def test_generator_bytes_off_avx512():
    out = run_tests_off_avx512(["tests/test_golden.py::test_generator_bytes_match_golden",
                                "tests/test_synth.py::TestTableLighting"])
    assert "5 passed" in out


PRESET_NAMES = sorted(ILLUMINANT_PRESETS)


class TestBatchRenderer:
    """`render_patches` against the per-patch oracle, byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(COLOR_CLASSES) - 1),
                st.floats(BRIGHTNESS_MIN, BRIGHTNESS_MAX),
                st.integers(0, 2**64 - 1),
                st.sampled_from(PRESET_NAMES),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0, 1, DEFAULT_JITTER, 9]),
    )
    def test_random_patches_match_oracle(self, patches, jitter):
        colors = [COLOR_CLASSES[c] for c, _, _, _ in patches]
        brightness = [b for _, b, _, _ in patches]
        seeds = [s for _, _, s, _ in patches]
        specs = [ILLUMINANT_PRESETS[name] for _, _, _, name in patches]
        batch = render_patches(colors, brightness, specs, seeds, jitter)
        assert batch.shape == (len(patches), PATCH_SIZE, PATCH_SIZE, 3)
        for i, out in enumerate(batch):
            expected = oracle_render_patch(colors[i], brightness[i], specs[i], seeds[i], jitter)
            assert out.tobytes() == expected.pixels.tobytes(), i

    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_custom_specs_match_oracle(self, jitter):
        specs = [
            IlluminationSpec((0.7, 1.1, 1.3), 1.7, 0.0),
            ILLUMINANT_PRESETS["dim"],
            IlluminationSpec((1.0, 1.0, 1.0), 0.6, 0.0),
            IlluminationSpec((0.7, 1.1, 1.3), 1.7, 0.0),
        ]
        colors = [COLOR_CLASSES[i] for i in (5, 0, 3, 2)]
        brightness = [0.2, 0.45, 0.8, 1.0]
        seeds = [3, 2**63 + 5, 77, 3]
        batch = render_patches(colors, brightness, specs, seeds, jitter)
        for i, out in enumerate(batch):
            expected = oracle_render_patch(colors[i], brightness[i], specs[i], seeds[i], jitter)
            assert out.tobytes() == expected.pixels.tobytes(), i

    def test_one_of_each_per_patch(self):
        spec = IlluminationSpec()
        with pytest.raises(ValueError, match="per patch"):
            render_patches(COLOR_CLASSES[:2], [0.5, 0.6], [spec], [0, 1])

    def test_any_brightness_out_of_range_rejected(self):
        spec = IlluminationSpec()
        with pytest.raises(ValueError, match="brightness 1.5"):
            render_patches(COLOR_CLASSES[:2], [0.5, 1.5], [spec, spec], [0, 1])


class TestSceneRenderer:
    """`render_scenes` against the per-scene oracle, byte for byte."""

    @pytest.mark.parametrize("canvas", [(40, 30), SCENE_CANVAS])
    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_mixed_illuminants_match_oracle(self, canvas, jitter):
        specs = [
            ILLUMINANT_PRESETS["warm"],
            IlluminationSpec((0.7, 1.1, 1.3), 1.7, 0.0),
            ILLUMINANT_PRESETS["dim"],
            ILLUMINANT_PRESETS["warm"],
            IlluminationSpec((1.2, 0.9, 0.6), 0.6, 2.5),
        ]
        colors = [COLOR_CLASSES[i] for i in (0, 5, 3, 2, 4)]
        rects = [BoundRect(4, 4, 24, 24), BoundRect(0, 0, 1, 1), BoundRect(10, 3, 30, 27),
                 BoundRect(4, 4, 24, 24), BoundRect(5, 6, 7, 8)]
        seeds = [3, 2**64 - 1, 77, 3, 2**40 + 7]
        batch = render_scenes(colors, rects, *canvas, specs, seeds, jitter)
        assert batch.shape == (len(seeds), canvas[1], canvas[0], 3)
        assert batch.dtype == np.uint8
        for i, out in enumerate(batch):
            expected, _ = oracle_render_scene(
                colors[i], rects[i], *canvas, specs[i], seeds[i], jitter
            )
            assert out.tobytes() == expected.pixels.tobytes(), i

    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_one_scene_matches_oracle(self, jitter):
        rect = BoundRect(9, 7, 33, 41)
        spec = ILLUMINANT_PRESETS["bright"]
        (out,) = render_scenes([COLOR_CLASSES[1]], [rect], *SCENE_CANVAS, [spec], [12], jitter)
        expected, _ = oracle_render_scene(COLOR_CLASSES[1], rect, *SCENE_CANVAS, spec, 12, jitter)
        assert out.tobytes() == expected.pixels.tobytes()
        scene, truth = render_scene(COLOR_CLASSES[1], rect, *SCENE_CANVAS, spec, 12, jitter)
        assert scene == expected and truth == rect

    def test_no_scenes(self):
        batch = render_scenes([], [], *SCENE_CANVAS, [], [])
        assert batch.shape == (0, SCENE_CANVAS[1], SCENE_CANVAS[0], 3)
        assert batch.dtype == np.uint8

    def test_one_of_each_per_scene(self):
        spec = IlluminationSpec()
        with pytest.raises(ValueError, match="per scene"):
            render_scenes(COLOR_CLASSES[:2], [BoundRect(0, 0, 4, 4)], 8, 8, [spec] * 2, [0, 1])

    def test_any_rect_off_canvas_rejected(self):
        spec = IlluminationSpec()
        rects = [BoundRect(0, 0, 4, 4), BoundRect(5, 0, 4, 4)]
        with pytest.raises(ValueError, match="does not fit canvas 8x8"):
            render_scenes(COLOR_CLASSES[:2], rects, 8, 8, [spec] * 2, [0, 1])


# pixels per render chunk: images of EDGE +- 1 or 2 pixels end a value or a
# Box-Muller pair past (or short of) a chunk edge, and EDGE // k pixels put
# k images in a chunk
EDGE = synth.CHUNK_VALUES // 3
EDGE_COUNTS = [EDGE - 2, EDGE - 1, EDGE, EDGE + 1, EDGE + 2, 2 * EDGE + 1]
LIGHTS = [*PRESET_NAMES, "gamma 1.6"]


def light(name):
    if name == "gamma 1.6":
        return IlluminationSpec((0.7, 1.1, 1.3), 1.6, 0.0)
    return ILLUMINANT_PRESETS[name]


@st.composite
def chunk_stacks(draw):
    """(n, h, w) of an image stack whose images are small, odd-sized, one
    pixel, or at a chunk edge, with at most a few chunks' worth of pixels."""
    count = draw(st.one_of(
        st.integers(1, 40),
        st.sampled_from(EDGE_COUNTS),
        st.integers(1, 70).flatmap(lambda k: st.sampled_from([EDGE // k - 1, EDGE // k, EDGE // k + 1])),
    ))
    n = draw(st.integers(0, min(70, 4 * EDGE // count)))
    h = draw(st.sampled_from([d for d in (1, 2, 3) if count % d == 0]))
    return n, h, count // h


class TestChunkEdges:
    """The chunked renderers against their oracles where a chunk ends."""

    def test_chunks_hold_whole_pixels_and_pairs(self):
        assert synth.CHUNK_VALUES % 6 == 0

    @settings(max_examples=40, deadline=None)
    @given(chunk_stacks(), st.sampled_from(LIGHTS), st.integers(0, 2**64 - 1))
    @example((1, 1, 1), "identity", 5)
    @example((3, 1, EDGE + 1), "dim", 6)
    @example((2, 1, EDGE - 1), "warm", 7)
    @example((1, 2, EDGE // 2 + 1), "bright", 8)
    @example((2, 1, 2 * EDGE + 1), "gamma 1.6", 9)
    @example((70, 1, EDGE // 35 + 1), "cool", 10)
    def test_stack_matches_per_image_oracle(self, stack, name, seed):
        n, h, w = stack
        draws = np.random.default_rng(seed)
        pixels = draws.integers(0, 256, (n, h, w, 3), dtype=np.uint8)
        seeds = [int(s) for s in draws.integers(0, 2**63, n)]
        lit = apply_illumination(pixels, light(name), seeds)
        assert lit.shape == pixels.shape and lit.dtype == np.uint8
        for img, noise_seed, out in zip(pixels, seeds, lit):
            expected = oracle_apply_illumination(Image(img), light(name), noise_seed)
            assert out.tobytes() == expected.pixels.tobytes()

    @pytest.mark.parametrize("n", [EDGE // 1024 - 1, EDGE // 1024, EDGE // 1024 + 1, 70])
    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_patch_blocks_across_chunks_match_oracle(self, n, jitter):
        colors = [COLOR_CLASSES[i % 6] for i in range(n)]
        brightness = [BRIGHTNESS_MIN + 0.8 * i / n for i in range(n)]
        specs = [light(LIGHTS[i % len(LIGHTS)]) for i in range(n)]
        seeds = [2**64 - 1 - 7 * i for i in range(n)]
        batch = render_patches(colors, brightness, specs, seeds, jitter)
        for i, out in enumerate(batch):
            expected = oracle_render_patch(colors[i], brightness[i], specs[i], seeds[i], jitter)
            assert out.tobytes() == expected.pixels.tobytes(), i

    @pytest.mark.parametrize("canvas", [(EDGE + 1, 1), (EDGE // 2 - 1, 2), (EDGE // 2 + 1, 2),
                                        (EDGE // 8, 3), (640, 480)])
    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_scenes_across_chunks_match_oracle(self, canvas, jitter):
        w, h = canvas
        n = 1 if w * h > EDGE else 4
        colors = [COLOR_CLASSES[i] for i in range(n)]
        rects = [BoundRect(i, 0, w // 2, 1) for i in range(n)]
        specs = [light(LIGHTS[3 * i % len(LIGHTS)]) for i in range(n)]
        seeds = [31 + i for i in range(n)]
        batch = render_scenes(colors, rects, w, h, specs, seeds, jitter)
        for i, out in enumerate(batch):
            expected, _ = oracle_render_scene(colors[i], rects[i], w, h, specs[i], seeds[i], jitter)
            assert out.tobytes() == expected.pixels.tobytes(), i


class TestMemoryBounds:
    """A render holds no whole-image float copies, so these traced peaks
    stay far below what whole-stack float arrays cost (a 640x480 render
    traced 46-54 MB when it held them, a default dataset 28-29 MB)."""

    @pytest.mark.parametrize("jitter", [0, DEFAULT_JITTER])
    def test_large_scene(self, jitter):
        rect = BoundRect(100, 80, 200, 150)
        spec = ILLUMINANT_PRESETS["warm"]
        peak = second_call_peak(
            lambda: render_scene(COLOR_CLASSES[2], rect, 640, 480, spec, 7, jitter)
        )
        assert peak <= 32e6

    def test_default_dataset(self, tmp_path):
        peak = second_call_peak(lambda: generate_dataset(tmp_path))
        assert peak <= 24e6


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
        pixels = np.array([[[c.base_rgb]] for c in COLOR_CLASSES], dtype=np.uint8)
        hues = [h if h > 5 else 0.0 for h in mean_hsv(pixels)[:, 0].tolist()]
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
        text = write_csv(SampleRecord, ())
        assert text == "filename,class_index,class_name,split,brightness_gain,illuminant_name,seed\n"
        # each field is written as the repr of its Python value, numpy's too
        gains = (0.1 + 0.2, 5e-324, -0.0, 1e16, np.float64(1 / 3))
        records = tuple(
            SampleRecord(f"{i}.ppm", 0, "red", "test", gain, "identity", 2**64 - 1)
            for i, gain in enumerate(gains)
        )
        lines = write_csv(SampleRecord, records).split("\n")
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

    @pytest.mark.parametrize(
        "total, train, seed, scenes, block",
        [
            (7, 3, 5, 2, synth.BLOCK_VALUES),
            (7, 3, 2**40 + 7, 0, synth.BLOCK_VALUES),
            # blocks of three patches and of one scene
            (7, 3, 1, 3, 3 * PATCH_SIZE * PATCH_SIZE * 3),
        ],
    )
    def test_matches_oracle_loop(self, tmp_path, monkeypatch, total, train, seed, scenes, block):
        """Every file equals the one the per-file loop wrote, at counts
        the golden file does not cover and across render blocks."""
        monkeypatch.setattr(synth, "BLOCK_VALUES", block)
        manifest = generate_dataset(tmp_path, total=total, train=train, seed=seed, scenes=scenes)
        expected = oracle_dataset(total, train, seed, scenes)
        assert [r.filename for r in manifest.records] + [s.filename for s in manifest.scenes] \
            == list(expected)
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name


def oracle_dataset(total, train, seed, scenes):
    """{filename: bytes} of the patches and scenes, one render call each."""
    class_counts = synth._balanced_counts(total, len(COLOR_CLASSES))
    files = {}
    seen = [0] * len(COLOR_CLASSES)
    for i in range(total):
        color = COLOR_CLASSES[i % len(COLOR_CLASSES)]
        j = seen[color.index]
        seen[color.index] += 1
        n_k = class_counts[color.index]
        ramp = j / (n_k - 1) if n_k > 1 else 0.0
        brightness = BRIGHTNESS_MIN + (BRIGHTNESS_MAX - BRIGHTNESS_MIN) * ramp
        spec = ILLUMINANT_PRESETS[ILLUMINANT_CYCLE[i % len(ILLUMINANT_CYCLE)]]
        patch = oracle_render_patch(color, brightness, spec, derive_stream_seed(seed, i))
        files[f"patch_{i:04d}.ppm"] = write_ppm(patch)
    for s in range(scenes):
        rng = Xoshiro256StarStar(derive_stream_seed(seed, total + s))
        rect = _scene_rect(rng, *SCENE_CANVAS)
        scene, _ = oracle_render_scene(
            COLOR_CLASSES[s % len(COLOR_CLASSES)], rect, *SCENE_CANVAS,
            ILLUMINANT_PRESETS[ILLUMINANT_CYCLE[s % len(ILLUMINANT_CYCLE)]], rng.next_uint64(),
        )
        files[f"scene_{s:02d}.ppm"] = write_ppm(scene)
    return files
