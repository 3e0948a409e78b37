"""Deterministic synthetic data: color patches and scenes under varied light.

Six reference colors are rendered as 32x32 patches across a dark-to-light
brightness ramp and a cycle of named illuminants, plus full scenes (a
colored rectangle on a near-white canvas) for end-to-end detection tests.
Every file is generated from its own PRNG stream derived as seed XOR file
index, so output is byte-stable and order-independent.

Patches and scenes are rendered in batches: one multi-stream fill gives
every image's draws, the renderer paints its float stack, and one shared
tail adds the jitter, rounds the stack and lights the images under one
illuminant in one call. `generate_dataset` renders in blocks of at most
BLOCK_VALUES channel values, so no count of files draws a larger array
than that; the tail and the lighting's noise work in chunks of
CHUNK_VALUES values, so only the painted canvas is a whole-stack float
array. Lighting looks each channel value up in a table of the 256 values'
noise-free light, computed once per call.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .image import Image, round_half_up, to_uint8, write_ppm
from .net import CLASS_NAMES, INPUT_SIZE
from .rng import (
    Xoshiro256StarStar,
    box_muller,
    derive_stream_seed,
    doubles_from,
    fill_streams,
    integers_below_from,
)
from .segment import BoundRect

T = TypeVar("T")


@dataclass(frozen=True)
class ColorClass:
    """One nameable color with its reference RGB triple."""

    index: int
    name: str
    base_rgb: tuple[int, int, int]


# Spectrum order; the RGB anchors keep neighboring hues distinct but close
# enough that fixed hue ranges genuinely overlap under tinted light.
COLOR_CLASSES: tuple[ColorClass, ...] = (
    ColorClass(0, CLASS_NAMES[0], (220, 30, 30)),   # red
    ColorClass(1, CLASS_NAMES[1], (240, 140, 20)),  # orange
    ColorClass(2, CLASS_NAMES[2], (235, 220, 40)),  # yellow
    ColorClass(3, CLASS_NAMES[3], (30, 180, 60)),   # green
    ColorClass(4, CLASS_NAMES[4], (30, 80, 220)),   # blue
    ColorClass(5, CLASS_NAMES[5], (140, 40, 180)),  # purple
)

BRIGHTNESS_MIN = 0.2
BRIGHTNESS_MAX = 1.0

PATCH_SIZE = INPUT_SIZE
DEFAULT_JITTER = 5
BLOCK_VALUES = 1 << 20  # channel values per render call; bounds generate_dataset's memory
CHUNK_VALUES = 3 << 14  # channel values per float array of a render: whole pixels and pairs
SCENE_CANVAS = (128, 96)  # (width, height)
BACKGROUND_LEVEL = 245


@dataclass(frozen=True)
class IlluminationSpec:
    """Per-channel gain, gamma, and additive Gaussian noise level."""

    gain: tuple[float, float, float] = (1.0, 1.0, 1.0)
    gamma: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        for g in self.gain:
            if not 0.2 <= g <= 2.0:
                raise ValueError(f"gain {g} outside [0.2, 2.0]")
        if not 0.5 <= self.gamma <= 2.0:
            raise ValueError(f"gamma {self.gamma} outside [0.5, 2.0]")
        if not 0.0 <= self.noise_std <= 25.0:
            raise ValueError(f"noise_std {self.noise_std} outside [0, 25]")


NOISE_STD = 4.0

ILLUMINANT_PRESETS: dict[str, IlluminationSpec] = {
    "identity": IlluminationSpec((1.0, 1.0, 1.0), 1.0, NOISE_STD),
    "warm": IlluminationSpec((1.15, 1.0, 0.8), 1.0, NOISE_STD),
    "cool": IlluminationSpec((0.85, 0.95, 1.2), 1.0, NOISE_STD),
    "dim": IlluminationSpec((0.5, 0.5, 0.5), 1.0, NOISE_STD),
    "bright": IlluminationSpec((1.5, 1.5, 1.5), 1.0, NOISE_STD),
}

ILLUMINANT_CYCLE = ("identity", "warm", "cool", "dim", "bright")


def _chunks(n: int, count: int) -> Iterator[tuple[tuple, tuple]]:
    """(pixel chunk, draw columns) index pairs over an (n, count, 3) stack and
    its (n, 3 * count + extra) draws, at most CHUNK_VALUES values a chunk.
    A chunk is whole images or a run of one image's pixels, so it holds whole
    pixels and whole Box-Muller pairs; an image's last run takes its extras."""
    step = CHUNK_VALUES // 3
    rows = max(1, step // max(count, 1))
    for i in range(0, n, rows):
        for j in range(0, count, step):
            pixels = np.s_[i : i + rows, j : j + step]
            yield pixels, np.s_[i : i + rows, 3 * j : 3 * j + CHUNK_VALUES]


def apply_illumination(
    pixels: np.ndarray, spec: IlluminationSpec, noise_seeds: Sequence[int]
) -> np.ndarray:
    """Per channel: out = clamp(round(255*(gain*c/255)^gamma) + noise).

    `pixels` is a stack of images, (n, h, w, 3) uint8. The noise-free light
    of all 256 values of each channel is computed once, as a (256, 3) table,
    and gathered per channel. Image i's noise is Gaussian with the spec's
    std, drawn row-major from a stream seeded with noise_seeds[i], and added
    to the gathered values a chunk of at most CHUNK_VALUES values at a time;
    std 0 draws nothing.
    """
    if len(noise_seeds) != len(pixels):
        raise ValueError(f"{len(noise_seeds)} noise seeds for {len(pixels)} images")
    light = np.arange(256, dtype=np.float64)[:, None] * np.array(spec.gain, dtype=np.float64)
    light /= 255.0
    light **= spec.gamma
    light *= 255.0
    round_half_up(light)  # light >= 0
    n, count = len(pixels), math.prod(pixels.shape[1:-1])
    images = pixels.reshape(n, count, 3)
    if spec.noise_std == 0:
        return _gather(to_uint8(light), images).reshape(pixels.shape)
    out = np.empty(images.shape, dtype=np.uint8)
    # Box-Muller takes uniform pairs; an odd size drops its last sine sample
    raw = fill_streams(noise_seeds, 3 * count + count % 2)
    for chunk, draws in _chunks(n, count):
        lit = _gather(light, images[chunk])
        noise = box_muller(doubles_from(raw[draws]))[:, : 3 * lit.shape[1]]
        lit += noise.reshape(lit.shape) * spec.noise_std
        out[chunk] = to_uint8(lit)
    return out.reshape(pixels.shape)


def _gather(table: np.ndarray, images: np.ndarray) -> np.ndarray:
    """table[v, c] for each channel value v of channel c of an (n, count, 3)
    uint8 stack, in the table's dtype."""
    out = np.empty(images.shape, dtype=table.dtype)
    for c in range(3):
        out[..., c] = np.take(table[:, c], images[..., c])
    return out


def _brightness(value: float) -> float:
    """`value`, checked to lie in [BRIGHTNESS_MIN, BRIGHTNESS_MAX] (nan does not)."""
    if not BRIGHTNESS_MIN <= value <= BRIGHTNESS_MAX:
        raise ValueError(f"brightness {value} outside [{BRIGHTNESS_MIN}, {BRIGHTNESS_MAX}]")
    return value


def _jitter_and_light(
    paint: Callable[[], tuple[np.ndarray, np.ndarray]],
    specs: Sequence[IlluminationSpec],
    jitter: int,
) -> np.ndarray:
    """Image i of the (n, pixels, 3) float stack from ``canvas, raw = paint()``,
    plus integer jitter of up to +-jitter per channel from the draws raw[i, :-1],
    rounded a chunk at a time, then lit under specs[i] with noise seed raw[i, -1],
    as uint8. Only this call holds `canvas` and `raw`, so both are dropped
    before the images under each spec are lit in one call."""
    canvas, raw = paint()
    n, count = canvas.shape[:2]
    unlit = np.empty(canvas.shape, dtype=np.uint8)
    for chunk, draws in _chunks(n, count):
        values = canvas[chunk].astype(np.float64)
        if jitter > 0:
            offsets = integers_below_from(raw[:, :-1][draws], 2 * jitter + 1)
            offsets -= jitter
            values += offsets.reshape(values.shape)
        unlit[chunk] = to_uint8(values)
    noise_seeds = raw[:, -1].tolist()
    del canvas, raw
    groups: dict[IlluminationSpec, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec, []).append(i)
    lit = np.empty_like(unlit)
    for spec, group in groups.items():
        lit[group] = apply_illumination(unlit[group], spec, [noise_seeds[i] for i in group])
    return lit


def render_patches(
    colors: Sequence[ColorClass],
    brightness: Sequence[float],
    specs: Sequence[IlluminationSpec],
    seeds: Sequence[int],
    jitter: int = DEFAULT_JITTER,
) -> np.ndarray:
    """32x32 patches as one (n, 32, 32, 3) uint8 stack.

    Patch i is colors[i]'s base color scaled by brightness[i], plus integer
    jitter of up to +-jitter per channel drawn from the stream of seeds[i],
    then the illumination model of specs[i], seeded with that stream's next
    draw. The patches under one spec are lit in one call.
    """
    if not len(colors) == len(brightness) == len(specs) == len(seeds):
        raise ValueError("one color, brightness, spec and seed per patch")
    rgb = np.array([c.base_rgb for c in colors], dtype=np.float64).reshape(-1, 3)
    base = np.array([_brightness(b) for b in brightness], dtype=np.float64)[:, None] * rgb
    shape = (len(seeds), PATCH_SIZE * PATCH_SIZE, 3)

    def paint():  # the canvas is a view; only the draws take memory
        raw = fill_streams(seeds, PATCH_SIZE * PATCH_SIZE * 3 + 1 if jitter > 0 else 1)
        return np.broadcast_to(base[:, None, :], shape), raw

    return _jitter_and_light(paint, specs, jitter).reshape(len(seeds), PATCH_SIZE, PATCH_SIZE, 3)


def render_scenes(
    colors: Sequence[ColorClass],
    rects: Sequence[BoundRect],
    canvas_w: int,
    canvas_h: int,
    specs: Sequence[IlluminationSpec],
    seeds: Sequence[int],
    jitter: int = DEFAULT_JITTER,
) -> np.ndarray:
    """Scenes as one (n, canvas_h, canvas_w, 3) uint8 stack.

    Scene i is a near-white canvas with rects[i] filled by colors[i]'s
    base color, scaled by a brightness drawn uniformly from the
    dark-to-light ramp, plus integer jitter of up to +-jitter per channel,
    then the illumination model of specs[i]. The stream of seeds[i] gives
    the brightness (its first draw), the jitter (the next canvas size
    draws) and the noise seed (the draw after them). The scenes under one
    spec are lit in one call.
    """
    if not len(colors) == len(rects) == len(specs) == len(seeds):
        raise ValueError("one color, rect, spec and seed per scene")
    for rect in rects:
        if rect.x + rect.w > canvas_w or rect.y + rect.h > canvas_h:
            raise ValueError(
                f"rect {rect} does not fit canvas {canvas_w}x{canvas_h}"
            )

    def paint():
        raw = fill_streams(seeds, canvas_h * canvas_w * 3 + 2 if jitter > 0 else 2)
        brightness = BRIGHTNESS_MIN + (BRIGHTNESS_MAX - BRIGHTNESS_MIN) * doubles_from(raw[:, 0])
        canvas = np.full((len(seeds), canvas_h, canvas_w, 3), float(BACKGROUND_LEVEL))
        for i, (color, rect) in enumerate(zip(colors, rects)):
            canvas[i, rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] = (
                brightness[i] * np.array(color.base_rgb, dtype=np.float64)
            )
        return canvas.reshape(len(seeds), canvas_h * canvas_w, 3), raw[:, 1:]

    return _jitter_and_light(paint, specs, jitter).reshape(len(seeds), canvas_h, canvas_w, 3)


def render_scene(
    color: ColorClass,
    rect: BoundRect,
    canvas_w: int,
    canvas_h: int,
    spec: IlluminationSpec,
    seed: int,
    jitter: int = DEFAULT_JITTER,
) -> tuple[Image, BoundRect]:
    """`render_scenes` for one scene; returns the scene and the placed
    rectangle as ground truth."""
    pixels = render_scenes([color], [rect], canvas_w, canvas_h, [spec], [seed], jitter)
    return Image(pixels[0]), rect


@dataclass(frozen=True)
class SampleRecord:
    """Manifest row for one training/test patch."""

    filename: str
    class_index: int
    class_name: str
    split: str  # "train" or "test"
    brightness_gain: float
    illuminant_name: str
    seed: int

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"unknown split {self.split!r}")


@dataclass(frozen=True)
class SceneRecord:
    """Ground truth for one generated scene."""

    filename: str
    class_index: int
    class_name: str
    rect: BoundRect
    illuminant_name: str


@dataclass(frozen=True)
class SampleManifest:
    """All generated patches plus scene ground truth."""

    records: tuple[SampleRecord, ...]
    scenes: tuple[SceneRecord, ...] = ()

    def __post_init__(self):
        names = [r.filename for r in self.records] + [s.filename for s in self.scenes]
        if len(set(names)) != len(names):
            raise ValueError("manifest filenames must be unique")

    def split(self, which: str) -> tuple[SampleRecord, ...]:
        return tuple(r for r in self.records if r.split == which)


# the manifest's columns are SampleRecord's fields, in order
MANIFEST_COLUMNS = tuple(f.name for f in fields(SampleRecord))

SCENES_COLUMNS = ("filename", "class_index", "class_name", "x", "y", "w", "h",
                  "illuminant_name")


def write_csv(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header `columns`, then one LF-ended line per row.

    Each field is written as its `str()`, which for a float (numpy's
    included) is the shortest text that reads back as the same value.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([str(value) for value in row] for row in rows)
    return out.getvalue()


def manifest_to_csv(manifest: SampleManifest) -> str:
    rows = map(operator.attrgetter(*MANIFEST_COLUMNS), manifest.records)
    return write_csv(MANIFEST_COLUMNS, rows)


def scenes_to_csv(scenes: tuple[SceneRecord, ...]) -> str:
    rows = ((s.filename, s.class_index, s.class_name, *astuple(s.rect), s.illuminant_name)
            for s in scenes)
    return write_csv(SCENES_COLUMNS, rows)


def read_csv(
    text: str, columns: tuple[str, ...], name: str, parse: Callable[[dict], T]
) -> list[tuple[int, T]]:
    """(line number, `parse(row)`) for each row of a CSV text, in file order.

    Raises ValueError unless the header is `columns` and every row has
    exactly that many fields; that error, and any ValueError from `parse`,
    names the file and the line.
    """
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"unexpected {name} columns {reader.fieldnames}")
    parsed = []
    for row in reader:
        try:
            # DictReader keys extra fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"expected {len(columns)} fields")
            parsed.append((reader.line_num, parse(row)))
        except ValueError as exc:
            raise ValueError(f"{name} line {reader.line_num}: {exc}") from exc
    return parsed


def _class_index(row: dict) -> int:
    """The row's class index, checked against the class table."""
    index = int(row["class_index"])
    if not 0 <= index < len(CLASS_NAMES):
        raise ValueError(f"class_index {index} out of range")
    if row["class_name"] != CLASS_NAMES[index]:
        raise ValueError(
            f"class_name {row['class_name']!r} does not match "
            f"class_index {index} ({CLASS_NAMES[index]})"
        )
    return index


def _illuminant(row: dict) -> str:
    """The row's illuminant name, checked against the presets."""
    name = row["illuminant_name"]
    if name not in ILLUMINANT_PRESETS:
        raise ValueError(f"unknown illuminant {name!r}")
    return name


def _sample_record(row: dict) -> SampleRecord:
    filename, _, name, split, gain, _, seed = row.values()
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    return SampleRecord(filename, _class_index(row), name, split,
                        _brightness(float(gain)), _illuminant(row), seed)


def _scene_record(row: dict) -> SceneRecord:
    return SceneRecord(
        filename=row["filename"],
        class_index=_class_index(row),
        class_name=row["class_name"],
        rect=BoundRect(int(row["x"]), int(row["y"]), int(row["w"]), int(row["h"])),
        illuminant_name=_illuminant(row),
    )


def read_manifest(data_dir: str | Path) -> SampleManifest:
    """Load manifest.csv (and scenes.csv when present) from a dataset dir.

    Raises ValueError on unexpected columns, a row with missing, extra or
    malformed fields, a class index outside the class table, a class name
    that does not match its index, an unknown split or illuminant, a
    brightness outside [BRIGHTNESS_MIN, BRIGHTNESS_MAX], a seed outside
    [0, 2**64), or a filename already listed in either file; a row's error
    names its file and line.
    """
    data_dir = Path(data_dir)
    first_seen: dict[str, str] = {}

    def rows(name, columns, parse):
        text = (data_dir / name).read_text(encoding="utf-8")
        parsed = read_csv(text, columns, name, parse)
        for line, row in parsed:
            where = f"{name} line {line}"
            if row.filename in first_seen:
                raise ValueError(
                    f"{where}: filename {row.filename!r} repeats {first_seen[row.filename]}"
                )
            first_seen[row.filename] = where
        return tuple(row for _, row in parsed)

    records = rows("manifest.csv", MANIFEST_COLUMNS, _sample_record)
    scenes: tuple[SceneRecord, ...] = ()
    if (data_dir / "scenes.csv").exists():
        scenes = rows("scenes.csv", SCENES_COLUMNS, _scene_record)
    return SampleManifest(records=records, scenes=scenes)


def _balanced_counts(total: int, classes: int) -> list[int]:
    # remainder goes round-robin to the lowest class indices
    base, extra = divmod(total, classes)
    return [base + (1 if i < extra else 0) for i in range(classes)]


def _spread_picks(n: int, quota: int) -> set[int]:
    """`quota` indices spread evenly over range(n); exact by telescoping."""
    return {j for j in range(n) if (j + 1) * quota // n > j * quota // n}


def _blocks(count: int, values_per_image: int) -> Iterator[slice]:
    """Slices that split range(count) into render blocks: each holds at
    most BLOCK_VALUES channel values, and at least one image."""
    step = max(1, BLOCK_VALUES // values_per_image)
    return (slice(start, start + step) for start in range(0, count, step))


def _scene_rect(rng: Xoshiro256StarStar, canvas_w: int, canvas_h: int) -> BoundRect:
    # keep the object off the canvas border so blur cannot bleed past it
    margin = 4
    w = 24 + int(rng.integers_below(33, 1)[0])  # 24..56
    h = 24 + int(rng.integers_below(min(33, canvas_h - 2 * margin - 23), 1)[0])
    x = margin + int(rng.integers_below(canvas_w - w - 2 * margin + 1, 1)[0])
    y = margin + int(rng.integers_below(canvas_h - h - 2 * margin + 1, 1)[0])
    return BoundRect(x, y, w, h)


def generate_dataset(
    out_dir: str | Path,
    total: int = 250,
    train: int = 200,
    seed: int = 0,
    scenes: int = 24,
) -> SampleManifest:
    """Emit `total` PPM patches plus scene images and both CSVs.

    Classes are balanced (remainder round-robin by class index), class k
    covering an evenly spaced brightness ramp; illuminants cycle through
    the presets by file index.  The test split takes a per-class quota
    spread evenly along each class's ramp.  Everything is a pure function
    of (seed, counts).
    """
    if train >= total:
        raise ValueError(f"train count {train} must be < total {total}")
    if total < 1:
        raise ValueError("total must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    class_counts = _balanced_counts(total, len(COLOR_CLASSES))
    test_quotas = _balanced_counts(total - train, len(COLOR_CLASSES))
    test_picks = [
        _spread_picks(n, min(q, n)) for n, q in zip(class_counts, test_quotas)
    ]

    records = []
    per_class_seen = [0] * len(COLOR_CLASSES)
    for i in range(total):
        color = COLOR_CLASSES[i % len(COLOR_CLASSES)]
        j = per_class_seen[color.index]
        per_class_seen[color.index] += 1
        n_k = class_counts[color.index]
        ramp = j / (n_k - 1) if n_k > 1 else 0.0
        brightness = BRIGHTNESS_MIN + (BRIGHTNESS_MAX - BRIGHTNESS_MIN) * ramp
        illuminant = ILLUMINANT_CYCLE[i % len(ILLUMINANT_CYCLE)]
        records.append(
            SampleRecord(
                filename=f"patch_{i:04d}.ppm",
                class_index=color.index,
                class_name=color.name,
                split="test" if j in test_picks[color.index] else "train",
                brightness_gain=brightness,
                illuminant_name=illuminant,
                seed=derive_stream_seed(seed, i),
            )
        )
    for block in _blocks(total, PATCH_SIZE * PATCH_SIZE * 3):
        rows = records[block]
        patches = render_patches(
            [COLOR_CLASSES[r.class_index] for r in rows],
            [r.brightness_gain for r in rows],
            [ILLUMINANT_PRESETS[r.illuminant_name] for r in rows],
            [r.seed for r in rows],
        )
        for record, pixels in zip(rows, patches):
            (out_dir / record.filename).write_bytes(write_ppm(Image(pixels)))

    # each scene's rect and render seed come from its own file stream
    scene_records, scene_seeds = [], []
    canvas_w, canvas_h = SCENE_CANVAS
    for s in range(scenes):
        color = COLOR_CLASSES[s % len(COLOR_CLASSES)]
        rng = Xoshiro256StarStar(derive_stream_seed(seed, total + s))
        scene_records.append(
            SceneRecord(
                filename=f"scene_{s:02d}.ppm",
                class_index=color.index,
                class_name=color.name,
                rect=_scene_rect(rng, canvas_w, canvas_h),
                illuminant_name=ILLUMINANT_CYCLE[s % len(ILLUMINANT_CYCLE)],
            )
        )
        scene_seeds.append(rng.next_uint64())
    for block in _blocks(scenes, canvas_w * canvas_h * 3):
        rows = scene_records[block]
        pixels = render_scenes(
            [COLOR_CLASSES[r.class_index] for r in rows],
            [r.rect for r in rows],
            canvas_w, canvas_h,
            [ILLUMINANT_PRESETS[r.illuminant_name] for r in rows],
            scene_seeds[block],
        )
        for record, scene in zip(rows, pixels):
            (out_dir / record.filename).write_bytes(write_ppm(Image(scene)))

    manifest = SampleManifest(records=tuple(records), scenes=tuple(scene_records))
    (out_dir / "manifest.csv").write_text(manifest_to_csv(manifest), encoding="utf-8")
    (out_dir / "scenes.csv").write_text(
        scenes_to_csv(manifest.scenes), encoding="utf-8"
    )
    return manifest
