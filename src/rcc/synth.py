"""Deterministic synthetic data: color patches and scenes under varied light.

Six reference colors are rendered as 32x32 patches across a dark-to-light
brightness ramp and a cycle of named illuminants, plus full scenes (a
colored rectangle on a near-white canvas) for end-to-end detection tests.
Every file is generated from its own PRNG stream derived as seed XOR file
index, so output is byte-stable and order-independent.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image import Image, round_half_away, write_ppm
from .net import CLASS_NAMES
from .rng import Xoshiro256StarStar, derive_stream_seed
from .segment import BoundRect


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

PATCH_SIZE = 32
DEFAULT_JITTER = 5
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


def apply_illumination(img: Image, spec: IlluminationSpec, noise_seed: int) -> Image:
    """Per channel: out = clamp(round(255*(gain*c/255)^gamma) + noise).

    Noise is Gaussian with the spec's std, drawn row-major from a PRNG
    seeded with noise_seed; std 0 draws nothing.
    """
    channels = img.pixels.astype(np.float64)
    gains = np.array(spec.gain, dtype=np.float64)
    lit = 255.0 * (gains * channels / 255.0) ** spec.gamma
    lit = round_half_away(lit)
    if spec.noise_std > 0:
        rng = Xoshiro256StarStar(noise_seed)
        noise = spec.noise_std * rng.normals(lit.size).reshape(lit.shape)
        lit = round_half_away(lit + noise)
    return Image(np.clip(lit, 0, 255).astype(np.uint8))


def render_patch(
    color: ColorClass,
    brightness: float,
    spec: IlluminationSpec,
    seed: int,
    jitter: int = DEFAULT_JITTER,
) -> Image:
    """One 32x32 patch: base color scaled by brightness, integer jitter of
    up to +-jitter per channel, then the illumination model."""
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
    return apply_illumination(raw, spec, noise_seed)


def render_scene(
    color: ColorClass,
    rect: BoundRect,
    canvas_w: int,
    canvas_h: int,
    spec: IlluminationSpec,
    seed: int,
    jitter: int = DEFAULT_JITTER,
) -> tuple[Image, BoundRect]:
    """A colored rectangle on a near-white canvas, then illumination.

    Object brightness is drawn uniformly from the dark-to-light ramp.
    Returns the scene and the placed rectangle as ground truth.
    """
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
    return apply_illumination(raw, spec, noise_seed), rect


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
        for record in self.records:
            if record.split not in ("train", "test"):
                raise ValueError(f"unknown split {record.split!r}")

    def split(self, which: str) -> tuple[SampleRecord, ...]:
        return tuple(r for r in self.records if r.split == which)


MANIFEST_COLUMNS = (
    "filename",
    "class_index",
    "class_name",
    "split",
    "brightness_gain",
    "illuminant_name",
    "seed",
)

SCENES_COLUMNS = ("filename", "class_index", "class_name", "x", "y", "w", "h",
                  "illuminant_name")


def manifest_to_csv(manifest: SampleManifest) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    for r in manifest.records:
        writer.writerow(
            [r.filename, r.class_index, r.class_name, r.split,
             repr(r.brightness_gain), r.illuminant_name, r.seed]
        )
    return out.getvalue()


def scenes_to_csv(scenes: tuple[SceneRecord, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCENES_COLUMNS)
    for s in scenes:
        writer.writerow(
            [s.filename, s.class_index, s.class_name,
             s.rect.x, s.rect.y, s.rect.w, s.rect.h, s.illuminant_name]
        )
    return out.getvalue()


def _class_index(row: dict) -> int:
    """The row's class index, checked against the class table."""
    index = int(row["class_index"])
    if not 0 <= index < len(CLASS_NAMES):
        raise ValueError(f"{row['filename']}: class_index {index} out of range")
    if row["class_name"] != CLASS_NAMES[index]:
        raise ValueError(
            f"{row['filename']}: class_name {row['class_name']!r} does not match "
            f"class_index {index} ({CLASS_NAMES[index]})"
        )
    return index


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """A CSV file's rows as dicts; ValueError unless the header is `columns`
    and every row has exactly that many fields."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != columns:
            raise ValueError(f"unexpected {path.name} columns {reader.fieldnames}")
        rows = []
        for row in reader:
            # DictReader keys extra fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(
                    f"{path.name} line {reader.line_num}: expected "
                    f"{len(columns)} fields"
                )
            rows.append(row)
    return rows


def read_manifest(data_dir: str | Path) -> SampleManifest:
    """Load manifest.csv (and scenes.csv when present) from a dataset dir.

    Raises ValueError on unexpected columns, a row with missing or extra
    fields, a class index outside the class table, or a class name that
    does not match its index.
    """
    data_dir = Path(data_dir)
    records = tuple(
        SampleRecord(
            filename=row["filename"],
            class_index=_class_index(row),
            class_name=row["class_name"],
            split=row["split"],
            brightness_gain=float(row["brightness_gain"]),
            illuminant_name=row["illuminant_name"],
            seed=int(row["seed"]),
        )
        for row in _read_rows(data_dir / "manifest.csv", MANIFEST_COLUMNS)
    )
    scenes: tuple[SceneRecord, ...] = ()
    scenes_path = data_dir / "scenes.csv"
    if scenes_path.exists():
        scenes = tuple(
            SceneRecord(
                filename=row["filename"],
                class_index=_class_index(row),
                class_name=row["class_name"],
                rect=BoundRect(int(row["x"]), int(row["y"]),
                               int(row["w"]), int(row["h"])),
                illuminant_name=row["illuminant_name"],
            )
            for row in _read_rows(scenes_path, SCENES_COLUMNS)
        )
    return SampleManifest(records=records, scenes=scenes)


def _balanced_counts(total: int, classes: int) -> list[int]:
    # remainder goes round-robin to the lowest class indices
    base, extra = divmod(total, classes)
    return [base + (1 if i < extra else 0) for i in range(classes)]


def _spread_picks(n: int, quota: int) -> set[int]:
    """`quota` indices spread evenly over range(n); exact by telescoping."""
    return {j for j in range(n) if (j + 1) * quota // n > j * quota // n}


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
        file_seed = derive_stream_seed(seed, i)
        patch = render_patch(
            color, brightness, ILLUMINANT_PRESETS[illuminant], file_seed
        )
        filename = f"patch_{i:04d}.ppm"
        (out_dir / filename).write_bytes(write_ppm(patch))
        records.append(
            SampleRecord(
                filename=filename,
                class_index=color.index,
                class_name=color.name,
                split="test" if j in test_picks[color.index] else "train",
                brightness_gain=brightness,
                illuminant_name=illuminant,
                seed=file_seed,
            )
        )

    scene_records = []
    canvas_w, canvas_h = SCENE_CANVAS
    for s in range(scenes):
        color = COLOR_CLASSES[s % len(COLOR_CLASSES)]
        illuminant = ILLUMINANT_CYCLE[s % len(ILLUMINANT_CYCLE)]
        file_seed = derive_stream_seed(seed, total + s)
        rng = Xoshiro256StarStar(file_seed)
        rect = _scene_rect(rng, canvas_w, canvas_h)
        scene, truth = render_scene(
            color, rect, canvas_w, canvas_h,
            ILLUMINANT_PRESETS[illuminant], rng.next_uint64(),
        )
        filename = f"scene_{s:02d}.ppm"
        (out_dir / filename).write_bytes(write_ppm(scene))
        scene_records.append(
            SceneRecord(
                filename=filename,
                class_index=color.index,
                class_name=color.name,
                rect=truth,
                illuminant_name=illuminant,
            )
        )

    manifest = SampleManifest(records=tuple(records), scenes=tuple(scene_records))
    (out_dir / "manifest.csv").write_text(manifest_to_csv(manifest), encoding="utf-8")
    (out_dir / "scenes.csv").write_text(
        scenes_to_csv(manifest.scenes), encoding="utf-8"
    )
    return manifest
