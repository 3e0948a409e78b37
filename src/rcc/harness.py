"""Training loop, evaluation, end-to-end detection, and robustness sweep.

The validation split is the test split: with 250 samples a third split is
not meaningful, so the per-epoch "val" metrics are computed on the same
50 held-out patches that final accuracy is reported on.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .baseline import HsvRange, count_hsv_hits
from .cubes import aggregate_votes, extract_color_cubes
from .image import Image, PpmError, read_ppm
from .net import (
    INPUT_SIZE,
    NetworkParams,
    NumericError,
    images_to_batch,
    init_params,
    logits,
    loss_and_gradients,
    mean_cross_entropy,
    predict_probabilities,
    sgd_step,
)
from .rng import Xoshiro256StarStar
from .segment import BoundRect, detect_bounding_box
from .synth import (
    IlluminationSpec,
    SampleManifest,
    SampleRecord,
    apply_illumination,
    write_csv,
)

DEFAULT_GAIN_SWEEP = (0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)


@dataclass(frozen=True)
class EpochMetrics:
    """Per-epoch loss/accuracy on the train and validation splits."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float

    def __post_init__(self):
        for name in ("train_acc", "val_acc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value} outside [0, 1]")


def load_patches(
    records: Sequence[SampleRecord], data_dir: str | Path
) -> tuple[np.ndarray, np.ndarray]:
    """Read the records' PPMs into one (n, 32, 32, 3) uint8 stack; returns
    (patches, class index array).  A patch that does not parse, or is of
    another size, is a ValueError naming its file."""
    data_dir = Path(data_dir)
    patches = np.empty((len(records), INPUT_SIZE, INPUT_SIZE, 3), dtype=np.uint8)
    for i, r in enumerate(records):
        try:
            img = read_ppm((data_dir / r.filename).read_bytes())
        except PpmError as exc:
            raise ValueError(f"{r.filename}: {exc}") from exc
        if img.pixels.shape != patches.shape[1:]:
            raise ValueError(
                f"{r.filename}: expected a {INPUT_SIZE}x{INPUT_SIZE} patch, "
                f"got {img.width}x{img.height}"
            )
        patches[i] = img.pixels
    labels = np.array([r.class_index for r in records], dtype=np.int64)
    return patches, labels


def load_split(
    manifest: SampleManifest, data_dir: str | Path, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """`load_patches` of the manifest's `which` split; an empty split is a
    ValueError naming it."""
    records = manifest.split(which)
    if not records:
        raise ValueError(f"manifest has no {which} split")
    return load_patches(records, data_dir)


def _float32_batch(patches: np.ndarray) -> np.ndarray:
    """A uint8 patch stack as the float32 batch that training and test-split
    scoring feed the float64 params; sgd_step widens each float32 gradient
    exactly."""
    return images_to_batch(patches).astype(np.float32)


def _split_stats(
    xs: np.ndarray, labels: np.ndarray, params: NetworkParams
) -> tuple[float, float]:
    scores = logits(xs, params)
    loss = mean_cross_entropy(scores, labels)
    accuracy = float((scores.argmax(axis=1) == labels).mean())
    return loss, accuracy


# A diverging run overflows before the loss and update checks stop it; they
# report it, so numpy's overflow and invalid-value warnings stay quiet.
@np.errstate(over="ignore", invalid="ignore")
def train(
    manifest: SampleManifest,
    data_dir: str | Path,
    epochs: int = 300,
    lr: float = 0.01,
    momentum: float = 0.9,
    batch: int = 16,
    seed: int = 0,
) -> tuple[NetworkParams, list[EpochMetrics]]:
    """Minibatch SGD over the manifest's train split.

    Each epoch reshuffles the train split with the seeded PRNG, then both
    splits are fully evaluated; the whole run is a pure function of its
    arguments.  Raises NumericError, naming the epoch, as soon as a batch
    loss, an updated tensor or a re-evaluation's logits are non-finite.
    """
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    train_patches, train_labels = load_split(manifest, data_dir, "train")
    test_patches, test_labels = load_split(manifest, data_dir, "test")
    train_xs = _float32_batch(train_patches)
    test_xs = _float32_batch(test_patches)

    rng = Xoshiro256StarStar(seed)
    params = init_params(seed)
    velocity = None
    metrics: list[EpochMetrics] = []
    order = list(range(len(train_labels)))
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        try:
            for start in range(0, len(order), batch):
                picked = order[start : start + batch]
                loss, grads = loss_and_gradients(
                    train_xs[picked], train_labels[picked], params
                )
                if not math.isfinite(loss):
                    raise NumericError("training loss went non-finite")
                params, velocity = sgd_step(params, grads, lr, momentum, velocity)
            train_loss, train_acc = _split_stats(train_xs, train_labels, params)
            val_loss, val_acc = _split_stats(test_xs, test_labels, params)
        except NumericError as exc:
            raise NumericError(f"{exc} in epoch {epoch}") from None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=train_loss,
                train_acc=train_acc,
                val_loss=val_loss,
                val_acc=val_acc,
            )
        )
    return params, metrics


def metrics_to_csv(metrics: Sequence[EpochMetrics]) -> str:
    return write_csv([f.name for f in fields(EpochMetrics)], map(astuple, metrics))


def evaluate(
    manifest: SampleManifest, data_dir: str | Path, params: NetworkParams
) -> dict:
    """Score the test split's argmax predictions: the accuracy, each class's
    recall by name, and the confusion matrix (rows true, columns predicted)
    as lists; the record `rcc eval` writes."""
    patches, labels = load_split(manifest, data_dir, "test")
    predicted = logits(_float32_batch(patches), params).argmax(axis=1)
    n = len(params.class_names)
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    row_sums = confusion.sum(axis=1)
    return {
        "accuracy": float((predicted == labels).mean()),
        "per_class_accuracy": {
            name: float(confusion[i, i] / row_sums[i]) if row_sums[i] else 0.0
            for i, name in enumerate(params.class_names)
        },
        "confusion": confusion.tolist(),
    }


def detect(img: Image, params: NetworkParams, mode: str = "adaptive") -> dict:
    """Full pipeline on one image: box, nine cube predictions, vote.

    Raises NoObjectError when segmentation finds nothing.
    """
    box = detect_bounding_box(img, mode)
    grid = extract_color_cubes(img, box)
    probs = predict_probabilities(images_to_batch(grid.cubes), params)
    cube_labels = [int(i) for i in probs.argmax(axis=1)]
    label, confidence = aggregate_votes(cube_labels, probs)
    names = params.class_names
    return {
        "box": {"x": box.x, "y": box.y, "w": box.w, "h": box.h},
        "label": names[label],
        "confidence": confidence,
        "cube_labels": [names[i] for i in cube_labels],
    }


def annotate_box(img: Image, rect: BoundRect) -> Image:
    """Copy of the image with a 1-px red rectangle on the box perimeter."""
    if rect.x + rect.w > img.width or rect.y + rect.h > img.height:
        raise ValueError(f"rect {rect} exceeds image bounds")
    pixels = img.pixels.copy()
    red = (255, 0, 0)
    x2, y2 = rect.x + rect.w - 1, rect.y + rect.h - 1
    pixels[rect.y, rect.x : x2 + 1] = red
    pixels[y2, rect.x : x2 + 1] = red
    pixels[rect.y : y2 + 1, rect.x] = red
    pixels[rect.y : y2 + 1, x2] = red
    return Image(pixels)


@dataclass(frozen=True)
class RobustnessRow:
    """Accuracies of both classifiers at one uniform brightness gain."""

    gain: float
    cnn_acc: float
    hsv_acc: float


def compare_robustness(
    manifest: SampleManifest,
    data_dir: str | Path,
    params: NetworkParams,
    ranges: Sequence[HsvRange],
) -> list[RobustnessRow]:
    """Score CNN and HSV baseline on the test split under each gain of
    DEFAULT_GAIN_SWEEP.

    Gain g scales all three channels (noise-free), simulating a global
    brightness shift; gain 1.0 reproduces the unperturbed accuracies.
    """
    patches, labels = load_split(manifest, data_dir, "test")
    rows = []
    for gain in DEFAULT_GAIN_SWEEP:
        spec = IlluminationSpec((gain, gain, gain), 1.0, 0.0)
        lit = apply_illumination(patches, spec, [0] * len(patches))
        predicted = logits(_float32_batch(lit), params).argmax(axis=1)
        rows.append(
            RobustnessRow(
                gain=gain,
                cnn_acc=float((predicted == labels).mean()),
                hsv_acc=count_hsv_hits(lit, labels, ranges) / len(labels),
            )
        )
    return rows


def robustness_to_csv(rows: Sequence[RobustnessRow]) -> str:
    return write_csv([f.name for f in fields(RobustnessRow)], map(astuple, rows))
