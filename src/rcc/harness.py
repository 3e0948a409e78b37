"""Training loop, evaluation, end-to-end detection, and robustness sweep.

The validation split is the test split: with 250 samples a third split is
not meaningful, so the per-epoch "val" metrics are computed on the same
50 held-out patches that final accuracy is reported on.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .baseline import HsvRange, count_hsv_hits
from .cubes import aggregate_votes, extract_color_cubes
from .image import Image, read_ppm
from .net import (
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
from .segment import BoundRect, SegmentationConfig, detect_bounding_box
from .synth import IlluminationSpec, SampleManifest, SampleRecord, apply_illumination

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


@dataclass(frozen=True)
class EvalReport:
    """Accuracy with a 6x6 confusion matrix (rows true, columns predicted)."""

    accuracy: float
    confusion: np.ndarray
    per_class_accuracy: tuple[float, ...]

    def __post_init__(self):
        confusion = np.asarray(self.confusion, dtype=np.int64)
        confusion.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)


def load_patches(
    records: Sequence[SampleRecord], data_dir: str | Path
) -> tuple[list[Image], np.ndarray]:
    """Read each record's PPM; returns (images, class index array)."""
    data_dir = Path(data_dir)
    images = [read_ppm((data_dir / r.filename).read_bytes()) for r in records]
    labels = np.array([r.class_index for r in records], dtype=np.int64)
    return images, labels


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
    train_records = manifest.split("train")
    test_records = manifest.split("test")
    if not train_records or not test_records:
        raise ValueError("manifest must contain both train and test samples")

    train_images, train_labels = load_patches(train_records, data_dir)
    test_images, test_labels = load_patches(test_records, data_dir)
    train_xs = images_to_batch(train_images)
    test_xs = images_to_batch(test_images)

    rng = Xoshiro256StarStar(seed)
    params = init_params(seed)
    velocity = None
    metrics: list[EpochMetrics] = []
    order = list(range(len(train_records)))
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


METRICS_COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


def metrics_to_csv(metrics: Sequence[EpochMetrics]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for m in metrics:
        writer.writerow(
            [m.epoch, repr(m.train_loss), repr(m.train_acc),
             repr(m.val_loss), repr(m.val_acc)]
        )
    return out.getvalue()


def evaluate_arrays(
    xs: np.ndarray, labels: np.ndarray, params: NetworkParams
) -> EvalReport:
    """Score a prepared batch: argmax predictions vs true labels."""
    if len(xs) == 0:
        raise ValueError("cannot evaluate an empty split")
    predicted = logits(xs, params).argmax(axis=1)
    n = len(params.class_names)
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    row_sums = confusion.sum(axis=1)
    per_class = tuple(
        float(confusion[i, i] / row_sums[i]) if row_sums[i] else 0.0
        for i in range(n)
    )
    return EvalReport(
        accuracy=float((predicted == labels).mean()),
        confusion=confusion,
        per_class_accuracy=per_class,
    )


def evaluate(
    records: Sequence[SampleRecord], data_dir: str | Path, params: NetworkParams
) -> EvalReport:
    """Load a manifest split from disk and score it."""
    images, labels = load_patches(records, data_dir)
    return evaluate_arrays(images_to_batch(images), labels, params)


def report_to_json_dict(report: EvalReport, class_names: Sequence[str]) -> dict:
    return {
        "accuracy": report.accuracy,
        "per_class_accuracy": {
            name: acc for name, acc in zip(class_names, report.per_class_accuracy)
        },
        "confusion": report.confusion.tolist(),
    }


def detect(
    img: Image,
    params: NetworkParams,
    cfg: SegmentationConfig | None = None,
) -> dict:
    """Full pipeline on one image: box, nine cube predictions, vote.

    Raises NoObjectError when segmentation finds nothing.
    """
    box = detect_bounding_box(img, cfg)
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
    gains: Sequence[float] = DEFAULT_GAIN_SWEEP,
) -> list[RobustnessRow]:
    """Score CNN and HSV baseline on the test split under uniform gains.

    Gain g scales all three channels (noise-free), simulating a global
    brightness shift; gain 1.0 reproduces the unperturbed accuracies.
    """
    test_records = manifest.split("test")
    if not test_records:
        raise ValueError("manifest has no test split")
    images, labels = load_patches(test_records, data_dir)
    rows = []
    for gain in gains:
        spec = IlluminationSpec((gain, gain, gain), 1.0, 0.0)
        perturbed = [apply_illumination(img, spec, 0) for img in images]
        predicted = logits(images_to_batch(perturbed), params).argmax(axis=1)
        rows.append(
            RobustnessRow(
                gain=gain,
                cnn_acc=float((predicted == labels).mean()),
                hsv_acc=count_hsv_hits(perturbed, labels, ranges) / len(labels),
            )
        )
    return rows


def robustness_to_csv(rows: Sequence[RobustnessRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("gain", "cnn_acc", "hsv_acc"))
    for row in rows:
        writer.writerow([repr(row.gain), repr(row.cnn_acc), repr(row.hsv_acc)])
    return out.getvalue()
