"""Checks of the program's outputs. Each raises CheckError on a wrong one.

The expected values come from `reference` (code written apart from the
program) or from properties the method must have; none comes from a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

N_PATCHES, N_TRAIN, N_SCENES = 250, 200, 24
GAINS = (0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
ACCURACY_FLOOR = 0.5  # three times chance for six classes
BOX_SLACK = 2
LOGIT_TOL = 1e-9
GRAD_RTOL = 1e-5


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------- gen

def check_patch(data: bytes, seed: int, index: int) -> None:
    require(data == ref.patch_bytes(seed, index), f"patch_{index:04d}.ppm differs from its rebuild")


def check_scene(data: bytes, seed: int, index: int) -> None:
    require(data == ref.scene_bytes(seed, index), f"scene_{index:02d}.ppm differs from its rebuild")


def check_dataset(data_dir: Path, seed: int, patch_picks, scene_picks) -> None:
    """Manifest against the documented layout; picked files byte for byte."""
    rows = read_csv(data_dir / "manifest.csv")
    require(len(rows) == N_PATCHES, f"manifest has {len(rows)} rows")
    per_class = [0] * 6
    test_positions: list[list[int]] = [[] for _ in range(6)]
    for i, row in enumerate(rows):
        cls = i % 6
        require(row["filename"] == f"patch_{i:04d}.ppm", f"row {i} names {row['filename']}")
        require(int(row["class_index"]) == cls and row["class_name"] == ref.PALETTE[cls][0],
                f"row {i} has class {row['class_index']}/{row['class_name']}")
        require(row["illuminant_name"] == ref.ILLUMINANT_ORDER[i % 5], f"row {i} illuminant")
        require(int(row["seed"]) == seed ^ i, f"row {i} seed {row['seed']}")
        require(float(row["brightness_gain"]) == ref.brightness(i),
                f"row {i} brightness {row['brightness_gain']}")
        if row["split"] == "test":
            test_positions[cls].append(per_class[cls])
        else:
            require(row["split"] == "train", f"row {i} split {row['split']!r}")
        per_class[cls] += 1
        size = (data_dir / row["filename"]).stat().st_size
        require(size == 13 + 3 * ref.PATCH * ref.PATCH, f"{row['filename']} holds {size} bytes")
    require(max(per_class) - min(per_class) <= 1, f"class counts {per_class}")
    n_test = [len(p) for p in test_positions]
    require(sum(n_test) == N_PATCHES - N_TRAIN, f"{sum(n_test)} test patches")
    require(max(n_test) - min(n_test) <= 1, f"test counts per class {n_test}")
    for cls, picks in enumerate(test_positions):
        n, step = per_class[cls], math.ceil(per_class[cls] / len(picks))
        gaps = np.diff(picks)
        require(gaps.max() - gaps.min() <= 1 and picks[0] < step and picks[-1] >= n - step,
                f"class {cls} test picks {picks} do not spread over the ramp")
    for index in patch_picks:
        check_patch((data_dir / f"patch_{index:04d}.ppm").read_bytes(), seed, index)

    scenes = read_csv(data_dir / "scenes.csv")
    require(len(scenes) == N_SCENES, f"scenes.csv has {len(scenes)} rows")
    for s, row in enumerate(scenes):
        x, y, w, h = (int(row[k]) for k in "xywh")
        require(0 <= x and 0 <= y and x + w <= ref.CANVAS_W and y + h <= ref.CANVAS_H,
                f"scene {s} rect {x},{y},{w},{h} leaves the canvas")
        rect = ref.scene_rect(ref.Stream((seed ^ (N_PATCHES + s)) & ref.M64))
        require((x, y, w, h) == rect, f"scene {s} rect {x},{y},{w},{h}, rebuilt {rect}")
        require(row["filename"] == f"scene_{s:02d}.ppm" and int(row["class_index"]) == s % 6,
                f"scene row {s}")
    for index in scene_picks:
        check_scene((data_dir / f"scene_{index:02d}.ppm").read_bytes(), seed, index)


# -------------------------------------------------------------------- train

def check_metrics_csv(path: Path, epochs: int) -> list[dict]:
    rows = read_csv(path)
    require(len(rows) == epochs, f"metrics hold {len(rows)} epochs, expected {epochs}")
    first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
    require(last < first and last < math.log(6.0),
            f"training loss did not fall: {first} -> {last}")
    return rows


def check_eval_report(path: Path) -> float:
    report = json.loads(path.read_text(encoding="utf-8"))
    confusion = np.array(report["confusion"])
    require(confusion.shape == (6, 6) and confusion.sum() == N_PATCHES - N_TRAIN,
            f"confusion matrix {confusion.shape} sums to {confusion.sum()}")
    accuracy = report["accuracy"]
    require(accuracy == float(np.trace(confusion) / confusion.sum()),
            f"accuracy {accuracy} disagrees with the confusion matrix")
    require(accuracy >= ACCURACY_FLOOR, f"test accuracy {accuracy} below {ACCURACY_FLOOR}")
    return accuracy


def check_sweep(rows: list[dict], eval_accuracy: float, hsv_hits: dict) -> None:
    """`compare` rows: CNN at gain 1 equals `eval`; HSV equals the recount."""
    require([float(r["gain"]) for r in rows] == list(GAINS), "sweep gains")
    for r in rows:
        gain = float(r["gain"])
        if gain == 1.0:
            require(float(r["cnn_acc"]) == eval_accuracy,
                    f"compare CNN accuracy {r['cnn_acc']} at gain 1, eval {eval_accuracy}")
        expected = hsv_hits[gain] / (N_PATCHES - N_TRAIN)
        require(float(r["hsv_acc"]) == expected,
                f"HSV accuracy {r['hsv_acc']} at gain {gain}, recount {expected}")


def check_ranges(path: Path, expected) -> list[tuple[float, float, float, float]]:
    rows = read_csv(path)
    got = [tuple(float(r[k]) for k in ("h_min", "h_max", "s_min", "v_min")) for r in rows]
    require([int(r["class_index"]) for r in rows] == list(range(6)), "ranges classes")
    require(np.allclose(got, expected, rtol=0, atol=1e-9),
            f"HSV ranges {got} differ from the recomputation {expected}")
    return got


def check_baseline_stdout(text: str, hits: int) -> None:
    expected = f"({hits}/{N_PATCHES - N_TRAIN})"
    require(expected in text, f"baseline printed {text.strip()!r}, recount {expected}")


def check_logits(program_log_probs: np.ndarray, naive: np.ndarray) -> None:
    """Program log-probabilities against log-softmax of the naive logits."""
    diff = float(np.abs(program_log_probs - naive).max())
    require(diff <= LOGIT_TOL, f"logits differ from the naive forward pass by {diff:.3e}")


def check_directional(analytic: float, numeric: list[float]) -> None:
    """The analytic directional derivative agrees with a central difference
    at one of the steps tried."""
    require(any(abs(analytic - n) <= GRAD_RTOL * max(abs(analytic), abs(n), 1e-12) for n in numeric),
            f"directional derivative {analytic!r}, finite differences {numeric!r}")


# ------------------------------------------------------------------- detect

def check_detection(record: dict, rgb: np.ndarray, truth, probs_of, names) -> None:
    """Box near the drawn rectangle and equal to the largest component's
    extent; cube labels, vote and confidence consistent with the net."""
    box = record["box"]
    got = (box["x"], box["y"], box["w"], box["h"])
    tx, ty, tw, th = truth
    edges = (got[0] - tx, got[1] - ty, got[0] + got[2] - tx - tw, got[1] + got[3] - ty - th)
    require(max(abs(e) for e in edges) <= BOX_SLACK, f"box {got} is off rect {truth}")
    extent, _ = ref.largest_component_extent(ref.foreground_mask(rgb))
    require(got == extent, f"box {got}, largest component {extent}")
    probs = probs_of(ref.cube_inputs(rgb, got))
    labels = [int(k) for k in probs.argmax(axis=1)]
    require(record["cube_labels"] == [names[k] for k in labels],
            f"cube labels {record['cube_labels']}")
    label, confidence = ref.vote(labels, probs)
    require(record["label"] == names[label], f"label {record['label']}, vote gives {names[label]}")
    require(abs(record["confidence"] - confidence) <= 1e-12,
            f"confidence {record['confidence']}, vote gives {confidence}")


def parse_record(text: str) -> dict:
    try:
        record = json.loads(text.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError) as exc:
        raise CheckError(f"detect printed no JSON record: {exc}") from exc
    require(isinstance(record, dict) and set(record) == {"box", "label", "confidence", "cube_labels"},
            f"detect record {record}")
    return record
