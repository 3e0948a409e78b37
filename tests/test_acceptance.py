"""End-to-end acceptance checks.

The nine checks run in order and share one work directory: the dataset
generated by check 1 feeds training in check 4, whose checkpoint feeds
checks 5, 7, 8, and 9.  Each check prints a single PASS/FAIL line (written
past pytest's capture so it always appears in the run log) with its key
measurements.
"""

import csv
import io
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rcc import cli, harness
from rcc.cubes import CUBE_SIZE, extract_color_cubes
from rcc.image import read_ppm
from rcc.net import (
    gradcheck_batch,
    gradient_check,
    init_params,
    load_checkpoint,
    predict_probabilities,
    save_checkpoint,
    images_to_batch,
)
from rcc.rng import Xoshiro256StarStar
from rcc.segment import (
    BinaryMask,
    BoundRect,
    adaptive_threshold,
    detect_bounding_box,
    label_components,
)
from rcc.synth import read_manifest

STATE: dict = {}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("acceptance")


def report(capsys, number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {number}: {verdict} - {detail}", flush=True)


def need(key: str):
    if key not in STATE:
        pytest.fail(f"prerequisite step did not complete ({key} missing)")
    return STATE[key]


def test_c1_dataset_generation_defaults(workdir, capsys):
    data_dir = workdir / "data"
    start = time.perf_counter()
    code = cli.main(["gen", "--out", str(data_dir)])
    elapsed = time.perf_counter() - start

    manifest = read_manifest(data_dir)
    by_class = Counter(r.class_index for r in manifest.records)
    counts_ok = all(41 <= by_class[i] <= 42 for i in range(6))
    ok = (
        code == 0
        and len(manifest.records) == 250
        and len(manifest.split("train")) == 200
        and len(manifest.split("test")) == 50
        and counts_ok
        and elapsed < 5.0
    )
    report(
        capsys,
        1,
        ok,
        f"250 patches 200/50, class counts {sorted(by_class.values())}, {elapsed:.2f}s",
    )
    assert code == 0
    assert len(manifest.records) == 250
    assert len(manifest.split("train")) == 200
    assert len(manifest.split("test")) == 50
    assert counts_ok, f"class counts {dict(by_class)} not balanced 41-42"
    STATE["data_dir"] = data_dir
    STATE["manifest"] = manifest
    assert elapsed < 5.0, f"generation took {elapsed:.2f}s"


def test_c2_gradient_fidelity(capsys):
    start = time.perf_counter()
    params = init_params(0)
    xs, labels = gradcheck_batch(0, params, batch=2)
    results = gradient_check(params, xs, labels, h=1e-5, tolerance=1e-6)
    elapsed = time.perf_counter() - start

    worst = max(r.relative_error for r in results)
    ok = len(results) == 12 and all(r.passed for r in results) and elapsed < 60.0
    report(capsys, 2, ok, f"12 tensors, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert len(results) == 12
    for r in results:
        assert r.passed, f"{r.name}: rel err {r.relative_error:.3e} >= 1e-6"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def _naive_conv(x, filters, bias, pad):
    out_ch, in_ch, m, n = filters.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = xp.shape[1] - m + 1
    w_out = xp.shape[2] - n + 1
    y = np.zeros((out_ch, h_out, w_out))
    for o in range(out_ch):
        for yy in range(h_out):
            for xx in range(w_out):
                acc = 0.0
                for c in range(in_ch):
                    for km in range(m):
                        for kn in range(n):
                            acc += filters[o, c, km, kn] * xp[c, yy + km, xx + kn]
                y[o, yy, xx] = acc + bias[o]
    return y


def _component_boxes(bits):
    """Flood-fill reference: (pixel count, box) per component in scan order."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    out = []
    for row in range(h):
        for col in range(w):
            if not bits[row, col] or seen[row, col]:
                continue
            stack = [(col, row)]
            seen[row, col] = True
            xs, ys, count = [], [], 0
            while stack:
                x, y = stack.pop()
                xs.append(x)
                ys.append(y)
                count += 1
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((nx, ny))
            box = BoundRect(min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
            out.append((count, box))
    return out


def test_c3_oracle_equivalence(capsys):
    from oracles import conv2d_forward, maxpool_forward
    from rcc.net import ConvLayerParams

    start = time.perf_counter()
    rng = Xoshiro256StarStar(300)

    conv_worst = 0.0
    for _ in range(50):
        c = int(rng.integers_below(3, 1)[0]) + 1
        h = int(rng.integers_below(9, 1)[0]) + 3
        w = int(rng.integers_below(9, 1)[0]) + 3
        o = int(rng.integers_below(4, 1)[0]) + 1
        m = int(rng.integers_below(3, 1)[0]) + 1
        n = int(rng.integers_below(3, 1)[0]) + 1
        pad = int(rng.integers_below(3, 1)[0])
        x = rng.normals(c * h * w).reshape(c, h, w)
        filters = rng.normals(o * c * m * n).reshape(o, c, m, n)
        bias = rng.normals(o)
        got = conv2d_forward(x, ConvLayerParams(filters, bias, padding=pad))
        want = _naive_conv(x, filters, bias, pad)
        conv_worst = max(conv_worst, float(np.abs(got - want).max()))
    conv_ok = conv_worst < 1e-9

    pool_ok = True
    for _ in range(20):
        c = int(rng.integers_below(4, 1)[0]) + 1
        h = 2 * (int(rng.integers_below(5, 1)[0]) + 1)
        w = 2 * (int(rng.integers_below(5, 1)[0]) + 1)
        x = rng.normals(c * h * w).reshape(c, h, w)
        y, _ = maxpool_forward(x, 2)
        for cc in range(c):
            for by in range(h // 2):
                for bx in range(w // 2):
                    block = x[cc, 2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                    pool_ok = pool_ok and y[cc, by, bx] == block.max()

    adaptive_ok = True
    for window in (3, 5, 11):
        pixels = rng.integers_below(256, 20 * 25).reshape(20, 25).astype(np.uint8)
        mask = adaptive_threshold(pixels, window, 2.0)
        radius = window // 2
        padded = np.pad(pixels.astype(np.int64), radius, mode="edge")
        for y in range(20):
            for x in range(25):
                total = padded[y : y + window, x : x + window].sum()
                want = pixels[y, x] < total / (window * window) - 2.0
                adaptive_ok = adaptive_ok and bool(mask.bits[y, x]) == want

    mbr_ok = True
    for _ in range(100):
        bits = (rng.doubles(22 * 18) < 0.35).reshape(18, 22)
        mbr_ok = mbr_ok and label_components(BinaryMask(bits)) == _component_boxes(bits)

    elapsed = time.perf_counter() - start
    ok = conv_ok and pool_ok and adaptive_ok and mbr_ok and elapsed < 60.0
    report(
        capsys,
        3,
        ok,
        f"conv max diff {conv_worst:.1e}, pool/adaptive exact {pool_ok and adaptive_ok}, "
        f"100 component lists exact {mbr_ok}, {elapsed:.1f}s",
    )
    assert conv_ok, f"conv deviates from naive oracle by {conv_worst:.2e}"
    assert pool_ok
    assert adaptive_ok
    assert mbr_ok
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_c4_training_convergence(workdir, capsys):
    data_dir = need("data_dir")
    model = workdir / "model.ckpt"
    metrics_csv = workdir / "metrics.csv"
    start = time.perf_counter()
    code = cli.main(
        ["train", "--data", str(data_dir), "--out", str(model),
         "--metrics", str(metrics_csv)]
    )
    elapsed = time.perf_counter() - start

    rows = list(csv.DictReader(io.StringIO(metrics_csv.read_text())))
    losses = [float(r["train_loss"]) for r in rows]
    val_accs = [float(r["val_acc"]) for r in rows]
    drop = 1.0 - losses[-1] / losses[0] if rows else 0.0
    best = max(val_accs) if rows else 0.0
    ok = (
        code == 0
        and len(rows) == 300
        and best >= 0.95
        and drop >= 0.5
        and elapsed < 300.0
    )
    report(
        capsys,
        4,
        ok,
        f"300 epochs, best test acc {best:.3f}, final {val_accs[-1]:.3f}, "
        f"loss drop {100 * drop:.0f}%, {elapsed:.0f}s",
    )
    assert code == 0
    assert len(rows) == 300, f"metrics has {len(rows)} rows"
    assert best >= 0.95, f"test accuracy peaked at {best:.3f}"
    assert drop >= 0.5, f"train loss fell only {100 * drop:.0f}%"
    STATE["model"] = model
    STATE["metrics_csv"] = metrics_csv
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"


def test_c5_end_to_end_detection(capsys):
    data_dir = need("data_dir")
    manifest = need("manifest")
    params = load_checkpoint(need("model").read_bytes())

    start = time.perf_counter()
    box_hits = label_hits = 0
    worst_edge = 0
    for scene in manifest.scenes:
        img = read_ppm((data_dir / scene.filename).read_bytes())
        record = harness.detect(img, params)
        got = record["box"]
        truth = scene.rect
        edges = (
            abs(got["x"] - truth.x),
            abs(got["y"] - truth.y),
            abs(got["x"] + got["w"] - truth.x - truth.w),
            abs(got["y"] + got["h"] - truth.y - truth.h),
        )
        worst_edge = max(worst_edge, *edges)
        if max(edges) <= 2:
            box_hits += 1
        if record["label"] == scene.class_name:
            label_hits += 1
    elapsed = time.perf_counter() - start

    n = len(manifest.scenes)
    ok = n == 24 and box_hits == n and label_hits >= 22 and elapsed < 30.0
    report(
        capsys,
        5,
        ok,
        f"boxes {box_hits}/{n} within 2px (worst edge {worst_edge}), "
        f"labels {label_hits}/{n}, {elapsed:.1f}s",
    )
    assert n == 24
    assert box_hits == n, f"only {box_hits}/{n} boxes within 2px"
    assert label_hits >= 22, f"only {label_hits}/{n} labels correct"
    assert elapsed < 30.0, f"detection sweep took {elapsed:.1f}s"


def test_c6_cube_grid_geometry(capsys):
    from rcc.image import Image

    img = Image(np.zeros((200, 200, 3), dtype=np.uint8))
    grid = extract_color_cubes(img, BoundRect(0, 0, 96, 96))
    coverage = np.zeros((96, 96), dtype=int)
    for rect in grid.rects:
        coverage[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w] += 1
    partition_ok = bool((coverage == 1).all())

    rng = Xoshiro256StarStar(600)
    bounds_ok = True
    for _ in range(30):
        w = int(rng.integers_below(150, 1)[0]) + 1
        h = int(rng.integers_below(150, 1)[0]) + 1
        grid = extract_color_cubes(img, BoundRect(10, 10, w, h))
        cw, ch = grid.crop_size
        for rect in grid.rects:
            inside = (
                rect.x >= 0 and rect.y >= 0
                and rect.x + rect.w <= cw and rect.y + rect.h <= ch
            )
            bounds_ok = bounds_ok and inside and rect.w == CUBE_SIZE and rect.h == CUBE_SIZE

    ok = partition_ok and bounds_ok
    report(capsys, 6, ok, f"96x96 exact partition {partition_ok}, 30 random boxes in bounds {bounds_ok}")
    assert partition_ok
    assert bounds_ok


def test_c7_robustness_direction(workdir, capsys):
    data_dir = need("data_dir")
    model = need("model")
    ranges_csv = workdir / "ranges.csv"
    sweep_csv = workdir / "sweep.csv"
    assert cli.main(
        ["baseline", "--data", str(data_dir), "--ranges", str(ranges_csv),
         "--calibrate"]
    ) == 0
    code = cli.main(
        ["compare", "--data", str(data_dir), "--model", str(model),
         "--ranges", str(ranges_csv), "--out", str(sweep_csv)]
    )

    rows = list(csv.DictReader(io.StringIO(sweep_csv.read_text())))
    gains = [float(r["gain"]) for r in rows]
    cnn = [float(r["cnn_acc"]) for r in rows]
    hsv = [float(r["hsv_acc"]) for r in rows]
    mean_cnn = sum(cnn) / len(cnn)
    mean_hsv = sum(hsv) / len(hsv)
    low, high = gains.index(0.4), gains.index(1.6)
    ok = (
        code == 0
        and mean_cnn >= mean_hsv
        and cnn[low] > hsv[low]
        and cnn[high] > hsv[high]
    )
    report(
        capsys,
        7,
        ok,
        f"mean cnn {mean_cnn:.3f} vs hsv {mean_hsv:.3f}; "
        f"gain 0.4: {cnn[low]:.2f}>{hsv[low]:.2f}, gain 1.6: {cnn[high]:.2f}>{hsv[high]:.2f}",
    )
    assert code == 0
    assert mean_cnn >= mean_hsv
    assert cnn[low] > hsv[low], "no advantage at gain 0.4"
    assert cnn[high] > hsv[high], "no advantage at gain 1.6"
    STATE["ranges_csv"] = ranges_csv


def test_c8_determinism(workdir, capsys):
    data_dir = need("data_dir")
    metrics_csv = need("metrics_csv")
    model = need("model")

    repeat_dir = workdir / "data_repeat"
    assert cli.main(["gen", "--out", str(repeat_dir)]) == 0
    manifest_same = (
        (repeat_dir / "manifest.csv").read_bytes()
        == (data_dir / "manifest.csv").read_bytes()
    )
    scenes_same = (
        (repeat_dir / "scenes.csv").read_bytes()
        == (data_dir / "scenes.csv").read_bytes()
    )

    model2 = workdir / "model_repeat.ckpt"
    metrics2 = workdir / "metrics_repeat.csv"
    assert cli.main(
        ["train", "--data", str(repeat_dir), "--out", str(model2),
         "--metrics", str(metrics2)]
    ) == 0
    metrics_same = metrics2.read_bytes() == metrics_csv.read_bytes()
    model_same = model2.read_bytes() == model.read_bytes()

    ok = manifest_same and scenes_same and metrics_same and model_same
    report(
        capsys,
        8,
        ok,
        f"manifest identical {manifest_same}, metrics identical {metrics_same}, "
        f"checkpoint identical {model_same}",
    )
    assert manifest_same
    assert scenes_same
    assert metrics_same
    assert model_same


def test_c9_checkpoint_integrity(capsys):
    data_dir = need("data_dir")
    manifest = need("manifest")
    blob = need("model").read_bytes()

    params = load_checkpoint(blob)
    roundtrip = load_checkpoint(save_checkpoint(params))
    images, _ = harness.load_patches(manifest.split("test"), data_dir)
    xs = images_to_batch(images)
    direct = predict_probabilities(xs, params)
    reloaded = predict_probabilities(xs, roundtrip)
    identical = bool(np.array_equal(direct, reloaded))
    stable_bytes = save_checkpoint(roundtrip) == blob

    ok = identical and stable_bytes and len(images) == 50
    report(
        capsys,
        9,
        ok,
        f"{len(images)} test samples, predictions bit-identical {identical}, "
        f"re-serialization identical {stable_bytes}",
    )
    assert identical
    assert stable_bytes
