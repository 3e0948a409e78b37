"""Golden bytes of the generator: a change to any output byte fails here.

`data/golden_seed0.sha256` holds the SHA-256 of every file that
`generate_dataset(seed=0)` writes at its defaults, plus one 640x480
`render_scene` saved as `render_scene_640x480.ppm`, in `sha256sum` format.
The determinism acceptance test only compares two runs of the same code,
so it would pass a change that moves every byte; this one would not.

`INIT_CHECKPOINT_SHA256` pins `save_checkpoint(init_params(seed))`: the
weight draw order and checkpoint format v1, with no BLAS involved.

`BASELINE_RANGES_SHA256` and `BASELINE_SWEEP_HITS` pin the HSV baseline on
`generate_dataset(seed=0)`: the ranges CSV calibrated on the train split,
and the test split's hits at each gain of `DEFAULT_GAIN_SWEEP` (noise-free
`apply_illumination`, as `compare_robustness` lights it).  No model is
involved, so no BLAS build can move them.

`SCORING_SHA256` pins the bytes `rcc eval` and `rcc compare` write on
`generate_dataset(seed=0)`, for the model `init_params(3)` with every tensor
rounded to a multiple of 2**-20 and the ranges `rcc baseline --calibrate`
fits.  Its weights come from numpy's `log`, whose last bits depend on the
CPU path numpy picks; the rounding drops those bits, so the pin holds with
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"` too.  Seed 3's
predictions spread over three classes, where seed 0's all fall in one.

`DETECT_BOXES` pins `detect_bounding_box` in both segmenter modes on the
24 scenes of `generate_dataset(seed=0)`, then on the 640x480 scene, as
(x, y, w, h).  A changed mask can still give the same boxes, so
`FRONT_END_SHA256` pins the arrays that `detect_bounding_box` hands from
stage to stage on the same 25 images: per mode and stage, the SHA-256 of
the stage outputs' bytes, concatenated in scene order.  They were recorded
from the whole-image front end that the banded one replaced.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from rcc import cli, segment
from rcc.baseline import calibrate_ranges, count_hsv_hits, ranges_to_csv
from rcc.harness import DEFAULT_GAIN_SWEEP, load_patches
from rcc.image import read_ppm, write_ppm
from rcc.net import init_params, save_checkpoint
from rcc.segment import BoundRect, detect_bounding_box
from rcc.synth import (
    COLOR_CLASSES,
    ILLUMINANT_PRESETS,
    IlluminationSpec,
    apply_illumination,
    generate_dataset,
    render_scene,
)

GOLDEN = Path(__file__).parent / "data" / "golden_seed0.sha256"
INIT_CHECKPOINT_SHA256 = {
    0: "2fe338f0730f6ae5cafff3596a51900f2cf104fb2c76c54b0b7c6c95cbe43a01",
    1: "f1ab2c6e31a251a4dd4470db09c34f1c18c58bc4e22cb3cbc3651e3d03b595f4",
    2: "23bc33d2ba8f1507ece0fa1a0b1da82dc70f1f33ea21057fea9bba345bd71c22",
}
BASELINE_RANGES_SHA256 = "029e7d19aab7dba9c99597d07330627f809126afa036dec10692c93fa113d8c7"
BASELINE_SWEEP_HITS = [26, 34, 37, 39, 36, 34, 30]
SCORING_SHA256 = {
    "report.json": "c8495ba53945f2d87e4697dd7d206425e37e7b906cc2ee9c38ccdbd07f8bcb62",
    "sweep.csv": "d57edec476f5c443e4b01a94409400c9e9afc4d915563a7a6a7f23548a9ddc38",
}
DETECT_BOXES = {
    "adaptive": [
        (55, 29, 36, 33), (35, 29, 32, 56), (30, 25, 44, 52), (60, 56, 48, 33),
        (62, 9, 40, 26), (77, 32, 31, 53), (5, 14, 37, 46), (9, 10, 49, 55),
        (53, 6, 52, 49), (90, 9, 33, 57), (44, 57, 57, 28), (73, 16, 47, 30),
        (18, 52, 48, 35), (21, 33, 25, 48), (68, 22, 29, 32), (37, 60, 52, 33),
        (36, 51, 56, 35), (31, 34, 57, 30), (75, 61, 41, 25), (60, 7, 50, 40),
        (8, 33, 31, 50), (13, 4, 51, 30), (78, 51, 44, 30), (5, 17, 30, 45),
        (199, 149, 242, 182),
    ],
    "sobel": [
        (52, 26, 42, 39), (33, 27, 36, 60), (27, 22, 50, 58), (58, 54, 53, 37),
        (59, 6, 46, 32), (74, 29, 37, 59), (2, 11, 43, 52), (6, 7, 55, 61),
        (50, 4, 58, 53), (87, 6, 39, 63), (41, 54, 63, 34), (70, 13, 53, 36),
        (15, 49, 54, 41), (18, 30, 31, 54), (65, 19, 35, 38), (34, 57, 58, 39),
        (33, 48, 62, 41), (28, 31, 63, 36), (73, 58, 46, 31), (57, 5, 55, 44),
        (5, 31, 35, 54), (10, 1, 57, 36), (75, 48, 50, 36), (3, 15, 35, 49),
        (196, 146, 248, 188),
    ],
}

FRONT_END_SHA256 = {
    "adaptive": {
        "rgb_to_gray": "a143de315d6096ca2f8a481e5fa206f08276eeb38dd98a07a7c36978c3ba02d6",
        "gaussian_blur": "1d1f8d721aeb48dbd010c46c22fdb96360956c01092124ef03359137eb6278de",
        "adaptive_threshold": "cfb47d17c4153ef83c9c8a3d19f566c79bc6c985974a37bc4930096aafd838b5",
    },
    "sobel": {
        "rgb_to_gray": "a143de315d6096ca2f8a481e5fa206f08276eeb38dd98a07a7c36978c3ba02d6",
        "gaussian_blur": "1d1f8d721aeb48dbd010c46c22fdb96360956c01092124ef03359137eb6278de",
        "sobel_magnitude": "1154f9f8b99f2d7fba7d3ef37fdc125b3c2557e41c7d3ffc04ad588b81de3916",
        "dilate": "f7bef86619e8ff867f56bb13a4df10b3ddeedd14f13a3d293542306f681c928f",
    },
}


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines())
    return {name: digest for digest, name in pairs}


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    """The default dataset of seed 0, plus the 640x480 scene, in one dir."""
    path = tmp_path_factory.mktemp("seed0")
    manifest = generate_dataset(path, seed=0)
    scene, _ = render_scene(
        COLOR_CLASSES[4], BoundRect(200, 150, 240, 180), 640, 480,
        ILLUMINANT_PRESETS["warm"], seed=7, jitter=0,
    )
    (path / "render_scene_640x480.ppm").write_bytes(write_ppm(scene))
    return path, manifest


def test_generator_bytes_match_golden(seed0):
    path, _ = seed0
    actual = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in path.iterdir()
    }
    assert actual == _golden()


@pytest.mark.parametrize("mode", sorted(DETECT_BOXES))
def test_detect_boxes_match_golden(seed0, mode):
    path, manifest = seed0
    names = [s.filename for s in manifest.scenes] + ["render_scene_640x480.ppm"]
    boxes = [
        dataclasses.astuple(detect_bounding_box(read_ppm((path / n).read_bytes()), mode))
        for n in names
    ]
    assert boxes == DETECT_BOXES[mode]


@pytest.mark.parametrize("mode", sorted(FRONT_END_SHA256))
def test_front_end_arrays_match_golden(seed0, monkeypatch, mode):
    path, manifest = seed0
    names = [s.filename for s in manifest.scenes] + ["render_scene_640x480.ppm"]
    digests = {stage: hashlib.sha256() for stage in FRONT_END_SHA256[mode]}

    def recorded(stage, fn):
        def call(*args):
            out = fn(*args)
            array = out.bits if isinstance(out, segment.BinaryMask) else out.pixels
            digests[stage].update(array.tobytes())
            return out
        return call

    for stage in digests:
        monkeypatch.setattr(segment, stage, recorded(stage, getattr(segment, stage)))
    for n in names:
        detect_bounding_box(read_ppm((path / n).read_bytes()), mode)
    assert {k: d.hexdigest() for k, d in digests.items()} == FRONT_END_SHA256[mode]


@pytest.mark.parametrize("seed", sorted(INIT_CHECKPOINT_SHA256))
def test_init_checkpoint_bytes_match_golden(seed):
    digest = hashlib.sha256(save_checkpoint(init_params(seed))).hexdigest()
    assert digest == INIT_CHECKPOINT_SHA256[seed]


def test_baseline_matches_golden(seed0):
    path, manifest = seed0
    ranges = calibrate_ranges(*load_patches(manifest.split("train"), path))
    digest = hashlib.sha256(ranges_to_csv(ranges).encode("utf-8")).hexdigest()
    assert digest == BASELINE_RANGES_SHA256
    patches, labels = load_patches(manifest.split("test"), path)
    hits = [
        count_hsv_hits(
            apply_illumination(
                patches, IlluminationSpec((gain, gain, gain), 1.0, 0.0), [0] * len(patches)
            ),
            labels,
            ranges,
        )
        for gain in DEFAULT_GAIN_SWEEP
    ]
    assert hits == BASELINE_SWEEP_HITS


def test_scoring_outputs_match_golden(seed0, tmp_path, capsys):
    path, _ = seed0
    params = init_params(3)
    params = params.replace_tensors(
        {name: np.round(t * 2**20) / 2**20 for name, t in params.tensors()}
    )
    model, ranges = tmp_path / "model.ckpt", tmp_path / "ranges.csv"
    model.write_bytes(save_checkpoint(params))
    data = ["--data", str(path)]
    for argv in (
        ["eval", *data, "--model", str(model), "--report", str(tmp_path / "report.json")],
        ["baseline", *data, "--ranges", str(ranges), "--calibrate"],
        ["compare", *data, "--model", str(model), "--ranges", str(ranges),
         "--out", str(tmp_path / "sweep.csv")],
    ):
        assert cli.main(argv) == 0, argv[0]
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SCORING_SHA256
    }
    assert actual == SCORING_SHA256
