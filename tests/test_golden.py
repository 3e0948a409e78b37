"""Golden bytes of the generator: a change to any output byte fails here.

`data/golden_seed0.sha256` holds the SHA-256 of every file that
`generate_dataset(seed=0)` writes at its defaults, plus one 640x480
`render_scene` saved as `render_scene_640x480.ppm`, in `sha256sum` format.
The determinism acceptance test only compares two runs of the same code,
so it would pass a change that moves every byte; this one would not.
"""

import hashlib
from pathlib import Path

from rcc.image import write_ppm
from rcc.segment import BoundRect
from rcc.synth import COLOR_CLASSES, ILLUMINANT_PRESETS, generate_dataset, render_scene

GOLDEN = Path(__file__).parent / "data" / "golden_seed0.sha256"


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines())
    return {name: digest for digest, name in pairs}


def test_generator_bytes_match_golden(tmp_path):
    generate_dataset(tmp_path, seed=0)
    scene, _ = render_scene(
        COLOR_CLASSES[4], BoundRect(200, 150, 240, 180), 640, 480,
        ILLUMINANT_PRESETS["warm"], seed=7, jitter=0,
    )
    (tmp_path / "render_scene_640x480.ppm").write_bytes(write_ppm(scene))
    actual = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert actual == _golden()
