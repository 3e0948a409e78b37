"""The exit-code contract under corrupt inputs.

Each example breaks one of `manifest.csv`, `scenes.csv` and `ranges.csv`
in a small dataset, then runs `eval`, `baseline` and `compare` on it; or
it cuts the checkpoint or a scene PPM short, or flips one of its bits,
then runs `eval` and `detect` on it. Whatever the damage, each command
must return an exit code in 0-4 and raise nothing.  A manifest with an
empty split gets the exit code pinned for each command.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcc import cli
from rcc.net import init_params, save_checkpoint
from rcc.segment import MODES
from rcc.synth import generate_dataset

CSV_FILES = ("manifest.csv", "scenes.csv", "ranges.csv")
FIELD_VALUES = ("", "nan", "inf", "-1", "9", "x")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A directory of 12 patches and 2 scenes, calibrated ranges and an
    init checkpoint, with the pristine text of each CSV file."""
    path = tmp_path_factory.mktemp("fuzz")
    generate_dataset(path, total=12, train=6, seed=0, scenes=2)
    (path / "model.ckpt").write_bytes(save_checkpoint(init_params(0)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(
            ["baseline", "--data", str(path), "--ranges", str(path / "ranges.csv"),
             "--calibrate"]
        ) == 0
    return path, {name: (path / name).read_text() for name in CSV_FILES}


def mutate(draw, text: str) -> str:
    """`text` with one line dropped, repeated or cut short, or with one
    field of a line replaced."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "repeat", "cut", "field")))
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        fields = lines[i].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELD_VALUES))
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def damage(draw, data: bytes) -> bytes:
    """`data` cut short at a drawn offset, or with one bit flipped there;
    about half the offsets fall in the first 64 bytes, where the headers are."""
    i = draw(st.integers(0, min(63, len(data) - 1)) | st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:i]
    return data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1 :]


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrupt_csv_exits_with_a_contract_code(dataset, data):
    path, texts = dataset
    name = data.draw(st.sampled_from(CSV_FILES))
    file = path / name
    file.write_text(mutate(data.draw, texts[name]))
    model = ["--model", str(path / "model.ckpt")]
    ranges = ["--ranges", str(path / "ranges.csv")]
    commands = (
        ["eval", "--data", str(path), *model, "--report", str(path / "report.json")],
        ["baseline", "--data", str(path), *ranges],
        ["compare", "--data", str(path), *model, *ranges, "--out", str(path / "sweep.csv")],
    )
    try:
        for argv in commands:
            code = run_quietly(argv)
            assert code in range(5), (argv[0], code)
    finally:
        file.write_text(texts[name])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_corrupt_checkpoint_or_scene_exits_with_a_contract_code(dataset, data):
    path, _ = dataset
    file = path / data.draw(st.sampled_from(("model.ckpt", "scene_00.ppm")))
    pristine = file.read_bytes()
    file.write_bytes(damage(data.draw, pristine))
    model = ["--model", str(path / "model.ckpt")]
    commands = (
        ["eval", "--data", str(path), *model, "--report", str(path / "report.json")],
        *(["detect", "--image", str(path / "scene_00.ppm"), *model, "--json",
           "--segmenter", mode] for mode in MODES),
    )
    try:
        for argv in commands:
            code = run_quietly(argv)
            assert code in range(5), (argv[0], code)
    finally:
        file.write_bytes(pristine)


# manifest rows kept -> the code of each command: 3 when a split it needs
# is missing, else 0
EMPTY_SPLIT_CODES = {
    "train": {"train": 3, "eval": 3, "baseline": 3, "calibrate": 3, "compare": 3},
    "test": {"train": 3, "eval": 0, "baseline": 0, "calibrate": 3, "compare": 0},
    "none": {"train": 3, "eval": 3, "baseline": 3, "calibrate": 3, "compare": 3},
}


@pytest.mark.parametrize("kept", list(EMPTY_SPLIT_CODES))
def test_empty_split_exits_with_the_pinned_code(dataset, tmp_path, kept):
    path, texts = dataset
    header, *rows = texts["manifest.csv"].splitlines()
    rows = [row for row in rows if row.split(",")[3] == kept]
    model = ["--model", str(path / "model.ckpt")]
    ranges = ["--ranges", str(path / "ranges.csv")]
    commands = {
        "train": ["train", "--data", str(path), "--out", str(tmp_path / "t.ckpt"),
                  "--metrics", str(tmp_path / "m.csv"), "--epochs", "1"],
        "eval": ["eval", "--data", str(path), *model,
                 "--report", str(tmp_path / "report.json")],
        "baseline": ["baseline", "--data", str(path), *ranges],
        "calibrate": ["baseline", "--data", str(path), "--calibrate",
                      "--ranges", str(tmp_path / "ranges.csv")],
        "compare": ["compare", "--data", str(path), *model, *ranges,
                    "--out", str(tmp_path / "sweep.csv")],
    }
    (path / "manifest.csv").write_text("\n".join([header, *rows]) + "\n")
    try:
        codes = {name: run_quietly(argv) for name, argv in commands.items()}
    finally:
        (path / "manifest.csv").write_text(texts["manifest.csv"])
    assert codes == EMPTY_SPLIT_CODES[kept]
