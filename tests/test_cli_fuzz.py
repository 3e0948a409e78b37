"""The exit-code contract under corrupt CSV inputs.

Each example breaks one of `manifest.csv`, `scenes.csv` and `ranges.csv`
in a small dataset, then runs `eval`, `baseline` and `compare` on it.
Whatever the damage, each command must return an exit code in 0-4 and
raise nothing.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcc import cli
from rcc.net import init_params, save_checkpoint
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
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in range(5), (argv[0], code)
    finally:
        file.write_text(texts[name])
