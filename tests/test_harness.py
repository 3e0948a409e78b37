"""Training/eval harness and command line behavior on tiny datasets."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcc import cli, harness
from rcc.baseline import HsvRange
from rcc.image import Image, read_ppm, write_ppm
from rcc.net import NumericError, init_params, load_checkpoint, save_checkpoint
from rcc.segment import BoundRect
from rcc.synth import generate_dataset, read_manifest, write_csv


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """12 patches (6 train / 6 test, one per class) plus 2 scenes."""
    path = tmp_path_factory.mktemp("tiny")
    manifest = generate_dataset(path, total=12, train=6, seed=0, scenes=2)
    return path, manifest


def _rewrite(path, old, new):
    """Replace every `old` with `new` in a text file."""
    path.write_text(path.read_text().replace(old, new))


def _set_field(lines, line, column, value):
    """`lines` with field `column` of 1-based line `line` set to `value`."""
    fields = lines[line - 1].split(",")
    fields[column] = value
    return lines[: line - 1] + [",".join(fields)] + lines[line:]


WIDE_OPEN_RANGES = [HsvRange(i, 0.0, 360.0, 0.0, 0.0) for i in range(6)]


def _overflowing_model(path):
    """A checkpoint of finite weights whose forward pass overflows to
    non-finite logits."""
    params = init_params(0)
    tensors = dict(params.tensors())
    tensors["fc2.weights"] = tensors["fc2.weights"] * 1e100
    tensors["fc3.weights"] = tensors["fc3.weights"] * 1e300
    path.write_bytes(save_checkpoint(params.replace_tensors(tensors)))


def _beyond_float32_model(path):
    """A checkpoint with one fc3 weight of 1e39: finite in float64, but
    infinite once cast to float32."""
    params = init_params(0)
    tensors = dict(params.tensors())
    tensors["fc3.weights"] = tensors["fc3.weights"].copy()
    tensors["fc3.weights"][0, 0] = 1e39
    path.write_bytes(save_checkpoint(params.replace_tensors(tensors)))


def _five_by_five_conv1_model(path):
    """A checkpoint whose conv1 is 8x3x5x5 with padding 2: its maps still
    chain to fc1's 512 inputs, but it is not the fixed architecture."""
    blob = save_checkpoint(init_params(0))
    conv1_end = 12 + 21 + 8 * (8 * 3 * 3 * 3 + 8)  # header, then its layer
    conv1 = struct.pack("<B5I", 0, 8, 3, 5, 5, 2)
    conv1 += np.full(8 * 3 * 5 * 5 + 8, 0.01).astype("<f8").tobytes()
    path.write_bytes(blob[:12] + conv1 + blob[conv1_end:])


class TestTrain:
    def test_zero_epochs_returns_initial_weights(self, tiny_dataset):
        path, manifest = tiny_dataset
        params, metrics = harness.train(manifest, path, epochs=0, seed=0)
        assert metrics == []
        init = dict(init_params(0).tensors())
        for name, tensor in params.tensors():
            assert np.array_equal(tensor, init[name])

    def test_two_epochs_produce_ordered_metrics(self, tiny_dataset):
        path, manifest = tiny_dataset
        params, metrics = harness.train(manifest, path, epochs=2, seed=0)
        assert [m.epoch for m in metrics] == [1, 2]
        for m in metrics:
            assert m.train_loss > 0 and m.val_loss > 0
            assert 0 <= m.train_acc <= 1 and 0 <= m.val_acc <= 1
        trained = dict(params.tensors())
        init = dict(init_params(0).tensors())
        assert not np.array_equal(trained["fc3.weights"], init["fc3.weights"])

    def test_training_is_deterministic(self, tiny_dataset):
        path, manifest = tiny_dataset
        a, ma = harness.train(manifest, path, epochs=2, seed=9)
        b, mb = harness.train(manifest, path, epochs=2, seed=9)
        assert ma == mb
        assert save_checkpoint(a) == save_checkpoint(b)

    @pytest.mark.filterwarnings("error")
    def test_diverging_run_raises_numeric_error(self, tiny_dataset):
        path, manifest = tiny_dataset
        with pytest.raises(NumericError, match="epoch 2"):
            harness.train(manifest, path, epochs=5, lr=20, batch=2, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reevaluation_names_the_epoch(self, tiny_dataset):
        # at this rate the weights stay finite through epoch 1 but the
        # end-of-epoch forward pass overflows
        path, manifest = tiny_dataset
        with pytest.raises(NumericError, match="non-finite logits in epoch 1"):
            harness.train(manifest, path, epochs=5, lr=50, batch=2, seed=0)

    def test_metrics_csv_shape(self):
        metrics = [harness.EpochMetrics(1, 1.5, 0.3, 1.6, 0.25)]
        text = write_csv(harness.EpochMetrics, metrics)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[1].split(",")[1]) == 1.5


class TestEvaluate:
    def test_confusion_matches_hand_count(self, tiny_dataset):
        path, manifest = tiny_dataset
        params = init_params(0)
        report = harness.evaluate(manifest, path, params)
        confusion = np.array(report["confusion"])
        assert confusion.sum() == 6
        assert confusion.shape == (6, 6)
        assert report["accuracy"] == pytest.approx(np.trace(confusion) / 6)

    def test_json_dict_layout(self, tiny_dataset):
        path, manifest = tiny_dataset
        params = init_params(0)
        report = harness.evaluate(manifest, path, params)
        assert list(report) == ["accuracy", "per_class_accuracy", "confusion"]
        assert isinstance(report["accuracy"], float)
        assert list(report["per_class_accuracy"]) == list(params.class_names)
        confusion = report["confusion"]
        assert all(type(n) is int for row in confusion for n in row)
        for i, name in enumerate(params.class_names):
            row_sum = sum(confusion[i])
            expected = confusion[i][i] / row_sum if row_sum else 0.0
            assert report["per_class_accuracy"][name] == expected


class TestDetectAndAnnotate:
    def test_detect_record_layout(self, tiny_dataset):
        path, manifest = tiny_dataset
        scene = read_ppm((path / manifest.scenes[0].filename).read_bytes())
        record = harness.detect(scene, init_params(0))
        assert set(record) == {"box", "label", "confidence", "cube_labels"}
        assert set(record["box"]) == {"x", "y", "w", "h"}
        assert len(record["cube_labels"]) == 9
        assert 0.0 <= record["confidence"] <= 1.0
        truth = manifest.scenes[0].rect
        assert abs(record["box"]["x"] - truth.x) <= 2
        assert abs(record["box"]["y"] - truth.y) <= 2

    def test_annotate_draws_red_perimeter_only(self):
        img = Image(np.full((10, 10, 3), 200, dtype=np.uint8))
        rect = BoundRect(2, 3, 5, 4)
        out = harness.annotate_box(img, rect)
        assert out.pixels[3, 2].tolist() == [255, 0, 0]
        assert out.pixels[6, 6].tolist() == [255, 0, 0]
        assert out.pixels[4, 4].tolist() == [200, 200, 200]  # interior untouched
        assert img.pixels[3, 2].tolist() == [200, 200, 200]  # source unchanged

    def test_annotate_rejects_out_of_bounds_rect(self):
        img = Image(np.full((5, 5, 3), 0, dtype=np.uint8))
        with pytest.raises(ValueError):
            harness.annotate_box(img, BoundRect(3, 3, 4, 4))


class TestRobustness:
    def test_unit_gain_matches_direct_evaluation(self, tiny_dataset):
        path, manifest = tiny_dataset
        params = init_params(0)
        rows = harness.compare_robustness(manifest, path, params, WIDE_OPEN_RANGES)
        unit, = (r for r in rows if r.gain == 1.0)
        report = harness.evaluate(manifest, path, params)
        assert unit.cnn_acc == pytest.approx(report["accuracy"])

    def test_default_sweep_has_seven_rows(self, tiny_dataset):
        path, manifest = tiny_dataset
        rows = harness.compare_robustness(
            manifest, path, init_params(0), WIDE_OPEN_RANGES
        )
        assert [r.gain for r in rows] == [0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]

    def test_csv_header(self):
        text = write_csv(harness.RobustnessRow, [harness.RobustnessRow(1.0, 0.5, 0.25)])
        assert text.splitlines()[0] == "gain,cnn_acc,hsv_acc"


class TestCli:
    def test_gen_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = cli.main(
            ["gen", "--out", str(out), "--count", "12", "--train", "6",
             "--seed", "0", "--scenes", "1"]
        )
        assert code == 0
        assert (out / "manifest.csv").exists()
        assert (out / "scenes.csv").exists()
        assert "12 patches" in capsys.readouterr().out

    def test_train_eval_detect_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        model = tmp_path / "model.ckpt"
        metrics = tmp_path / "metrics.csv"
        report = tmp_path / "report.json"
        assert cli.main(
            ["gen", "--out", str(data), "--count", "12", "--train", "6",
             "--seed", "0", "--scenes", "1"]
        ) == 0
        assert cli.main(
            ["train", "--data", str(data), "--out", str(model),
             "--metrics", str(metrics), "--epochs", "1", "--seed", "0"]
        ) == 0
        assert load_checkpoint(model.read_bytes()).conv1.filters.shape == (8, 3, 3, 3)
        assert len(metrics.read_text().splitlines()) == 2

        assert cli.main(
            ["eval", "--data", str(data), "--model", str(model),
             "--report", str(report)]
        ) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == {"accuracy", "per_class_accuracy", "confusion"}

        capsys.readouterr()
        annotated = tmp_path / "annotated.ppm"
        code = cli.main(
            ["detect", "--image", str(data / "scene_00.ppm"),
             "--model", str(model), "--annotate", str(annotated), "--json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record["box"]) == {"x", "y", "w", "h"}
        assert read_ppm(annotated.read_bytes()).width == 128

    def test_detect_no_object_exit_code(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        model.write_bytes(save_checkpoint(init_params(0)))
        blank = tmp_path / "blank.ppm"
        blank.write_bytes(
            write_ppm(Image(np.full((40, 40, 3), 255, dtype=np.uint8)))
        )
        code = cli.main(
            ["detect", "--image", str(blank), "--model", str(model), "--json"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {"error": "no_object"}

    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 3), (1, 200)], ids=["1x1", "2x3", "1x200"]
    )
    @pytest.mark.parametrize("mode", ["adaptive", "sobel"])
    def test_tiny_image_is_no_object_in_both_modes(self, tmp_path, capsys, shape, mode):
        model = tmp_path / "model.ckpt"
        model.write_bytes(save_checkpoint(init_params(0)))
        image = tmp_path / "tiny.ppm"
        image.write_bytes(write_ppm(Image(np.full(shape + (3,), 128, dtype=np.uint8))))
        code = cli.main(
            ["detect", "--image", str(image), "--model", str(model),
             "--segmenter", mode, "--json"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {"error": "no_object"}

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "line 3: expected 5 fields"),
        (lambda lines: lines[:3], "no row for class 2"),
        (lambda lines: lines + [lines[1]], "line 8: second row for class 0"),
        (lambda lines: lines[:6] + ["9" + lines[6][1:]],
         "line 7: class index 9 out of range"),
        (lambda lines: _set_field(lines, 6, 2, "nan"), "line 6: h_max nan outside"),
        (lambda lines: _set_field(lines, 6, 2, "inf"), "line 6: h_max inf outside"),
        (lambda lines: _set_field(lines, 6, 2, "9" * 131073),
         "ranges.csv line 6: field larger than field limit (131072)"),
    ], ids=["short", "missing", "duplicate", "index", "nan", "inf", "huge"])
    def test_bad_ranges_file_is_io_error(self, tmp_path, capsys, edit, message):
        data = tmp_path / "data"
        ranges = tmp_path / "ranges.csv"
        model = tmp_path / "model.ckpt"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        model.write_bytes(save_checkpoint(init_params(0)))
        assert cli.main(
            ["baseline", "--data", str(data), "--ranges", str(ranges), "--calibrate"]
        ) == 0
        ranges.write_text("\n".join(edit(ranges.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert cli.main(["baseline", "--data", str(data), "--ranges", str(ranges)]) == 3
        assert cli.main(
            ["compare", "--data", str(data), "--model", str(model),
             "--ranges", str(ranges), "--out", str(tmp_path / "sweep.csv")]
        ) == 3
        err = capsys.readouterr().err
        assert err.count(message) == 2, err

    def test_baseline_and_compare_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        ranges = tmp_path / "ranges.csv"
        model = tmp_path / "model.ckpt"
        sweep = tmp_path / "sweep.csv"
        assert cli.main(
            ["gen", "--out", str(data), "--count", "12", "--train", "6",
             "--seed", "0", "--scenes", "0"]
        ) == 0
        model.write_bytes(save_checkpoint(init_params(0)))
        assert cli.main(
            ["baseline", "--data", str(data), "--ranges", str(ranges),
             "--calibrate"]
        ) == 0
        assert ranges.exists()
        # second run reads the written ranges back instead of refitting
        assert cli.main(
            ["baseline", "--data", str(data), "--ranges", str(ranges)]
        ) == 0
        assert cli.main(
            ["compare", "--data", str(data), "--model", str(model),
             "--ranges", str(ranges), "--out", str(sweep)]
        ) == 0
        lines = sweep.read_text().splitlines()
        assert lines[0] == "gain,cnn_acc,hsv_acc"
        assert len(lines) == 8

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = cli.main(
            ["detect", "--image", str(tmp_path / "absent.ppm"),
             "--model", str(tmp_path / "absent.ckpt")]
        )
        assert code == 3

    def test_corrupt_checkpoint_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "img.ppm"
        data.write_bytes(
            write_ppm(Image(np.zeros((4, 4, 3), dtype=np.uint8)))
        )
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert cli.main(
            ["detect", "--image", str(data), "--model", str(bad)]
        ) == 3

    def test_baseline_without_test_split_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        _rewrite(data / "manifest.csv", ",test,", ",train,")
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(tmp_path / "r.csv"),
             "--calibrate"]
        )
        assert code == 3
        assert "no test split" in capsys.readouterr().err

    def test_failed_calibration_writes_no_ranges_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        ranges = tmp_path / "r.csv"
        manifest = generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        emptied = manifest.split("test")[-1].filename
        (data / emptied).write_bytes(b"")
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(ranges), "--calibrate"]
        )
        assert code == 3
        assert f"{emptied}: missing P6 magic number" in capsys.readouterr().err
        assert not ranges.exists()

    def test_signed_ppm_header_is_io_error(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        model.write_bytes(save_checkpoint(init_params(0)))
        image = tmp_path / "signed.ppm"
        image.write_bytes(b"P6\n+2 1_0\n255\n" + bytes(60))
        code = cli.main(["detect", "--image", str(image), "--model", str(model)])
        assert code == 3
        assert "header token b'+2' is not ASCII digits" in capsys.readouterr().err

    def test_calibrate_without_train_split_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        _rewrite(data / "manifest.csv", ",train,", ",test,")
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(tmp_path / "r.csv"),
             "--calibrate"]
        )
        assert code == 3
        assert "manifest has no train split" in capsys.readouterr().err

    def test_out_of_range_class_index_is_io_error(self, tmp_path, capsys):
        """Also covers a manifest row cut short: both exit 3, no traceback."""
        model = tmp_path / "model.ckpt"
        model.write_bytes(save_checkpoint(init_params(0)))
        for case, old, new, message in (
            ("index", ",0,red,", ",9,red,", "out of range"),
            ("short", ",identity,0\n", "\n", "line 2: expected 7 fields"),
        ):
            data = tmp_path / case
            generate_dataset(data, total=12, train=6, seed=0, scenes=0)
            _rewrite(data / "manifest.csv", old, new)
            assert cli.main(
                ["train", "--data", str(data), "--out", str(model),
                 "--metrics", str(tmp_path / "metrics.csv"), "--epochs", "1"]
            ) == 3
            assert cli.main(
                ["eval", "--data", str(data), "--model", str(model),
                 "--report", str(tmp_path / "report.json")]
            ) == 3
            assert message in capsys.readouterr().err, case

    def test_train_bytes_match_across_blas_threads(self, tmp_path):
        """`rcc train` writes the same checkpoint and metrics whether
        OpenBLAS runs one thread or two."""
        data = tmp_path / "data"
        generate_dataset(data, total=24, train=18, seed=0, scenes=0)
        src = Path(cli.__file__).resolve().parents[1]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(src), env.get("PYTHONPATH")))
            )
            subprocess.run(
                [sys.executable, "-m", "rcc.cli", "train", "--data", str(data),
                 "--out", str(out / "model.ckpt"),
                 "--metrics", str(out / "metrics.csv"), "--epochs", "2"],
                env=env, check=True, capture_output=True,
            )
            outputs.append(
                ((out / "model.ckpt").read_bytes(), (out / "metrics.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_diverging_training_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        code = cli.main(
            ["train", "--data", str(data), "--out", str(tmp_path / "model.ckpt"),
             "--metrics", str(tmp_path / "metrics.csv"), "--epochs", "5",
             "--lr", "20", "--batch", "2"]
        )
        assert code == 4
        assert "epoch 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "eval", "compare"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_model_is_numeric_error(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        model = tmp_path / "model.ckpt"
        ranges = tmp_path / "ranges.csv"
        generate_dataset(data, total=12, train=6, seed=0, scenes=1)
        _overflowing_model(model)
        ranges.write_text(write_csv(HsvRange, WIDE_OPEN_RANGES))
        args = {
            "detect": ["--image", str(data / "scene_00.ppm")],
            "eval": ["--data", str(data), "--report", str(tmp_path / "report.json")],
            "compare": ["--data", str(data), "--ranges", str(ranges),
                        "--out", str(tmp_path / "sweep.csv")],
        }[command]
        assert cli.main([command, "--model", str(model)] + args) == 4
        assert "non-finite logits" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "eval", "compare"])
    @pytest.mark.filterwarnings("error")
    def test_model_beyond_float32_range_is_numeric_error(
        self, tiny_dataset, tmp_path, capsys, command
    ):
        # eval and compare score in float32, so the weight casts to inf;
        # the load rejects it, so detect, which scores in float64, does too
        data, _ = tiny_dataset
        model = tmp_path / "model.ckpt"
        ranges = tmp_path / "ranges.csv"
        _beyond_float32_model(model)
        ranges.write_text(write_csv(HsvRange, WIDE_OPEN_RANGES))
        args = {
            "detect": ["--image", str(data / "scene_00.ppm")],
            "eval": ["--data", str(data), "--report", str(tmp_path / "report.json")],
            "compare": ["--data", str(data), "--ranges", str(ranges),
                        "--out", str(tmp_path / "sweep.csv")],
        }[command]
        assert cli.main([command, "--model", str(model)] + args) == 4
        assert "non-finite logits" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, code, named", [
        ("nan", 3, "conv2: filters contains non-finite values"),
        ("beyond-float32", 4, "fc3.weights overflows float32"),
    ])
    def test_bad_tensor_is_named_by_detect(self, tiny_dataset, tmp_path, capsys,
                                           fault, code, named):
        data, _ = tiny_dataset
        model = tmp_path / "model.ckpt"
        if fault == "nan":
            params = init_params(0)
            tensors = dict(params.tensors())
            blob = bytearray(save_checkpoint(params))
            at = blob.index(tensors["conv2.filters"].astype("<f8").tobytes())
            blob[at + 8 : at + 16] = np.float64(np.nan).tobytes()
            model.write_bytes(bytes(blob))
        else:
            _beyond_float32_model(model)
        argv = ["detect", "--model", str(model), "--image", str(data / "scene_00.ppm")]
        assert cli.main(argv) == code
        assert named in capsys.readouterr().err

    def test_every_test_split_score_agrees(self, tmp_path, capsys):
        # training re-evaluates the test split each epoch; eval and the
        # compare sweep's gain 1.0 score it again and must agree exactly
        data = tmp_path / "data"
        model, metrics = tmp_path / "model.ckpt", tmp_path / "metrics.csv"
        report, sweep = tmp_path / "report.json", tmp_path / "sweep.csv"
        ranges = tmp_path / "ranges.csv"
        generate_dataset(data, seed=0, scenes=0)
        ranges.write_text(write_csv(HsvRange, WIDE_OPEN_RANGES))
        for argv in (
            ["train", "--out", str(model), "--metrics", str(metrics), "--epochs", "2"],
            ["eval", "--model", str(model), "--report", str(report)],
            ["compare", "--model", str(model), "--ranges", str(ranges), "--out", str(sweep)],
        ):
            assert cli.main(argv + ["--data", str(data)]) == 0
        val_acc = float(metrics.read_text().splitlines()[-1].split(",")[4])
        accuracy = json.loads(report.read_text())["accuracy"]
        unit_gain = [line.split(",") for line in sweep.read_text().splitlines()[1:]
                     if float(line.split(",")[0]) == 1.0]
        assert val_acc == accuracy == float(unit_gain[0][1])

    @pytest.mark.parametrize("command", ["eval", "detect-adaptive", "detect-sobel"])
    def test_model_off_the_layer_table_is_io_error(
        self, tiny_dataset, tmp_path, capsys, command
    ):
        data, _ = tiny_dataset
        model = tmp_path / "model.ckpt"
        _five_by_five_conv1_model(model)
        args = {
            "eval": ["eval", "--data", str(data), "--report", str(tmp_path / "r.json")],
            "detect-adaptive": ["detect", "--image", str(data / "scene_00.ppm"),
                                "--segmenter", "adaptive", "--json"],
            "detect-sobel": ["detect", "--image", str(data / "scene_00.ppm"),
                             "--segmenter", "sobel", "--json"],
        }[command]
        assert cli.main(args + ["--model", str(model)]) == 3
        assert "conv1" in capsys.readouterr().err

    def test_bad_manifest_value_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        manifest = data / "manifest.csv"
        manifest.write_text(
            "\n".join(_set_field(manifest.read_text().splitlines(), 4, 4, "abc")) + "\n"
        )
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(tmp_path / "r.csv"),
             "--calibrate"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "manifest.csv line 4: could not convert string to float: 'abc'" in err

    PATCH_COMMANDS = pytest.mark.parametrize("command, split", [
        ("train", "train"), ("eval", "test"), ("baseline", "train"), ("compare", "test"),
    ])

    @staticmethod
    def _run_with_bad_patches(tmp_path, command, spoil):
        """Run `command` on a 12-patch dataset whose last train and last test
        patches went through `spoil` (PPM bytes to new bytes); returns the
        exit code and those two patches' file names by split."""
        data = tmp_path / "data"
        model = tmp_path / "model.ckpt"
        ranges = tmp_path / "ranges.csv"
        manifest = generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        model.write_bytes(save_checkpoint(init_params(0)))
        ranges.write_text(write_csv(HsvRange, WIDE_OPEN_RANGES))
        cut = {}
        for name in ("train", "test"):
            cut[name] = manifest.split(name)[-1].filename
            path = data / cut[name]
            path.write_bytes(spoil(path.read_bytes()))
        args = {
            "train": ["train", "--out", str(model), "--metrics", str(tmp_path / "m.csv"),
                      "--epochs", "1"],
            "eval": ["eval", "--model", str(model), "--report", str(tmp_path / "r.json")],
            "baseline": ["baseline", "--ranges", str(tmp_path / "fit.csv"), "--calibrate"],
            "compare": ["compare", "--model", str(model), "--ranges", str(ranges),
                        "--out", str(tmp_path / "sweep.csv")],
        }[command]
        return cli.main(args + ["--data", str(data)]), cut

    @PATCH_COMMANDS
    def test_wrong_size_patch_names_file(self, tmp_path, capsys, command, split):
        code, cut = self._run_with_bad_patches(
            tmp_path, command, lambda ppm: write_ppm(Image(read_ppm(ppm).pixels[:16, :16]))
        )
        assert code == 3
        assert f"{cut[split]}: expected a 32x32 patch, got 16x16" in capsys.readouterr().err

    @PATCH_COMMANDS
    def test_truncated_patch_names_file(self, tmp_path, capsys, command, split):
        code, cut = self._run_with_bad_patches(tmp_path, command, lambda ppm: ppm[:-5])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{cut[split]}: payload holds 3067 bytes, header promises 3072" in err

    def test_magic_without_whitespace_names_file(self, tmp_path, capsys):
        # "P6\n32 32\n255\n" becomes "P632 32\n255\n", which would read as 32x32
        code, cut = self._run_with_bad_patches(tmp_path, "train", lambda ppm: b"P6" + ppm[3:])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{cut['train']}: missing whitespace after the P6 magic number" in err

    @pytest.mark.parametrize("csv_name, column, value, message", [
        ("manifest.csv", 4, "nan", "brightness nan outside [0.2, 1.0]"),
        ("manifest.csv", 4, "1.5", "brightness 1.5 outside [0.2, 1.0]"),
        ("manifest.csv", 5, "moonlight", "unknown illuminant 'moonlight'"),
        ("manifest.csv", 6, "-5", "seed -5 outside [0, 2**64)"),
        ("manifest.csv", 6, str(2**64), f"seed {2**64} outside [0, 2**64)"),
        ("scenes.csv", 7, "moonlight", "unknown illuminant 'moonlight'"),
        ("scenes.csv", 3, "-1", "box origin (-1, "),
        ("scenes.csv", 5, "0", "box size 0x"),
        ("manifest.csv", 0, "p" * 131073, "field larger than field limit (131072)"),
        ("scenes.csv", 0, "s" * 131073, "field larger than field limit (131072)"),
    ], ids=["brightness-nan", "brightness-high", "illuminant", "seed-negative",
            "seed-wide", "scene-illuminant", "scene-origin", "scene-size", "huge",
            "scene-huge"])
    def test_bad_manifest_field_is_io_error(
        self, tmp_path, capsys, csv_name, column, value, message
    ):
        data = tmp_path / "data"
        model = tmp_path / "model.ckpt"
        ranges = tmp_path / "ranges.csv"
        generate_dataset(data, total=12, train=6, seed=0, scenes=1)
        model.write_bytes(save_checkpoint(init_params(0)))
        ranges.write_text(write_csv(HsvRange, WIDE_OPEN_RANGES))
        path = data / csv_name
        path.write_text(
            "\n".join(_set_field(path.read_text().splitlines(), 2, column, value)) + "\n"
        )
        for argv in (
            ["train", "--out", str(model), "--metrics", str(tmp_path / "m.csv"),
             "--epochs", "1"],
            ["eval", "--model", str(model), "--report", str(tmp_path / "r.json")],
            ["baseline", "--ranges", str(tmp_path / "fit.csv"), "--calibrate"],
            ["compare", "--model", str(model), "--ranges", str(ranges),
             "--out", str(tmp_path / "sweep.csv")],
        ):
            assert cli.main(argv + ["--data", str(data)]) == 3, argv[0]
            assert f"{csv_name} line 2: {message}" in capsys.readouterr().err, argv[0]
        assert not (tmp_path / "fit.csv").exists()

    def test_unknown_split_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        manifest = data / "manifest.csv"
        manifest.write_text(
            "\n".join(_set_field(manifest.read_text().splitlines(), 4, 3, "9")) + "\n"
        )
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(tmp_path / "r.csv"),
             "--calibrate"]
        )
        assert code == 3
        assert "manifest.csv line 4: unknown split '9'" in capsys.readouterr().err

    @pytest.mark.parametrize("csv_name, edit, message", [
        ("manifest.csv", lambda lines: lines + [lines[1]],
         "manifest.csv line 14: filename 'patch_0000.ppm' repeats manifest.csv line 2"),
        ("scenes.csv", lambda lines: _set_field(lines, 2, 0, "patch_0000.ppm"),
         "scenes.csv line 2: filename 'patch_0000.ppm' repeats manifest.csv line 2"),
    ], ids=["manifest", "scenes"])
    def test_repeated_filename_names_both_lines(
        self, tmp_path, capsys, csv_name, edit, message
    ):
        data = tmp_path / "data"
        model = tmp_path / "model.ckpt"
        generate_dataset(data, total=12, train=6, seed=0, scenes=1)
        model.write_bytes(save_checkpoint(init_params(0)))
        path = data / csv_name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = cli.main(
            ["eval", "--data", str(data), "--model", str(model),
             "--report", str(tmp_path / "report.json")]
        )
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "0"],
        ["gen", "--count", "10", "--train", "20"],
        ["gen", "--count", "10", "--train", "10"],
        ["gen", "--scenes", "-1"],
        ["train", "--batch", "0"],
        ["train", "--epochs", "-3"],
        ["train", "--momentum", "1"],
        ["train", "--momentum", "-0.5"],
        ["train", "--lr", "-1"],
        ["train", "--lr", "0"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
    ], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
    def test_bad_argument_value_is_usage_error(self, tmp_path, capsys, argv):
        """Rejected by the parser, before any file is read or written."""
        data = tmp_path / "data"
        if argv[0] == "gen":
            argv = argv + ["--out", str(data)]
        else:
            generate_dataset(data, total=12, train=6, seed=0, scenes=0)
            argv = argv + ["--data", str(data), "--out", str(tmp_path / "model.ckpt"),
                           "--metrics", str(tmp_path / "metrics.csv")]
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1
        assert sorted(tmp_path.rglob("*")) == before
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "train", "gradcheck"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, command, seed):
        """A seed outside [0, 2**64) would alias one inside it."""
        argv = {
            "gen": ["gen", "--out", str(tmp_path / "data")],
            "train": ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt"),
                      "--metrics", str(tmp_path / "metrics.csv")],
            "gradcheck": ["gradcheck"],
        }[command]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--seed", seed])
        assert err.value.code == 1
        assert list(tmp_path.iterdir()) == []
        assert f"argument --seed: {seed!r} is not in [0, 2**64)" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "data"
        argv = ["gen", "--out", str(out), "--count", "7", "--train", "3", "--scenes", "1"]
        assert cli.main(argv + ["--seed", str(2**64 - 1)]) == 0
        assert (out / "scene_00.ppm").exists()

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            cli.main(["gen"])  # --out is required
        assert err.value.code == 1

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """Calls in one process share a parser; no call's arguments or
        error carry over to the next."""
        with pytest.raises(SystemExit) as err:
            cli.main(["gen", "--out", str(tmp_path / "bad"), "--count", "0"])
        assert err.value.code == 1
        assert not (tmp_path / "bad").exists()
        small = ["--count", "12", "--train", "6", "--scenes", "1"]
        assert cli.main(["gen", "--out", str(tmp_path / "a"), "--seed", "5"] + small) == 0
        assert cli.main(["gen", "--out", str(tmp_path / "b")] + small) == 0
        assert read_manifest(tmp_path / "a").records[1].seed == 5 ^ 1
        assert read_manifest(tmp_path / "b").records[1].seed == 1
        assert cli.main(["baseline", "--data", str(tmp_path / "b"),
                         "--ranges", str(tmp_path / "r.csv"), "--calibrate"]) == 0
        assert "calibrated ranges" in capsys.readouterr().out
        assert cli.build_parser() is cli.build_parser()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["--help"])
        assert err.value.code == 0
