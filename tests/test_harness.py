"""Training/eval harness and command line behavior on tiny datasets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcc import baseline as baseline_mod
from rcc import cli, harness
from rcc.baseline import HsvRange
from rcc.image import Image, read_ppm, write_ppm
from rcc.net import NumericError, init_params, load_checkpoint, save_checkpoint
from rcc.segment import BoundRect
from rcc.synth import generate_dataset, read_manifest


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """12 patches (6 train / 6 test, one per class) plus 2 scenes."""
    path = tmp_path_factory.mktemp("tiny")
    manifest = generate_dataset(path, total=12, train=6, seed=0, scenes=2)
    return path, manifest


def _rewrite(path, old, new):
    """Replace every `old` with `new` in a text file."""
    path.write_text(path.read_text().replace(old, new))


WIDE_OPEN_RANGES = [HsvRange(i, 0.0, 360.0, 0.0, 0.0) for i in range(6)]


def _overflowing_model(path):
    """A checkpoint of finite weights whose forward pass overflows to
    non-finite logits."""
    params = init_params(0)
    tensors = dict(params.tensors())
    tensors["fc2.weights"] = tensors["fc2.weights"] * 1e100
    tensors["fc3.weights"] = tensors["fc3.weights"] * 1e300
    path.write_bytes(save_checkpoint(params.replace_tensors(tensors)))


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
            harness.train(manifest, path, epochs=5, lr=1e6, batch=2, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reevaluation_names_the_epoch(self, tiny_dataset):
        # at this rate the weights stay finite through epoch 1 but the
        # end-of-epoch forward pass overflows
        path, manifest = tiny_dataset
        with pytest.raises(NumericError, match="non-finite logits in epoch 1"):
            harness.train(manifest, path, epochs=5, lr=1e8, batch=2, seed=0)

    def test_metrics_csv_shape(self):
        metrics = [harness.EpochMetrics(1, 1.5, 0.3, 1.6, 0.25)]
        text = harness.metrics_to_csv(metrics)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[1].split(",")[1]) == 1.5


class TestEvaluate:
    def test_confusion_matches_hand_count(self, tiny_dataset):
        path, manifest = tiny_dataset
        params = init_params(0)
        report = harness.evaluate(manifest.split("test"), path, params)
        assert report.confusion.sum() == 6
        assert report.confusion.shape == (6, 6)
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / 6
        )

    def test_json_dict_layout(self):
        report = harness.EvalReport(
            accuracy=0.5,
            confusion=np.eye(6, dtype=np.int64),
            per_class_accuracy=tuple([1.0] * 6),
        )
        payload = harness.report_to_json_dict(report, ("a", "b", "c", "d", "e", "f"))
        assert payload["accuracy"] == 0.5
        assert payload["per_class_accuracy"]["c"] == 1.0
        assert payload["confusion"][2][2] == 1


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
        rows = harness.compare_robustness(
            manifest, path, params, WIDE_OPEN_RANGES, gains=(1.0,)
        )
        report = harness.evaluate(manifest.split("test"), path, params)
        assert rows[0].cnn_acc == pytest.approx(report.accuracy)

    def test_default_sweep_has_seven_rows(self, tiny_dataset):
        path, manifest = tiny_dataset
        rows = harness.compare_robustness(
            manifest, path, init_params(0), WIDE_OPEN_RANGES
        )
        assert [r.gain for r in rows] == [0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]

    def test_csv_header(self):
        text = harness.robustness_to_csv(
            [harness.RobustnessRow(1.0, 0.5, 0.25)]
        )
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
    ], ids=["short", "missing", "duplicate", "index"])
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

    def test_calibrate_without_train_split_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_dataset(data, total=12, train=6, seed=0, scenes=0)
        _rewrite(data / "manifest.csv", ",train,", ",test,")
        code = cli.main(
            ["baseline", "--data", str(data), "--ranges", str(tmp_path / "r.csv"),
             "--calibrate"]
        )
        assert code == 3
        assert "no samples" in capsys.readouterr().err

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
             "--lr", "1e6", "--batch", "2"]
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
        ranges.write_text(baseline_mod.ranges_to_csv(WIDE_OPEN_RANGES))
        args = {
            "detect": ["--image", str(data / "scene_00.ppm")],
            "eval": ["--data", str(data), "--report", str(tmp_path / "report.json")],
            "compare": ["--data", str(data), "--ranges", str(ranges),
                        "--out", str(tmp_path / "sweep.csv")],
        }[command]
        assert cli.main([command, "--model", str(model)] + args) == 4
        assert "non-finite logits" in capsys.readouterr().err

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

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["--help"])
        assert err.value.code == 0
