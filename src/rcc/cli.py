"""The `rcc` command line tool.

Exit status contract: 0 success, 1 usage error, 2 no object found by
`detect`, 3 I/O or file-format error, 4 numeric failure (gradient check,
a training run whose loss or weights go non-finite, or a forward pass
whose logits do).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import baseline as baseline_mod
from . import harness, net, synth
from .baseline import CalibrationError
from .image import PpmError, read_ppm, write_ppm
from .net import (
    CheckpointError,
    NumericError,
    gradient_check,
    init_params,
    load_checkpoint,
)
from .segment import MODES, BoundRect, NoObjectError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_OBJECT = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, test, what: str):
    """An argparse type: `convert` the text, then require `test` of the value."""

    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = convert.__name__  # argparse's message for unparseable text
    return parse


_POSITIVE = _checked(int, lambda v: v >= 1, "a positive integer")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "a non-negative integer")
_LEARNING_RATE = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite positive number"
)
_MOMENTUM = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
# seeds are 64-bit words; a wider int would alias another seed
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")


def _load_model(path: str) -> net.NetworkParams:
    return load_checkpoint(Path(path).read_bytes())


def _load_ranges(path: str) -> list[baseline_mod.HsvRange]:
    path = Path(path)
    return baseline_mod.ranges_from_csv(path.read_text(encoding="utf-8"), path.name)


def cmd_gen(args) -> int:
    manifest = synth.generate_dataset(
        args.out, total=args.count, train=args.train, seed=args.seed,
        scenes=args.scenes,
    )
    n_train = len(manifest.split("train"))
    n_test = len(manifest.split("test"))
    print(
        f"wrote {len(manifest.records)} patches ({n_train} train / {n_test} test) "
        f"and {len(manifest.scenes)} scenes to {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = synth.read_manifest(args.data)
    params, metrics = harness.train(
        manifest, args.data, epochs=args.epochs, lr=args.lr,
        momentum=args.momentum, batch=args.batch, seed=args.seed,
    )
    Path(args.out).write_bytes(net.save_checkpoint(params))
    Path(args.metrics).write_text(harness.metrics_to_csv(metrics), encoding="utf-8")
    if metrics:
        last = metrics[-1]
        print(
            f"epoch {last.epoch}: train_acc={last.train_acc:.4f} "
            f"val_acc={last.val_acc:.4f} (model: {args.out})"
        )
    else:
        print(f"no epochs run; initial model written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = synth.read_manifest(args.data)
    params = _load_model(args.model)
    report = harness.evaluate(manifest, args.data, params)
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"test accuracy {report['accuracy']:.4f} ({args.report})")
    return EXIT_OK


def cmd_detect(args) -> int:
    img = read_ppm(Path(args.image).read_bytes())
    params = _load_model(args.model)
    try:
        record = harness.detect(img, params, args.segmenter)
    except NoObjectError:
        print(json.dumps({"error": "no_object"}))
        return EXIT_NO_OBJECT
    if args.annotate:
        rect = BoundRect(**record["box"])
        Path(args.annotate).write_bytes(write_ppm(harness.annotate_box(img, rect)))
    if args.json:
        print(json.dumps(record))
    else:
        box = record["box"]
        print(
            f"{record['label']} (confidence {record['confidence']:.3f}) at "
            f"x={box['x']} y={box['y']} w={box['w']} h={box['h']}"
        )
    return EXIT_OK


def cmd_baseline(args) -> int:
    manifest = synth.read_manifest(args.data)
    if args.calibrate:
        ranges = baseline_mod.calibrate_ranges(
            *harness.load_split(manifest, args.data, "train")
        )
    else:
        ranges = _load_ranges(args.ranges)
    patches, labels = harness.load_split(manifest, args.data, "test")
    if args.calibrate:  # after the test split loads, so a failed run writes none
        Path(args.ranges).write_text(baseline_mod.ranges_to_csv(ranges), encoding="utf-8")
    hits = baseline_mod.count_hsv_hits(patches, labels, ranges)
    action = "calibrated" if args.calibrate else "loaded"
    print(
        f"{action} ranges: test accuracy {hits / len(labels):.4f} "
        f"({hits}/{len(labels)})"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    manifest = synth.read_manifest(args.data)
    params = _load_model(args.model)
    ranges = _load_ranges(args.ranges)
    rows = harness.compare_robustness(manifest, args.data, params, ranges)
    Path(args.out).write_text(harness.robustness_to_csv(rows), encoding="utf-8")
    mean_cnn = sum(r.cnn_acc for r in rows) / len(rows)
    mean_hsv = sum(r.hsv_acc for r in rows) / len(rows)
    print(f"mean accuracy over gains: cnn={mean_cnn:.4f} hsv={mean_hsv:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    params = init_params(args.seed)
    xs, labels = net.gradcheck_batch(args.seed, params)
    results = gradient_check(params, xs, labels)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:16s} rel_err={r.relative_error:.3e} {status}")
    if all(r.passed for r in results):
        print(f"gradient check passed for all {len(results)} tensors")
        return EXIT_OK
    print("gradient check FAILED", file=sys.stderr)
    return EXIT_NUMERIC


@functools.cache  # parsing leaves no state on the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rcc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate the synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=_POSITIVE, default=250)
    p.add_argument("--train", type=_NON_NEGATIVE, default=200)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--scenes", type=_NON_NEGATIVE, default=24)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--metrics", required=True, help="metrics CSV to write")
    p.add_argument("--epochs", type=_NON_NEGATIVE, default=300)
    p.add_argument("--lr", type=_LEARNING_RATE, default=0.01)
    p.add_argument("--momentum", type=_MOMENTUM, default=0.9)
    p.add_argument("--batch", type=_POSITIVE, default=16)
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True, help="JSON report to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="locate and classify the object in an image")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--segmenter", choices=MODES, default="adaptive")
    p.add_argument("--annotate", help="write a copy with the box drawn in red")
    p.add_argument("--json", action="store_true", help="print the JSON record")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("baseline", help="calibrate or score the HSV baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--ranges", required=True, help="ranges CSV (read or written)")
    p.add_argument("--calibrate", action="store_true",
                   help="fit ranges from the train split and write them")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="robustness sweep: CNN vs HSV baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ranges", required=True)
    p.add_argument("--out", required=True, help="comparison CSV to write")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.train >= args.count:
        parser.error(f"--train {args.train} must be below --count {args.count}")
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"rcc: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, PpmError, CheckpointError, CalibrationError, ValueError) as exc:
        print(f"rcc: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
