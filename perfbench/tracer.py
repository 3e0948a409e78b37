"""Spans around the calls into each `rcc` module, recorded from outside.

The tracer replaces module attributes (the bindings the program calls
through, such as `rcc.harness.loss_and_gradients`) with wrappers that
record one span per call: name, the operation it ran in, start, end and
the enclosing span. Spans stay in memory; `summary` folds them into self
times (a span's duration minus that of the spans nested in it) and
`dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name): the bindings the program calls through.
BINDINGS = (
    ("rcc.rng", "Xoshiro256StarStar.fill_uint64", "rng.fill_uint64"),
    ("rcc.synth", "render_patch", "synth.render_patch"),
    ("rcc.synth", "render_scene", "synth.render_scene"),
    ("rcc.synth", "apply_illumination", "synth.apply_illumination"),
    ("rcc.harness", "apply_illumination", "synth.apply_illumination"),
    ("rcc.synth", "write_ppm", "image.write_ppm"),
    ("rcc.harness", "read_ppm", "image.read_ppm"),
    ("rcc.cli", "read_ppm", "image.read_ppm"),
    ("rcc.segment", "rgb_to_gray", "image.rgb_to_gray"),
    ("rcc.segment", "gaussian_blur", "segment.gaussian_blur"),
    ("rcc.segment", "adaptive_threshold", "segment.adaptive_threshold"),
    ("rcc.segment", "label_components", "segment.label_components"),
    ("rcc.segment", "trace_contours", "segment.trace_contours"),
    ("rcc.segment", "largest_contour", "segment.largest_contour"),
    ("rcc.segment", "minimum_bounding_rect", "segment.minimum_bounding_rect"),
    ("rcc.harness", "extract_color_cubes", "cubes.extract_color_cubes"),
    ("rcc.harness", "aggregate_votes", "cubes.aggregate_votes"),
    ("rcc.harness", "loss_and_gradients", "net.loss_and_gradients"),
    ("rcc.harness", "sgd_step", "net.sgd_step"),
    ("rcc.harness", "images_to_batch", "net.images_to_batch"),
    ("rcc.net", "save_checkpoint", "net.save_checkpoint"),
    ("rcc.cli", "load_checkpoint", "net.load_checkpoint"),
    ("rcc.harness", "train", "harness.train"),
    ("rcc.harness", "evaluate", "harness.evaluate"),
    ("rcc.harness", "detect", "harness.detect"),
    ("rcc.harness", "compare_robustness", "harness.compare"),
    ("rcc.harness", "load_patches", "harness.load_patches"),
    ("rcc.baseline", "calibrate_ranges", "baseline.calibrate_ranges"),
    ("rcc.baseline", "classify_hsv", "baseline.classify_hsv"),
    ("rcc.harness", "classify_hsv", "baseline.classify_hsv"),
)


def _count_draws(tracer, args, result):
    tracer.count("rng.draws", args[1] if len(args) > 1 else 0)


def _count_bytes(tracer, args, result):
    tracer.count("image.bytes_written", len(result))


def _count_step(tracer, args, result):
    tracer.count("net.steps", 1)


def _count_label(tracer, args, result):
    tracer.count("segment.label_calls", 1)


def _count_contours(tracer, args, result):
    tracer.count("segment.contours_traced", len(result))


def _count_foreground(tracer, args, result):
    tracer.count("segment.foreground_px", int(result.bits.sum()))


COUNTERS = {
    "rng.fill_uint64": _count_draws,
    "image.write_ppm": _count_bytes,
    "net.sgd_step": _count_step,
    "segment.label_components": _count_label,
    "segment.trace_contours": _count_contours,
    "segment.adaptive_threshold": _count_foreground,
}


class Tracer:
    """Records spans while installed; `op` names the running operation."""

    def __init__(self):
        self.op = "-"
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[(name, self.op)] += amount

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((index, parent, name, self.op, 0.0, 0.0))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (index, parent, name, self.op, start, end)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                continue  # the program no longer has this binding
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def summary(self) -> tuple[dict, dict, dict]:
        """(self seconds, call count, counts), each keyed by (name, op)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        for index, _, name, op, start, end in self.spans:
            self_s[(name, op)] += end - start - child[index]
            calls[(name, op)] += 1
        return self_s, calls, dict(self.counts)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "op", "start", "end"],
                       "spans": self.spans,
                       "counts": [[n, op, v] for (n, op), v in self.counts.items()]},
                      fh)
