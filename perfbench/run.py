#!/usr/bin/env python3
"""Benchmark of rcc, end to end and layer by layer.

    python3 perfbench/run.py --workload gen|train|detect --seed N \
        --seconds S --trace 0|1

Every workload runs whole rounds of the same `rcc` commands, called in
process through `rcc.cli.main`, until the next round would end past
`--seconds` (and at least MIN_ROUNDS rounds). The workloads differ in how
a round weights the commands; see README.md. Every output is checked
against `reference.py`, and the run ends by showing that each check
rejects a deliberately wrong output. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end
ones with --trace 0, per-layer ones with --trace 1).

End-to-end times are in seconds of the reference host: each measured time
is divided by the host's slowness, the time of a fixed calibration loop
over CAL_REF_S, taken just before and just after the call and every
TICK_S within it. The host this runs on changes speed by 15-40% over
seconds to minutes, and that drift, not the program, set most of the
run-to-run spread of the measured times.
"""

from __future__ import annotations

import os

# numpy's BLAS runs on one thread; this must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 2
SETUPS = 3
EPOCHS = 2
TAIL_LADDER = (99, 95, 90, 75)

# The calibration loop: CAL_REPS times a pure-Python integer loop of
# CAL_LOOP steps and a (64x288)@(288x256) matrix product on one BLAS
# thread, the two kinds of work rcc's time goes to; its time is the sum of
# the two medians. CAL_REF_S is that time on the host of README.md's
# record, so a time divided by the slowness reads as that host's time.
CAL_REPS = 5
CAL_LOOP = 3000
CAL_REF_S = 0.00053
TICK_S = 0.2

# (illuminant, colour, width range, height range) of the three 640x480
# scenes; the seed draws the size, the place and the noise. The shapes
# differ (wide, square, tall) but their perimeters, and with them the
# foreground pixels segmentation labels, are alike, so the three scenes
# take alike times and the median and tail draw on all of their samples.
# They are rendered without per-pixel jitter, which halves the set-up's
# share of a run; the illuminant's sensor noise still scatters small
# components.
LARGE_CANVAS = (640, 480)
LARGE_SLOTS = (
    ("identity", "orange", (224, 256), (64, 80)),
    ("warm", "blue", (144, 168), (144, 168)),
    ("dim", "green", (64, 80), (224, 256)),
)


@dataclass(frozen=True)
class Mix:
    """Commands per round: `rcc gen` calls, train rounds (train, eval,
    baseline --calibrate, compare), and detect calls per scene size."""

    gens: int
    trains: int
    compares: int
    small: int
    large: int

    def schedule(self) -> list[tuple]:
        """Each kind spread evenly over the round. The first gen makes the
        dataset and the first train the model that the detect calls use."""
        kinds = ((("gen",), self.gens), (("train",), self.trains), (("compare",), self.compares),
                 (("detect", "small"), self.small), (("detect", "large"), self.large))
        steps = [(k / n, order, step) for order, (step, n) in enumerate(kinds) for k in range(n)]
        return [step for _, _, step in sorted(steps)]


WORKLOADS = {
    "gen": Mix(gens=2, trains=2, compares=1, small=24, large=20),
    "train": Mix(gens=1, trains=5, compares=2, small=24, large=20),
    "detect": Mix(gens=1, trains=2, compares=1, small=96, large=40),
}


class Clock:
    """The host's slowness: the calibration loop's time over CAL_REF_S.
    Within a timed call a SIGALRM timer samples it every TICK_S; the time
    those samples take is taken out of the call's time."""

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).standard_normal((64, 288))
        self.b = np.random.default_rng(1).standard_normal((288, 256))
        self.ticks: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(self.slowness())
        self.paused += time.perf_counter() - start

    def slowness(self) -> float:
        python, blas = [], []
        for _ in range(CAL_REPS):
            start = time.perf_counter()
            total = 0
            for i in range(CAL_LOOP):
                total += i * i % 7
            middle = time.perf_counter()
            self.a @ self.b
            end = time.perf_counter()
            python.append(middle - start)
            blas.append(end - middle)
        return (statistics.median(python) + statistics.median(blas)) / CAL_REF_S

    def time(self, fn, *args):
        """fn(*args), its measured seconds and its seconds on the
        reference host."""
        self.ticks = [self.slowness()]
        paused = self.paused
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start - (self.paused - paused)
        slowness = statistics.mean(self.ticks + [self.slowness()])
        return result, seconds, seconds / slowness


def tail_percentile(n_min: int) -> int:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    return next(p for p in TAIL_LADDER if n_min * (100 - p) >= 1000)


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def host_record() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def load_program():
    """Import rcc from the checkout's own src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "rcc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rcc sources under {src}")
    sys.path.insert(0, str(src))
    import rcc

    if Path(rcc.__file__).resolve().parent != (src / "rcc").resolve():
        sys.exit(f"perfbench: imported rcc from {rcc.__file__}, not from {src}")


@dataclass
class Run:
    """State of one run: its inputs, samples, kept outputs and errors."""

    seed: int
    work: Path
    clock: Clock
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # (work done, measured seconds, reference seconds) per timed call
    samples: dict = field(default_factory=lambda: {k: [] for k in (
        "gen", "train", "sweep", "small", "large")})
    slowness: list = field(default_factory=list)
    gens: int = 0
    rounds: int = 0
    small_i: int = 0
    large_i: int = 0
    data: Path | None = None
    model: Path | None = None
    checkpoint: bytes | None = None
    large: list = field(default_factory=list)
    small: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)
    hsv: dict | None = None
    params: object = None
    names: list | None = None
    kept: dict = field(default_factory=dict)
    labels_right: dict = field(default_factory=lambda: {"small": 0, "large": 0})

    # ------------------------------------------------------------ commands

    def call(self, op: str, argv: list[str]) -> tuple[int, str, tuple[float, float]]:
        """One timed `rcc` command, in process. Returns (code, stdout,
        (measured s, reference s))."""
        from rcc import cli

        main = cli.main
        if self.tracer is not None:
            self.tracer.op = op
            main = self.tracer.wrap(cli.main, "cli")
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1

        def command():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return main(argv)
            except Exception as exc:  # a traceback is a failed operation
                return f"raised {exc!r}"

        code, seconds, ref_seconds = self.clock.time(command)
        self.slowness.append(seconds / ref_seconds)
        if code != 0:
            self.failed += 1
            print(f"perfbench: rcc {' '.join(argv)}: exit {code}: {err.getvalue().strip()}",
                  file=sys.stderr)
        return code, out.getvalue(), (seconds, ref_seconds)

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.errors.append(f"{what}: {exc}")

    def gen(self) -> None:
        index = self.gens
        self.gens += 1
        seed = derive(self.seed, "gen", index)
        out = self.work / f"gen-{index}"
        code, _, timing = self.call("gen", ["gen", "--out", str(out), "--seed", str(seed)])
        if code != 0:
            return
        self.samples["gen"].append((len(list(out.glob("*.ppm"))), *timing))
        picks = random.Random(f"{self.seed}/{index}")
        self.check("gen", checks.check_dataset, out, seed,
                   picks.sample(range(checks.N_PATCHES), 2), picks.sample(range(checks.N_SCENES), 1))
        if self.data is None:
            self.data = out
            self.kept["gen_seed"] = seed
        else:
            shutil.rmtree(out)

    def train(self) -> None:
        ckpt, metrics = self.work / "model.ckpt", self.work / "metrics.csv"
        code, _, timing = self.call("train", [
            "train", "--data", str(self.data), "--out", str(ckpt), "--metrics", str(metrics),
            "--epochs", str(EPOCHS)])
        if code != 0:
            return
        self.samples["train"].append((EPOCHS * checks.N_TRAIN, *timing))
        data = ckpt.read_bytes()
        if self.checkpoint is None:
            self.checkpoint = data
            self.model = self.work / "detect.ckpt"
            self.model.write_bytes(data)
            self.check_model()
        elif data != self.checkpoint:
            self.errors.append("train: checkpoint bytes differ from the first round's")
        try:
            rows = checks.check_metrics_csv(metrics, EPOCHS)
            self.kept.setdefault("val_acc", [float(r["val_acc"]) for r in rows])
        except checks.CheckError as exc:
            self.errors.append(f"train metrics: {exc}")

        report = self.work / "report.json"
        code, _, _ = self.call("eval", ["eval", "--data", str(self.data), "--model", str(ckpt),
                                        "--report", str(report)])
        accuracy = None
        if code == 0:
            try:
                accuracy = checks.check_eval_report(report)
            except checks.CheckError as exc:
                self.errors.append(f"eval: {exc}")
        ranges = self.work / "ranges.csv"
        code, text, _ = self.call("baseline", ["baseline", "--data", str(self.data),
                                               "--ranges", str(ranges), "--calibrate"])
        if code == 0:
            if self.hsv is None:
                self.hsv = hsv_recount(self.data, ranges)
            self.check("baseline", checks.check_baseline_stdout, text, self.hsv[1.0])
        self.kept["accuracy"] = accuracy
        self.compare(ckpt)

    def compare(self, model: Path) -> None:
        sweep, ranges = self.work / "sweep.csv", self.work / "ranges.csv"
        code, _, timing = self.call("compare", [
            "compare", "--data", str(self.data), "--model", str(model), "--ranges", str(ranges),
            "--out", str(sweep)])
        if code != 0:
            return
        self.samples["sweep"].append((len(checks.GAINS) * (checks.N_PATCHES - checks.N_TRAIN), *timing))
        rows = checks.read_csv(sweep)
        accuracy = self.kept["accuracy"]
        self.kept["sweep"] = rows
        if accuracy is not None and self.hsv is not None:
            self.check("compare", checks.check_sweep, rows, accuracy, self.hsv)

    def detect(self, size: str) -> None:
        scenes = self.small if size == "small" else self.large
        if size == "small":
            index, self.small_i = self.small_i % len(scenes), self.small_i + 1
        else:
            index, self.large_i = self.large_i % len(scenes), self.large_i + 1
        path, rgb, truth, colour = scenes[index]
        code, text, timing = self.call(f"detect.{size}", [
            "detect", "--image", str(path), "--model", str(self.model), "--json"])
        if code != 0:
            return
        self.samples[size].append((1, *timing))
        key = (size, index)
        if key in self.seen:
            if text != self.seen[key]:
                self.errors.append(f"detect {path.name}: output differs from the first call's")
            return
        self.seen[key] = text
        try:
            record = checks.parse_record(text)
            checks.check_detection(record, rgb, truth, self.probs, self.names)
            self.labels_right[size] += record["label"] == colour
            self.kept.setdefault("detect", (record, rgb, truth))
        except checks.CheckError as exc:
            self.errors.append(f"detect {path.name}: {exc}")

    # -------------------------------------------------------------- checks

    def probs(self, xs):
        from rcc import net

        return net.predict_probabilities(xs, self.params)

    def check_model(self) -> None:
        """Directional finite difference and naive forward pass, once."""
        import numpy as np
        from rcc import net

        self.params = params = net.load_checkpoint(self.checkpoint)
        self.names = list(params.class_names)
        rows = checks.read_csv(self.data / "manifest.csv")
        test = [r for r in rows if r["split"] == "test"]
        xs = np.stack([ref.parse_ppm((self.data / r["filename"]).read_bytes())
                       .astype(np.float64).transpose(2, 0, 1) / 255.0 for r in test[:4]])
        labels = np.array([int(r["class_index"]) for r in test[:4]])
        analytic, numeric = directional_derivative(params, xs, labels, self.seed)
        self.kept["grad"] = (analytic, numeric)
        self.check("gradient", checks.check_directional, analytic, numeric)

        layers = [(layer.filters, layer.bias) if hasattr(layer, "filters")
                  else (layer.weights, layer.bias) for _, layer in params.layers]
        naive = np.stack([ref.log_softmax(ref.naive_logits(x, layers)) for x in xs[:3]])
        program = np.log(net.predict_probabilities(xs[:3], params))
        self.kept["logits"] = (program, naive)
        self.check("logits", checks.check_logits, program, naive)


def derive(seed: int, what: str, index: int) -> int:
    """A 32-bit input seed for one generated input of this run."""
    return random.Random(f"{seed}/{what}/{index}").getrandbits(32)


def directional_derivative(params, xs, labels, seed: int) -> tuple[float, list[float]]:
    """<grad, d> from loss_and_gradients, and central differences of its
    loss along d = grad/|grad| + r/|r| (r Gaussian from the seed) at steps
    1e-6, 1e-8 and 1e-10. The loss is smooth only between ReLU and max-pool
    kinks, and a step can straddle one; the smaller steps are the fallback."""
    import numpy as np
    from rcc import net

    _, grads = net.loss_and_gradients(xs, labels, params)
    tensors = dict(params.tensors())
    rng = np.random.default_rng(seed)
    noise = {k: rng.standard_normal(v.shape) for k, v in tensors.items()}
    g_norm = math.sqrt(sum(float((grads[k] ** 2).sum()) for k in tensors))
    r_norm = math.sqrt(sum(float((noise[k] ** 2).sum()) for k in tensors))
    direction = {k: grads[k] / g_norm + noise[k] / r_norm for k in tensors}
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in tensors)

    def loss_at(step: float) -> float:
        moved = params.replace_tensors({k: tensors[k] + step * direction[k] for k in tensors})
        return net.loss_and_gradients(xs, labels, moved)[0]

    return analytic, [(loss_at(eps) - loss_at(-eps)) / (2 * eps) for eps in (1e-6, 1e-8, 1e-10)]


def hsv_recount(data: Path, ranges_csv: Path) -> dict:
    """HSV hits on the test split at every sweep gain, counted with stdlib
    colorsys and the ranges the program wrote, after checking those ranges
    against a calibration recomputed from the train split."""
    rows = checks.read_csv(data / "manifest.csv")
    pixels = {r["filename"]: ref.parse_ppm((data / r["filename"]).read_bytes()) for r in rows}
    train = [(pixels[r["filename"]], int(r["class_index"])) for r in rows if r["split"] == "train"]
    test = [(pixels[r["filename"]], int(r["class_index"])) for r in rows if r["split"] == "test"]
    ranges = checks.check_ranges(ranges_csv, ref.hsv_ranges(train))
    return {gain: sum(ref.hsv_class(ref.uniform_gain(rgb, gain), ranges) == label
                      for rgb, label in test)
            for gain in checks.GAINS}


def set_up(run: Run) -> tuple[float, float]:
    """Render the 640x480 scenes and warm up; returns the measured and the
    reference seconds taken."""
    return run.clock.time(render_and_warm, run)[1:]


def render_and_warm(run: Run) -> None:
    from rcc import cli, net, synth
    from rcc.image import write_ppm
    from rcc.segment import BoundRect

    draw = random.Random(f"{run.seed}/large")
    width, height = LARGE_CANVAS
    run.large = []
    colours = {c.name: c for c in synth.COLOR_CLASSES}
    for i, (illuminant, name, (w_lo, w_hi), (h_lo, h_hi)) in enumerate(LARGE_SLOTS):
        w, h = draw.randint(w_lo, w_hi), draw.randint(h_lo, h_hi)
        rect = BoundRect(draw.randint(8, width - w - 8), draw.randint(8, height - h - 8), w, h)
        img, _ = synth.render_scene(colours[name], rect, width, height,
                                    synth.ILLUMINANT_PRESETS[illuminant], draw.getrandbits(63),
                                    jitter=0)
        path = run.work / f"large_{i}.ppm"
        path.write_bytes(write_ppm(img))
        run.large.append((path, ref.parse_ppm(path.read_bytes()),
                          (rect.x, rect.y, rect.w, rect.h), name))
    warm = run.work / "warm.ckpt"
    warm.write_bytes(net.save_checkpoint(net.init_params(0)))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["detect", "--image", str(run.large[0][0]), "--model", str(warm), "--json"])


def run_round(run: Run, mix: Mix) -> None:
    for kind, *size in mix.schedule():
        if kind == "gen":
            run.gen()
            if run.data is not None and not run.small:
                load_small(run)
        elif kind == "train":
            run.train()
        elif kind == "compare":
            if "accuracy" in run.kept:  # set by the first train round
                run.compare(run.model)
        elif run.model is not None:
            run.detect(size[0])


def load_small(run: Run) -> None:
    for row in checks.read_csv(run.data / "scenes.csv"):
        path = run.data / row["filename"]
        run.small.append((path, ref.parse_ppm(path.read_bytes()),
                          tuple(int(row[k]) for k in "xywh"), row["class_name"]))


def self_check(run: Run) -> dict[str, bool | None]:
    """Feed each check a deliberately wrong output made from this run's
    right ones. Maps each wrong output to True when its check rejected it,
    False when the check let it pass, None when the run had no output to
    make it from."""
    def rejects(fn, *args) -> bool:
        try:
            fn(*args)
        except checks.CheckError:
            return True
        return False

    kept = run.kept
    verdicts: dict[str, bool | None] = dict.fromkeys((
        "a generated PPM with one byte flipped", "a detect box moved by 3 px",
        "a gradient scaled by 1.01", "a changed logit", "an HSV accuracy off by one patch"))
    if run.data is not None and "gen_seed" in kept:
        data = bytearray((run.data / "patch_0007.ppm").read_bytes())
        data[-100] ^= 0x01
        verdicts["a generated PPM with one byte flipped"] = rejects(
            checks.check_patch, bytes(data), kept["gen_seed"], 7)
    if "detect" in kept:
        record, rgb, truth = kept["detect"]
        moved = dict(record, box=dict(record["box"], x=record["box"]["x"] + 3))
        verdicts["a detect box moved by 3 px"] = rejects(
            checks.check_detection, moved, rgb, truth, run.probs, run.names)
    if "grad" in kept:
        analytic, numeric = kept["grad"]
        verdicts["a gradient scaled by 1.01"] = rejects(
            checks.check_directional, 1.01 * analytic, numeric)
    if "logits" in kept:
        program, naive = kept["logits"]
        changed = program.copy()
        changed[0, 0] += 1e-6
        verdicts["a changed logit"] = rejects(checks.check_logits, changed, naive)
    if "sweep" in kept and kept.get("accuracy") is not None and run.hsv is not None:
        off = [dict(r) for r in kept["sweep"]]
        off[0]["hsv_acc"] = repr(float(off[0]["hsv_acc"]) + 1 / (checks.N_PATCHES - checks.N_TRAIN))
        verdicts["an HSV accuracy off by one patch"] = rejects(
            checks.check_sweep, off, kept["accuracy"], run.hsv)
    return verdicts


def end_to_end(run: Run, mix: Mix, setups: list[tuple[float, float]], col: int) -> dict:
    """The end-to-end metrics from the measured times (col 1) or the
    reference times (col 2). Rates are work over the summed time of all
    calls of the run; latencies are per call."""
    s = run.samples
    p_small = tail_percentile(MIN_ROUNDS * mix.small)
    p_large = tail_percentile(MIN_ROUNDS * mix.large)

    def rate(key):
        return sum(x[0] for x in s[key]) / sum(x[col] for x in s[key])

    def ms(key):
        return [1000.0 * x[col] for x in s[key]]

    values = {
        "setup_s": (statistics.median(t[col - 1] for t in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "gen_files_per_s": (rate("gen"), "1/s"),
        "train_samples_per_s": (rate("train"), "1/s"),
        "sweep_samples_per_s": (rate("sweep"), "1/s"),
        "detect_small_ms_p50": (statistics.median(ms("small")), "ms"),
        "detect_small_ms_tail": (percentile(ms("small"), p_small), "ms"),
        "detect_large_ms_p50": (statistics.median(ms("large")), "ms"),
        "detect_large_ms_tail": (percentile(ms("large"), p_large), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(run: Run) -> dict:
    self_s, calls, counts = run.tracer.summary()
    rounds = run.rounds
    n_det = {size: len(run.samples[size]) for size in ("small", "large")}

    def total(name, op=None):
        return sum(v for (n, o), v in self_s.items() if n == name and (op is None or o == op))

    def ncalls(name, op=None):
        return sum(v for (n, o), v in calls.items() if n == name and (op is None or o == op))

    def count(name, op=None):
        return sum(v for (n, o), v in counts.items() if n == name and (op is None or o == op))

    out = {
        "rng.draws": (count("rng.draws") / rounds, "count"),
        "rng.fill_uint64_s": (total("rng.fill_uint64") / rounds, "s"),
        "synth.render_patch_s": (total("synth.render_patch") / rounds, "s"),
        "synth.render_scene_s": (total("synth.render_scene") / rounds, "s"),
        "synth.apply_illumination_s": (total("synth.apply_illumination") / rounds, "s"),
        "image.write_ppm_s": (total("image.write_ppm") / rounds, "s"),
        "image.bytes_written": (count("image.bytes_written") / rounds, "count"),
        "image.read_ppm_s": (total("image.read_ppm") / rounds, "s"),
        "net.loss_and_gradients_ms": (1000 * total("net.loss_and_gradients")
                                      / max(1, ncalls("net.loss_and_gradients")), "ms"),
        "net.sgd_step_ms": (1000 * total("net.sgd_step") / max(1, ncalls("net.sgd_step")), "ms"),
        "net.steps": (count("net.steps") / rounds, "count"),
        "net.save_checkpoint_ms": (1000 * total("net.save_checkpoint")
                                   / max(1, ncalls("net.save_checkpoint")), "ms"),
        "harness.train_self_s": (total("harness.train") / rounds, "s"),
        "harness.compare_self_s": (total("harness.compare") / rounds, "s"),
        "baseline.calibrate_ranges_s": (total("baseline.calibrate_ranges") / rounds, "s"),
        "baseline.classify_hsv_s": (total("baseline.classify_hsv") / rounds, "s"),
    }
    for command in ("gen", "train", "eval", "baseline", "compare"):
        out[f"cli.self_ms.{command}"] = (1000 * total("cli", command) / max(1, ncalls("cli", command)), "ms")
    per_detect = {
        "image.rgb_to_gray_ms": "image.rgb_to_gray",
        "segment.gaussian_blur_ms": "segment.gaussian_blur",
        "segment.adaptive_threshold_ms": "segment.adaptive_threshold",
        "segment.label_components_ms": "segment.label_components",
        "segment.trace_contours_ms": "segment.trace_contours",
        "segment.largest_contour_ms": "segment.largest_contour",
        "segment.minimum_bounding_rect_ms": "segment.minimum_bounding_rect",
        "cubes.extract_color_cubes_ms": "cubes.extract_color_cubes",
        "cubes.aggregate_votes_ms": "cubes.aggregate_votes",
        "net.load_checkpoint_ms": "net.load_checkpoint",
        "net.images_to_batch_ms": "net.images_to_batch",
        "harness.detect_self_ms": "harness.detect",
        "cli.self_ms.detect": "cli",
    }
    for size in ("small", "large"):
        op, n = f"detect.{size}", max(1, n_det[size])
        for metric, span in per_detect.items():
            out[f"{metric}.{size}"] = (1000 * total(span, op) / n, "ms")
        traced = count("segment.contours_traced", op)
        out[f"segment.label_calls.{size}"] = (count("segment.label_calls", op) / n, "count")
        out[f"segment.contours_traced.{size}"] = (traced / n, "count")
        out[f"segment.foreground_px.{size}"] = (count("segment.foreground_px", op) / n, "px")
        out[f"segment.contour_use_ratio.{size}"] = (n_det[size] / traced if traced else 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def layer_shares(tracer) -> dict:
    """Each module's self time as a share of the time spent in rcc calls."""
    self_s, _, _ = tracer.summary()
    spent = sum(end - start for _, parent, name, _, start, end in tracer.spans
                if name == "cli" and parent < 0)
    shares: dict[str, float] = {}
    for (name, _), seconds in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / spent
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    mix = WORKLOADS[args.workload]
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.seed, work, Clock())
    host = host_record()
    print("host " + json.dumps(host), flush=True)
    try:
        setups = [set_up(run) for _ in range(SETUPS)]
        if args.trace:
            from tracer import Tracer

            run.tracer = Tracer()
            run.tracer.install()
        start = time.perf_counter()
        while True:
            run_round(run, mix)
            run.rounds += 1
            elapsed = time.perf_counter() - start
            if run.rounds >= MIN_ROUNDS and elapsed * (run.rounds + 1) / run.rounds > args.seconds:
                break
        if run.tracer is not None:
            run.tracer.uninstall()
        for wrong, rejected in self_check(run).items():
            if not rejected:
                run.errors.append(f"self-check: {wrong} was {'accepted' if rejected is False else 'not made'}")
        e2e = end_to_end(run, mix, setups, 2)
        slow = sorted(run.slowness + [t[0] / t[1] for t in setups])
        print("measured end-to-end " + json.dumps(
            {k: v["value"] for k, v in end_to_end(run, mix, setups, 1).items()}))
        print(f"host slowness over the run: median {statistics.median(slow):.3f}, "
              f"range {slow[0]:.3f}-{slow[-1]:.3f}")
        print(f"workload {args.workload}: rounds {run.rounds}, {elapsed:.1f} s timed, "
              f"attempted {run.attempted}, failed {run.failed}; labels right: "
              f"small {run.labels_right['small']}/{len(run.small)}, "
              f"large {run.labels_right['large']}/{len(run.large)}; detection model val_acc "
              f"by epoch {run.kept.get('val_acc')}", flush=True)
        if args.trace:
            print("traced end-to-end " + json.dumps({k: v["value"] for k, v in e2e.items()}))
            print("layer shares " + json.dumps(layer_shares(run.tracer)))
            results = BENCH_DIR / "results"
            run.tracer.dump(results / f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(run)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH_DIR / ".work").rmdir()
    for error in run.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
