"""Convolutional classifier built directly on numpy float64 arrays.

Fixed architecture: three conv(3x3, pad 1) + ReLU + maxpool(2) stages
taking a 32x32 RGB cube from 3 to 8 to 16 to 32 channels, then three
fully connected layers 512 -> 64 -> 32 -> 6 with ReLU between them and
softmax cross-entropy on top.  Everything runs in 64-bit floats so the
finite-difference gradient check can use tight tolerances.

Batched internals use layout (batch, channels, height, width); the
public per-sample operations wrap them.  Checkpoints are a small binary
format (magic "RCC1") holding layer kinds, dimensions, and raw
little-endian float64 tensors; round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .image import Image
from .rng import Xoshiro256StarStar, derive_stream_seed

CLASS_NAMES = ("red", "orange", "yellow", "green", "blue", "purple")
INPUT_SIZE = 32
POOL_WINDOW = 2

CHECKPOINT_MAGIC = b"RCC1"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Tensor shapes do not chain."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class CheckpointError(Exception):
    """Checkpoint bytes do not describe a valid network."""


class CheckpointMagicError(CheckpointError):
    """Leading magic bytes are wrong."""


class CheckpointVersionError(CheckpointError):
    """Unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """Byte stream ends before the described tensors do."""


def _frozen_f64(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConvLayerParams:
    """Cross-correlation filters (out_ch, in_ch, M, N) with bias, stride 1."""

    filters: np.ndarray
    bias: np.ndarray
    padding: int = 1

    weight_name = "filters"

    def __post_init__(self):
        filters = _frozen_f64(self.filters, "filters")
        bias = _frozen_f64(self.bias, "bias")
        if filters.ndim != 4:
            raise ShapeError(f"filters must be 4-d, got shape {filters.shape}")
        if min(filters.shape) < 1:
            raise ShapeError(f"filter dims must be positive, got {filters.shape}")
        if bias.shape != (filters.shape[0],):
            raise ShapeError(
                f"bias shape {bias.shape} does not match {filters.shape[0]} filters"
            )
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "bias", bias)

    def out_shape(self, name: str, shape: tuple[int, ...]) -> tuple[int, ...]:
        """(C, H, W) out of conv, ReLU and max pool; errors name layer `name`."""
        out_ch, in_ch, m, n = self.filters.shape
        if shape[0] != in_ch:
            raise ShapeError(f"{name} expects {in_ch} input channels, gets {shape[0]}")
        h = shape[1] + 2 * self.padding - m + 1
        w = shape[2] + 2 * self.padding - n + 1
        if h < 1 or w < 1 or h % POOL_WINDOW or w % POOL_WINDOW:
            raise ShapeError(
                f"{name} makes {h}x{w} from {shape[1]}x{shape[2]}, which pool "
                f"window {POOL_WINDOW} does not tile"
            )
        return out_ch, h // POOL_WINDOW, w // POOL_WINDOW


@dataclass(frozen=True)
class FcLayerParams:
    """Dense weights (out, in) with bias (out)."""

    weights: np.ndarray
    bias: np.ndarray

    weight_name = "weights"

    def __post_init__(self):
        weights = _frozen_f64(self.weights, "weights")
        bias = _frozen_f64(self.bias, "bias")
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(
                f"bias shape {bias.shape} does not match {weights.shape[0]} outputs"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def out_shape(self, name: str, shape: tuple[int, ...]) -> tuple[int, ...]:
        """(out,) from the flattened input; errors name layer `name`."""
        out_f, in_f = self.weights.shape
        if math.prod(shape) != in_f:
            raise ShapeError(f"{name} expects {in_f} inputs, gets {math.prod(shape)}")
        return (out_f,)


@dataclass(frozen=True)
class PoolSpec:
    """Non-overlapping max pooling window; stride equals the window."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pool window must be >= 1, got {self.k}")


# The architecture in forward order: layer name, kind and weight shape.
# Every conv stage is conv + ReLU + max pool; every fc layer but the last
# is followed by a ReLU.  init_params draws the weights in this order.
LAYER_TABLE = (
    ("conv1", ConvLayerParams, (8, 3, 3, 3)),
    ("conv2", ConvLayerParams, (16, 8, 3, 3)),
    ("conv3", ConvLayerParams, (32, 16, 3, 3)),
    ("fc1", FcLayerParams, (64, 512)),
    ("fc2", FcLayerParams, (32, 64)),
    ("fc3", FcLayerParams, (6, 32)),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYER_TABLE)
Layer = ConvLayerParams | FcLayerParams


@dataclass(frozen=True)
class NetworkParams:
    """The six parameterized layers in forward order plus class labels."""

    conv1: ConvLayerParams
    conv2: ConvLayerParams
    conv3: ConvLayerParams
    fc1: FcLayerParams
    fc2: FcLayerParams
    fc3: FcLayerParams
    class_names: tuple[str, ...] = CLASS_NAMES
    layers: tuple[tuple[str, Layer], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = tuple((name, getattr(self, name)) for name in LAYER_NAMES)
        object.__setattr__(self, "layers", layers)
        shape: tuple[int, ...] = (3, INPUT_SIZE, INPUT_SIZE)
        for (name, layer), (_, kind, _) in zip(layers, LAYER_TABLE):
            if not isinstance(layer, kind):
                raise ShapeError(f"{name} must be a {kind.__name__}")
            shape = layer.out_shape(name, shape)
        if shape != (len(self.class_names),):
            raise ShapeError(f"{name} has {shape[0]} outputs for {self.class_names}")

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All parameter tensors as (dotted name, array), forward order."""
        return [
            (f"{name}.{attr}", getattr(layer, attr))
            for name, layer in self.layers
            for attr in (layer.weight_name, "bias")
        ]

    def replace_tensors(self, tensors: Mapping[str, np.ndarray]) -> "NetworkParams":
        """New params with every tensor swapped for its entry in `tensors`."""
        layers = {}
        for name, layer in self.layers:
            weight = tensors[f"{name}.{layer.weight_name}"]
            bias = tensors[f"{name}.bias"]
            if isinstance(layer, ConvLayerParams):
                layers[name] = ConvLayerParams(weight, bias, layer.padding)
            else:
                layers[name] = FcLayerParams(weight, bias)
        return NetworkParams(**layers, class_names=self.class_names)


# ---------------------------------------------------------------------------
# batched primitives (B, C, H, W)

# Output bytes per batch chunk of a conv forward pass: a chunk's sum and the
# tap product added to it stay in cache.  256 KiB ran fastest at batch 16
# and 200.
_CONV_CHUNK_BYTES = 256 * 1024


def _conv_batch(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, pad: int):
    """Sum over taps (km, kn), in row-major order, of one K=in_ch GEMM each.

    The input is padded once, with a spare zero row below, so each tap's
    window is one flat run of h_out rows of the padded width `wp` that BLAS
    reads in place.  The wp - w_out columns of each output row that wrap
    into the next input row are computed and dropped by the returned view.
    """
    b, c, h, w = x.shape
    out_ch, in_ch, m, n = filters.shape
    if in_ch != c:
        raise ShapeError(f"conv expects {in_ch} channels, input has {c}")
    h_out = h + 2 * pad - m + 1
    w_out = w + 2 * pad - n + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {m}x{n} does not fit input {h}x{w} with pad {pad}")
    wp = w + 2 * pad
    xp = np.zeros((b, c, h + 2 * pad + 1, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    flat = xp.reshape(b, c, -1)
    span = h_out * wp
    y = np.empty((b, out_ch, span))
    chunk = max(1, _CONV_CHUNK_BYTES // (8 * out_ch * span))
    product = np.empty((min(chunk, b), out_ch, span))
    for start in range(0, b, chunk):
        acc = y[start : start + chunk]
        part = product[: len(acc)]
        # the first tap is stored, not added to zeros: the two differ only in
        # the sign of an all-zero sum, which adding a bias other than -0.0 clears
        for tap, (km, kn) in enumerate(np.ndindex(m, n)):
            offset = km * wp + kn
            window = flat[start : start + chunk, :, offset : offset + span]
            if tap == 0:
                np.matmul(filters[:, :, km, kn], window, out=acc)
            else:
                np.matmul(filters[:, :, km, kn], window, out=part)
                acc += part
        acc += bias[:, None]
    return y.reshape(b, out_ch, h_out, wp)[..., :w_out]


def _conv_backward_batch(dy, x, filters, pad, input_grad):
    """(d_filters, d_bias, dx); dx is None when `input_grad` is false."""
    b, c, h, w = x.shape
    out_ch, _, m, n = filters.shape
    h_out, w_out = dy.shape[2], dy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    span = h_out * w_out
    dy_flat = dy.reshape(b, out_ch, span)
    d_filters = np.zeros_like(filters)
    dxp = np.zeros_like(xp) if input_grad else None
    for km in range(m):
        for kn in range(n):
            patch = xp[:, :, km : km + h_out, kn : kn + w_out].reshape(b, c, span)
            d_filters[:, :, km, kn] = (dy_flat @ patch.transpose(0, 2, 1)).sum(axis=0)
            if dxp is not None:
                dxp[:, :, km : km + h_out, kn : kn + w_out] += (
                    filters[:, :, km, kn].T @ dy_flat
                ).reshape(b, c, h_out, w_out)
    d_bias = dy.sum(axis=(0, 2, 3))
    if dxp is not None and pad:
        dxp = dxp[:, :, pad : pad + h, pad : pad + w]
    return d_filters, d_bias, dxp


def _pool_views(x: np.ndarray, k: int) -> list[np.ndarray]:
    """The k*k strided views x[:, :, i::k, j::k], (i, j) in row-major order:
    view t holds entry t of every k x k block."""
    h, w = x.shape[2:]
    if h % k or w % k:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by pool window {k}")
    return [x[:, :, i::k, j::k] for i, j in np.ndindex(k, k)]


def _pool_batch(x: np.ndarray, k: int, with_idx: bool = True):
    """Block maxima and, when `with_idx`, each block's first (row-major)
    maximum position in one byte, which is argmax's pick on finite input."""
    views = _pool_views(x, k)
    y = views[0].copy()
    # on a tie np.maximum returns its second operand, so with the running
    # maximum second a 0.0 / -0.0 tie keeps the earlier value, as argmax does
    for view in views[1:]:
        np.maximum(view, y, out=y)
    if not with_idx:
        return y, None
    idx = np.zeros(y.shape, dtype=np.min_scalar_type(len(views) - 1))
    for t in range(len(views) - 1, -1, -1):
        np.copyto(idx, t, where=views[t] == y)
    return y, idx


def _pool_backward_batch(dy, idx, in_shape, k):
    dx = np.zeros(in_shape)
    for t, view in enumerate(_pool_views(dx, k)):
        np.copyto(view, dy, where=idx == t)
    return dx


def _fc_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc expects {weights.shape[1]} inputs, got {x.shape[1]}")
    return x @ weights.T + bias


def _softmax_batch(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of a (B, classes) logit batch."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float((lse - picked).mean())


# ---------------------------------------------------------------------------
# public per-sample operations

def conv2d_forward(x: np.ndarray, p: ConvLayerParams) -> np.ndarray:
    """Cross-correlate one (in_ch, H, W) tensor with the layer's filters."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    return _conv_batch(x[None], p.filters, p.bias, p.padding)[0]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def maxpool_forward(x: np.ndarray, spec: PoolSpec) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of one (C, H, W) tensor plus in-block argmax indices."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    y, idx = _pool_batch(x[None], spec.k)
    return y[0], idx[0]


def fc_forward(x: np.ndarray, p: FcLayerParams) -> np.ndarray:
    """Dense layer W x + b on one input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {x.shape}")
    return _fc_batch(x[None], p.weights, p.bias)[0]


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable softmax loss and its gradient for one sample.

    Returns (-ln p[label], p - onehot(label)).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ShapeError(f"expected a logit vector, got shape {logits.shape}")
    if not 0 <= label < len(logits):
        raise ValueError(f"label {label} out of range for {len(logits)} classes")
    probs = _softmax_batch(logits[None])[0]
    grad = probs.copy()
    grad[label] -= 1.0
    return float(-math.log(probs[label])), grad


def image_to_input(cube: Image) -> np.ndarray:
    """32x32 RGB cube to a (3, 32, 32) float tensor scaled to [0, 1]."""
    if cube.width != INPUT_SIZE or cube.height != INPUT_SIZE:
        raise ShapeError(
            f"expected a {INPUT_SIZE}x{INPUT_SIZE} cube, got {cube.width}x{cube.height}"
        )
    return cube.pixels.astype(np.float64).transpose(2, 0, 1) / 255.0


def images_to_batch(cubes: Iterable[Image]) -> np.ndarray:
    """Stack cubes into a (B, 3, 32, 32) input batch."""
    return np.stack([image_to_input(c) for c in cubes])


def _forward(
    params: NetworkParams,
    x: np.ndarray,
    start: int = 0,
    override: tuple[np.ndarray, np.ndarray] | None = None,
    cache: list | None = None,
) -> np.ndarray:
    """Logits from running layers `start` onward on `x`, their input batch.

    `override` is a (weight, bias) pair used in place of layer `start`'s
    own.  When a `cache` list is given, each layer appends what backward
    needs: its (flattened, for fc) input, its pre-activation and, for
    conv, the pool argmax, which an eval-only pass does not compute.
    """
    last = len(params.layers) - 1
    for i in range(start, last + 1):
        layer = params.layers[i][1]
        if override is not None and i == start:
            weight, bias = override
        else:
            weight, bias = getattr(layer, layer.weight_name), layer.bias
        if isinstance(layer, ConvLayerParams):
            z = _conv_batch(x, weight, bias, layer.padding)
            a = np.maximum(z, 0.0)
            y, idx = _pool_batch(a, POOL_WINDOW, with_idx=cache is not None)
        else:
            x = x.reshape(x.shape[0], -1)
            z = _fc_batch(x, weight, bias)
            y, idx = (np.maximum(z, 0.0) if i < last else z), None
        if cache is not None:
            cache.append((x, z, idx))
        x = y
    return x


def _backward(
    params: NetworkParams, cache: list, logits: np.ndarray, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Mean-loss gradients for every parameter tensor."""
    batch = len(labels)
    dy = _softmax_batch(logits)
    dy[np.arange(batch), labels] -= 1.0
    dy /= batch

    grads: dict[str, np.ndarray] = {}
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        name, layer = params.layers[i]
        x, z, idx = cache[i]
        if isinstance(layer, ConvLayerParams):
            da = _pool_backward_batch(dy.reshape(idx.shape), idx, z.shape, POOL_WINDOW)
            d_weight, d_bias, dy = _conv_backward_batch(
                da * (z > 0), x, layer.filters, layer.padding, input_grad=i > 0
            )
        else:
            if i < last:
                dy = dy * (z > 0)
            d_weight, d_bias = dy.T @ x, dy.sum(axis=0)
            dy = dy @ layer.weights
        grads[f"{name}.{layer.weight_name}"] = d_weight
        grads[f"{name}.bias"] = d_bias
    return grads


def logits(xs: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Class logits for a prepared (B, 3, 32, 32) batch.

    Raises NumericError, with no numpy warning, when any logit is
    non-finite: finite weights can still overflow the forward pass.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _forward(params, xs)
    if not np.isfinite(out).all():
        raise NumericError("forward pass made non-finite logits")
    return out


def network_forward(img_cube: Image, params: NetworkParams) -> np.ndarray:
    """Class probabilities for one 32x32 cube."""
    return predict_probabilities(image_to_input(img_cube)[None], params)[0]


def predict_probabilities(xs: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Class probabilities for a prepared (B, 3, 32, 32) batch; raises
    NumericError like `logits`."""
    return _softmax_batch(logits(xs, params))


def loss_and_gradients(
    xs: np.ndarray, labels: np.ndarray, params: NetworkParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its gradients on a prepared batch."""
    if len(xs) == 0:
        raise ValueError("batch must be nonempty")
    labels = np.asarray(labels, dtype=np.int64)
    cache: list = []
    out = _forward(params, xs, cache=cache)
    return mean_cross_entropy(out, labels), _backward(params, cache, out, labels)


def network_backward(
    batch: Sequence[tuple[Image, int]], params: NetworkParams
) -> dict[str, np.ndarray]:
    """Mean gradients over (cube, label) samples, keyed like tensors()."""
    if not batch:
        raise ValueError("batch must be nonempty")
    xs = images_to_batch([img for img, _ in batch])
    labels = np.asarray([label for _, label in batch], dtype=np.int64)
    return loss_and_gradients(xs, labels, params)[1]


def sgd_step(
    params: NetworkParams,
    grads: Mapping[str, np.ndarray],
    lr: float,
    momentum: float,
    velocity: Mapping[str, np.ndarray] | None = None,
) -> tuple[NetworkParams, dict[str, np.ndarray]]:
    """One momentum SGD update: v <- momentum*v - lr*g; theta <- theta + v."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    new_tensors: dict[str, np.ndarray] = {}
    new_velocity: dict[str, np.ndarray] = {}
    for name, tensor in params.tensors():
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != tensor.shape:
            raise ShapeError(
                f"gradient {name} has shape {grad.shape}, expected {tensor.shape}"
            )
        vel = velocity[name] if velocity is not None else np.zeros_like(tensor)
        vel = momentum * vel - lr * grad
        new_velocity[name] = vel
        new_tensors[name] = tensor + vel
        if not np.isfinite(new_tensors[name]).all():
            raise NumericError(f"update made {name} non-finite")
    return params.replace_tensors(new_tensors), new_velocity


def init_params(seed: int, class_names: tuple[str, ...] = CLASS_NAMES) -> NetworkParams:
    """He-normal weights (std = sqrt(2/fan_in)), zero biases, fixed draw order."""
    rng = Xoshiro256StarStar(seed)
    layers = {}
    for name, kind, shape in LAYER_TABLE:
        fan_in = math.prod(shape[1:])
        weight = rng.normals(math.prod(shape)).reshape(shape)
        layers[name] = kind(weight * math.sqrt(2.0 / fan_in), np.zeros(shape[0]))
    return NetworkParams(**layers, class_names=class_names)


# ---------------------------------------------------------------------------
# checkpoint serialization

_KIND_CONV = 0
_KIND_FC = 1


def save_checkpoint(params: NetworkParams) -> bytes:
    """Serialize all layers: magic, u32 version, u32 layer count, then per
    layer a u8 kind, u32 dimensions, and raw little-endian float64 tensors
    (weights then bias, row-major)."""
    out = bytearray(CHECKPOINT_MAGIC)
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(params.layers))
    for _, layer in params.layers:
        weight = getattr(layer, layer.weight_name)
        if isinstance(layer, ConvLayerParams):
            out += struct.pack("<B5I", _KIND_CONV, *weight.shape, layer.padding)
        else:
            out += struct.pack("<B2I", _KIND_FC, *weight.shape)
        out += weight.astype("<f8").tobytes()
        out += layer.bias.astype("<f8").tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointTruncatedError(
                f"needed {count} bytes at offset {self.pos}, "
                f"stream has {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def load_checkpoint(data: bytes) -> NetworkParams:
    """Parse checkpoint bytes back into NetworkParams, bit-exactly."""
    reader = _Reader(data)
    magic = reader.take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported version {version}")
    count = reader.u32()
    if count != len(LAYER_NAMES):
        raise CheckpointError(f"checkpoint has {count} layers, not {len(LAYER_NAMES)}")
    layers: list[Layer] = []
    for _ in range(count):
        kind = reader.take(1)[0]
        if kind == _KIND_CONV:
            o, c, m, n, pad = (reader.u32() for _ in range(5))
            filters = reader.floats(o * c * m * n).reshape(o, c, m, n)
            bias = reader.floats(o)
            layers.append(ConvLayerParams(filters, bias, pad))
        elif kind == _KIND_FC:
            o, i = reader.u32(), reader.u32()
            weights = reader.floats(o * i).reshape(o, i)
            bias = reader.floats(o)
            layers.append(FcLayerParams(weights, bias))
        else:
            raise CheckpointError(f"unknown layer kind {kind}")
    if reader.pos != len(data):
        raise CheckpointError(f"{len(data) - reader.pos} trailing bytes")
    try:
        return NetworkParams(*layers)
    except ValueError as exc:
        raise CheckpointError(f"inconsistent layer shapes: {exc}") from exc


# ---------------------------------------------------------------------------
# gradient checking

def _kink_margin(params: NetworkParams, xs: np.ndarray) -> float:
    """Distance from the nearest piecewise-linear kink along the forward pass.

    Central differences are only valid if no ReLU sign change or pool
    argmax switch falls inside the probe interval; this returns the
    smallest |pre-activation| and the smallest positive pool-block gap,
    whichever is tighter.
    """
    cache: list = []
    _forward(params, xs, cache=cache)
    margin = math.inf
    for _, z, idx in cache[:-1]:
        margin = min(margin, float(np.abs(z).min()))
        if idx is not None:
            # running largest and second largest, ties counted twice
            views = _pool_views(np.maximum(z, 0.0), POOL_WINDOW)
            top = np.maximum(views[0], views[1])
            second = np.minimum(views[0], views[1])
            for view in views[2:]:
                second = np.maximum(second, np.minimum(top, view))
                top = np.maximum(top, view)
            gaps = (top - second)[top > 0]
            if gaps.size:
                margin = min(margin, float(gaps.min()))
    return margin


def gradcheck_batch(
    seed: int,
    params: NetworkParams,
    batch: int = 2,
    h: float = 1e-5,
    safety: float = 2.0,
    max_tries: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic random batch sitting clear of every activation kink.

    Draws candidate batches from streams derived off `seed` and takes the
    first whose kink margin exceeds safety * h, so every finite-difference
    probe stays inside one linear region of the ReLU/pool network.
    """
    n = len(params.class_names)
    for attempt in range(1, max_tries + 1):
        rng = Xoshiro256StarStar(derive_stream_seed(seed, attempt))
        xs = rng.doubles(batch * 3 * INPUT_SIZE * INPUT_SIZE).reshape(
            batch, 3, INPUT_SIZE, INPUT_SIZE
        )
        labels = rng.integers_below(n, batch)
        if _kink_margin(params, xs) > safety * h:
            return xs, labels
    raise RuntimeError(
        f"no kink-free batch found in {max_tries} draws for seed {seed}"
    )


@dataclass(frozen=True)
class GradCheckResult:
    """Per-tensor comparison of analytic vs finite-difference gradients."""

    name: str
    relative_error: float
    max_abs_diff: float
    passed: bool


def gradient_check(
    params: NetworkParams,
    xs: np.ndarray,
    labels: np.ndarray,
    h: float = 1e-5,
    tolerance: float = 1e-6,
) -> list[GradCheckResult]:
    """Compare every parameter tensor's analytic gradient against central
    finite differences of the mean loss.

    The per-tensor relative error is ||a - n|| / (||a|| + ||n||), the
    usual normalized gradient-check metric.
    """
    labels = np.asarray(labels, dtype=np.int64)
    cache: list = []
    analytic = _backward(params, cache, _forward(params, xs, cache=cache), labels)

    results = []
    for stage, (name, layer) in enumerate(params.layers):
        attrs = (layer.weight_name, "bias")
        base = tuple(getattr(layer, attr).copy() for attr in attrs)
        x = cache[stage][0]
        for slot, attr in enumerate(attrs):
            tensor_name = f"{name}.{attr}"
            numeric = np.zeros_like(base[slot])
            flat = base[slot].reshape(-1)
            numeric_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                hi = mean_cross_entropy(_forward(params, x, stage, base), labels)
                flat[i] = original - h
                lo = mean_cross_entropy(_forward(params, x, stage, base), labels)
                flat[i] = original
                numeric_flat[i] = (hi - lo) / (2.0 * h)
            a = analytic[tensor_name]
            denom = np.linalg.norm(a) + np.linalg.norm(numeric)
            rel = float(np.linalg.norm(a - numeric) / denom) if denom else 0.0
            results.append(
                GradCheckResult(
                    name=tensor_name,
                    relative_error=rel,
                    max_abs_diff=float(np.abs(a - numeric).max()),
                    passed=rel < tolerance,
                )
            )
    return results
