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
N_CLASSES = len(CLASS_NAMES)

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

    @property
    def out_channels(self) -> int:
        return self.filters.shape[0]

    @property
    def in_channels(self) -> int:
        return self.filters.shape[1]


@dataclass(frozen=True)
class FcLayerParams:
    """Dense weights (out, in) with bias (out)."""

    weights: np.ndarray
    bias: np.ndarray

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

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class PoolSpec:
    """Non-overlapping max pooling window; stride equals the window."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pool window must be >= 1, got {self.k}")


@dataclass(frozen=True)
class NetworkParams:
    """The six parameterized layers in forward order plus class labels."""

    conv1: ConvLayerParams
    conv2: ConvLayerParams
    conv3: ConvLayerParams
    fc1: FcLayerParams
    fc2: FcLayerParams
    fc3: FcLayerParams
    pool: PoolSpec = field(default_factory=PoolSpec)
    class_names: tuple[str, ...] = CLASS_NAMES

    def __post_init__(self):
        if self.conv1.in_channels != 3:
            raise ShapeError("conv1 must take 3 input channels")
        if self.conv2.in_channels != self.conv1.out_channels:
            raise ShapeError("conv2 input channels do not match conv1 output")
        if self.conv3.in_channels != self.conv2.out_channels:
            raise ShapeError("conv3 input channels do not match conv2 output")
        side = INPUT_SIZE // self.pool.k**3
        flat = self.conv3.out_channels * side * side
        if self.fc1.in_features != flat:
            raise ShapeError(
                f"fc1 expects {self.fc1.in_features} inputs, flatten gives {flat}"
            )
        if self.fc2.in_features != self.fc1.out_features:
            raise ShapeError("fc2 input size does not match fc1 output")
        if self.fc3.in_features != self.fc2.out_features:
            raise ShapeError("fc3 input size does not match fc2 output")
        if self.fc3.out_features != len(self.class_names):
            raise ShapeError(
                f"fc3 has {self.fc3.out_features} outputs for "
                f"{len(self.class_names)} class names"
            )

    @property
    def layers(self) -> tuple[tuple[str, ConvLayerParams | FcLayerParams], ...]:
        return (
            ("conv1", self.conv1),
            ("conv2", self.conv2),
            ("conv3", self.conv3),
            ("fc1", self.fc1),
            ("fc2", self.fc2),
            ("fc3", self.fc3),
        )

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All parameter tensors as (dotted name, array), forward order."""
        out = []
        for name, layer in self.layers:
            if isinstance(layer, ConvLayerParams):
                out.append((f"{name}.filters", layer.filters))
            else:
                out.append((f"{name}.weights", layer.weights))
            out.append((f"{name}.bias", layer.bias))
        return out

    def replace_tensors(self, tensors: Mapping[str, np.ndarray]) -> "NetworkParams":
        """New params with every tensor swapped for its entry in `tensors`."""
        def conv(name: str, layer: ConvLayerParams) -> ConvLayerParams:
            return ConvLayerParams(
                tensors[f"{name}.filters"], tensors[f"{name}.bias"], layer.padding
            )

        def fc(name: str, layer: FcLayerParams) -> FcLayerParams:
            return FcLayerParams(tensors[f"{name}.weights"], tensors[f"{name}.bias"])

        return NetworkParams(
            conv1=conv("conv1", self.conv1),
            conv2=conv("conv2", self.conv2),
            conv3=conv("conv3", self.conv3),
            fc1=fc("fc1", self.fc1),
            fc2=fc("fc2", self.fc2),
            fc3=fc("fc3", self.fc3),
            pool=self.pool,
            class_names=self.class_names,
        )


# ---------------------------------------------------------------------------
# batched primitives (B, C, H, W)

def _conv_batch(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, pad: int):
    b, c, h, w = x.shape
    out_ch, in_ch, m, n = filters.shape
    if in_ch != c:
        raise ShapeError(f"conv expects {in_ch} channels, input has {c}")
    h_out = h + 2 * pad - m + 1
    w_out = w + 2 * pad - n + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {m}x{n} does not fit input {h}x{w} with pad {pad}")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    span = h_out * w_out
    y = np.zeros((b, out_ch, span))
    for km in range(m):
        for kn in range(n):
            patch = xp[:, :, km : km + h_out, kn : kn + w_out].reshape(b, c, span)
            y += filters[:, :, km, kn] @ patch
    y += bias[None, :, None]
    return y.reshape(b, out_ch, h_out, w_out)


def _conv_backward_batch(dy, x, filters, pad):
    b, c, h, w = x.shape
    out_ch, _, m, n = filters.shape
    h_out, w_out = dy.shape[2], dy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    span = h_out * w_out
    dy_flat = dy.reshape(b, out_ch, span)
    d_filters = np.zeros_like(filters)
    dxp = np.zeros_like(xp)
    for km in range(m):
        for kn in range(n):
            patch = xp[:, :, km : km + h_out, kn : kn + w_out].reshape(b, c, span)
            d_filters[:, :, km, kn] = (dy_flat @ patch.transpose(0, 2, 1)).sum(axis=0)
            dxp[:, :, km : km + h_out, kn : kn + w_out] += (
                filters[:, :, km, kn].T @ dy_flat
            ).reshape(b, c, h_out, w_out)
    d_bias = dy.sum(axis=(0, 2, 3))
    dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
    return d_filters, d_bias, dx


def _pool_batch(x: np.ndarray, k: int):
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by pool window {k}")
    h_out, w_out = h // k, w // k
    blocks = (
        x.reshape(b, c, h_out, k, w_out, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h_out, w_out, k * k)
    )
    # argmax picks the first maximum, i.e. row-major within each block
    idx = blocks.argmax(axis=-1)
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    return y, idx


def _pool_backward_batch(dy, idx, in_shape, k):
    b, c, h, w = in_shape
    h_out, w_out = h // k, w // k
    blocks = np.zeros((b, c, h_out, w_out, k * k))
    np.put_along_axis(blocks, idx[..., None], dy[..., None], axis=-1)
    return (
        blocks.reshape(b, c, h_out, w_out, k, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h, w)
    )


def _fc_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc expects {weights.shape[1]} inputs, got {x.shape[1]}")
    return x @ weights.T + bias


def _softmax_batch(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
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


def _forward_batch(xs: np.ndarray, params: NetworkParams) -> tuple[np.ndarray, dict]:
    """Run the full pipeline; the cache holds what backward needs."""
    k = params.pool.k
    cache: dict = {"x0": xs}
    cur = xs
    for name in ("conv1", "conv2", "conv3"):
        layer: ConvLayerParams = getattr(params, name)
        z = _conv_batch(cur, layer.filters, layer.bias, layer.padding)
        a = np.maximum(z, 0.0)
        pooled, idx = _pool_batch(a, k)
        cache[f"{name}.in"] = cur
        cache[f"{name}.z"] = z
        cache[f"{name}.idx"] = idx
        cache[f"{name}.a_shape"] = a.shape
        cur = pooled
    cache["flat_shape"] = cur.shape
    cur = cur.reshape(cur.shape[0], -1)
    for name in ("fc1", "fc2"):
        layer: FcLayerParams = getattr(params, name)
        cache[f"{name}.in"] = cur
        z = _fc_batch(cur, layer.weights, layer.bias)
        cache[f"{name}.z"] = z
        cur = np.maximum(z, 0.0)
    cache["fc3.in"] = cur
    logits = _fc_batch(cur, params.fc3.weights, params.fc3.bias)
    return logits, cache


def _backward_batch(
    logits: np.ndarray,
    cache: dict,
    labels: np.ndarray,
    params: NetworkParams,
) -> dict[str, np.ndarray]:
    """Mean-loss gradients for every parameter tensor."""
    batch = len(labels)
    dlogits = _softmax_batch(logits)
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch

    grads: dict[str, np.ndarray] = {}
    dcur = dlogits
    for name in ("fc3", "fc2", "fc1"):
        layer: FcLayerParams = getattr(params, name)
        if name != "fc3":
            dcur = dcur * (cache[f"{name}.z"] > 0)
        grads[f"{name}.weights"] = dcur.T @ cache[f"{name}.in"]
        grads[f"{name}.bias"] = dcur.sum(axis=0)
        dcur = dcur @ layer.weights
    dcur = dcur.reshape(cache["flat_shape"])
    k = params.pool.k
    for name in ("conv3", "conv2", "conv1"):
        layer: ConvLayerParams = getattr(params, name)
        da = _pool_backward_batch(dcur, cache[f"{name}.idx"], cache[f"{name}.a_shape"], k)
        dz = da * (cache[f"{name}.z"] > 0)
        d_filters, d_bias, dcur = _conv_backward_batch(
            dz, cache[f"{name}.in"], layer.filters, layer.padding
        )
        grads[f"{name}.filters"] = d_filters
        grads[f"{name}.bias"] = d_bias
    return grads


def network_forward(img_cube: Image, params: NetworkParams) -> np.ndarray:
    """Class probabilities for one 32x32 cube."""
    logits, _ = _forward_batch(image_to_input(img_cube)[None], params)
    return _softmax_batch(logits)[0]


def predict_probabilities(xs: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Class probabilities for a prepared (B, 3, 32, 32) batch."""
    logits, _ = _forward_batch(xs, params)
    return _softmax_batch(logits)


def loss_and_gradients(
    xs: np.ndarray, labels: np.ndarray, params: NetworkParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its gradients on a prepared batch."""
    if len(xs) == 0:
        raise ValueError("batch must be nonempty")
    labels = np.asarray(labels, dtype=np.int64)
    logits, cache = _forward_batch(xs, params)
    loss = _mean_cross_entropy(logits, labels)
    return loss, _backward_batch(logits, cache, labels, params)


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


_CONV_SHAPES = ((8, 3), (16, 8), (32, 16))
_FC_SHAPES = ((64, 512), (32, 64), (6, 32))


def init_params(seed: int, class_names: tuple[str, ...] = CLASS_NAMES) -> NetworkParams:
    """He-normal weights (std = sqrt(2/fan_in)), zero biases, fixed draw order."""
    rng = Xoshiro256StarStar(seed)
    layers: list[ConvLayerParams | FcLayerParams] = []
    for out_ch, in_ch in _CONV_SHAPES:
        fan_in = in_ch * 9
        filters = rng.normals(out_ch * fan_in).reshape(out_ch, in_ch, 3, 3)
        layers.append(
            ConvLayerParams(filters * math.sqrt(2.0 / fan_in), np.zeros(out_ch))
        )
    for out_f, in_f in _FC_SHAPES:
        weights = rng.normals(out_f * in_f).reshape(out_f, in_f)
        layers.append(
            FcLayerParams(weights * math.sqrt(2.0 / in_f), np.zeros(out_f))
        )
    conv1, conv2, conv3, fc1, fc2, fc3 = layers
    return NetworkParams(conv1, conv2, conv3, fc1, fc2, fc3, class_names=class_names)


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
        if isinstance(layer, ConvLayerParams):
            o, c, m, n = layer.filters.shape
            out += struct.pack("<B5I", _KIND_CONV, o, c, m, n, layer.padding)
            out += layer.filters.astype("<f8").tobytes()
        else:
            o, i = layer.weights.shape
            out += struct.pack("<B2I", _KIND_FC, o, i)
            out += layer.weights.astype("<f8").tobytes()
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

    def u8(self) -> int:
        return self.take(1)[0]

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
    if count != 6:
        raise CheckpointError(f"expected 6 layers, checkpoint lists {count}")
    layers: list[ConvLayerParams | FcLayerParams] = []
    for _ in range(count):
        kind = reader.u8()
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
    kinds = tuple(isinstance(l, ConvLayerParams) for l in layers)
    if kinds != (True, True, True, False, False, False):
        raise CheckpointError("layer kinds must be conv, conv, conv, fc, fc, fc")
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
    _, cache = _forward_batch(xs, params)
    k = params.pool.k
    margin = math.inf
    for name in ("conv1", "conv2", "conv3"):
        z = cache[f"{name}.z"]
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
        b, c, h, w = a.shape
        blocks = (
            a.reshape(b, c, h // k, k, w // k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(-1, k * k)
        )
        ordered = np.sort(blocks, axis=1)
        top, runner_up = ordered[:, -1], ordered[:, -2]
        active = top > 0
        if active.any():
            margin = min(margin, float((top[active] - runner_up[active]).min()))
    for name in ("fc1", "fc2"):
        margin = min(margin, float(np.abs(cache[f"{name}.z"]).min()))
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


def _loss_from_stage(
    stage: int,
    override: tuple[np.ndarray, ...],
    stage_inputs: list[np.ndarray],
    params: NetworkParams,
    labels: np.ndarray,
) -> float:
    """Recompute the loss from `stage` on, with that stage's tensors replaced.

    Stages 0-2 are conv+relu+pool, 3-5 the fc chain.  Earlier activations
    are read from `stage_inputs`, so probing a late layer skips all the
    convolution work; this is what keeps the full finite-difference sweep
    fast.
    """
    k = params.pool.k
    cur = stage_inputs[stage]
    for s in range(stage, 6):
        name = ("conv1", "conv2", "conv3", "fc1", "fc2", "fc3")[s]
        layer = getattr(params, name)
        if s < 3:
            if s == stage:
                filters, bias = override
                pad = layer.padding
            else:
                filters, bias, pad = layer.filters, layer.bias, layer.padding
            cur, _ = _pool_batch(np.maximum(_conv_batch(cur, filters, bias, pad), 0.0), k)
            if s == 2:
                cur = cur.reshape(cur.shape[0], -1)
        else:
            weights, bias = override if s == stage else (layer.weights, layer.bias)
            cur = _fc_batch(cur, weights, bias)
            if s < 5:
                cur = np.maximum(cur, 0.0)
    return _mean_cross_entropy(cur, labels)


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
    logits, cache = _forward_batch(xs, params)
    analytic = _backward_batch(logits, cache, labels, params)

    stage_inputs = [
        cache["conv1.in"],
        cache["conv2.in"],
        cache["conv3.in"],
        cache["fc1.in"],
        cache["fc2.in"],
        cache["fc3.in"],
    ]

    results = []
    stage_names = ("conv1", "conv2", "conv3", "fc1", "fc2", "fc3")
    for stage, name in enumerate(stage_names):
        layer = getattr(params, name)
        if isinstance(layer, ConvLayerParams):
            tensor_names = (f"{name}.filters", f"{name}.bias")
            base = (layer.filters.copy(), layer.bias.copy())
        else:
            tensor_names = (f"{name}.weights", f"{name}.bias")
            base = (layer.weights.copy(), layer.bias.copy())
        for slot, tensor_name in enumerate(tensor_names):
            work = base[slot]
            numeric = np.zeros_like(work)
            flat = work.reshape(-1)
            numeric_flat = numeric.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                hi = _loss_from_stage(stage, base, stage_inputs, params, labels)
                flat[i] = original - h
                lo = _loss_from_stage(stage, base, stage_inputs, params, labels)
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
