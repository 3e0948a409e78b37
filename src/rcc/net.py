"""Convolutional classifier built directly on numpy arrays.

Fixed architecture: three conv(3x3, pad 1) + ReLU + maxpool(2) stages
taking a 32x32 RGB cube from 3 to 8 to 16 to 32 channels, then three
fully connected layers 512 -> 64 -> 32 -> 6 with ReLU between them and
softmax cross-entropy on top.  Every pass runs in the dtype of its input
batch, casting the layer weights to it.  Training and the test-split
scoring of `harness.evaluate` and `harness.compare_robustness` send
float32 batches, which about halve each conv layer's time.  Detection
sends float64 batches, so the confidence it reports carries no float32
rounding, and the finite-difference gradient check does too, for its
tight tolerances.  The params, the SGD update and checkpoints stay
float64; a float32 gradient widens exactly in `sgd_step`.

`LAYER_TABLE` is the only description of that architecture: params,
init and checkpoints are checked against or built from it, and any layer
of another kind, shape or padding is rejected.  Every pass takes a whole
batch in layout (batch, channels, height, width); `conv2d_forward` and
`maxpool_forward` are one-sample views of the batched conv and pool that
tests use as oracles, on any filter shape and padding.  Checkpoints are a
small binary format (magic "RCC1") holding each layer's kind and
dimensions, which must be the table's, and raw little-endian float64
tensors; round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Mapping

import numpy as np

from .rng import Xoshiro256StarStar, derive_stream_seed

CLASS_NAMES = ("red", "orange", "yellow", "green", "blue", "purple")
INPUT_SIZE = 32
POOL_WINDOW = 2

CHECKPOINT_MAGIC = b"RCC1"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Tensor shapes do not fit the operation or the architecture."""


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


def _freeze_tensors(layer, ndim: int) -> np.ndarray:
    """Freeze the layer's weight (its `weight_name`) and bias as float64 and
    return the weight; ShapeError unless it is `ndim`-d, one bias per row."""
    name = layer.weight_name
    weight = _frozen_f64(getattr(layer, name), name)
    bias = _frozen_f64(layer.bias, "bias")
    if weight.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got shape {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {weight.shape[0]} outputs")
    object.__setattr__(layer, name, weight)
    object.__setattr__(layer, "bias", bias)
    return weight


@dataclass(frozen=True)
class ConvLayerParams:
    """Cross-correlation filters (out_ch, in_ch, M, N) with bias, stride 1."""

    filters: np.ndarray
    bias: np.ndarray
    padding: int = 1

    weight_name = "filters"

    def __post_init__(self):
        filters = _freeze_tensors(self, 4)
        if min(filters.shape) < 1:
            raise ShapeError(f"filter dims must be positive, got {filters.shape}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")


@dataclass(frozen=True)
class FcLayerParams:
    """Dense weights (out, in) with bias (out)."""

    weights: np.ndarray
    bias: np.ndarray

    weight_name = "weights"

    def __post_init__(self):
        _freeze_tensors(self, 2)


@dataclass(frozen=True)
class PoolSpec:
    """Non-overlapping max pooling window; stride equals the window."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"pool window must be >= 1, got {self.k}")


# The architecture in forward order: layer name, kind and weight shape.
# Every conv stage is conv (padding 1) + ReLU + max pool; every fc layer
# but the last is followed by a ReLU.  NetworkParams and checkpoints must
# match it row by row, and init_params draws the weights in this order.
LAYER_TABLE = (
    ("conv1", ConvLayerParams, (8, 3, 3, 3)),
    ("conv2", ConvLayerParams, (16, 8, 3, 3)),
    ("conv3", ConvLayerParams, (32, 16, 3, 3)),
    ("fc1", FcLayerParams, (64, 512)),
    ("fc2", FcLayerParams, (32, 64)),
    ("fc3", FcLayerParams, (len(CLASS_NAMES), 32)),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYER_TABLE)
_CONV_LAYERS = sum(kind is ConvLayerParams for _, kind, _ in LAYER_TABLE)
Layer = ConvLayerParams | FcLayerParams


@dataclass(frozen=True)
class NetworkParams:
    """The six parameterized layers in forward order plus class labels.

    Raises ShapeError unless each layer has its LAYER_TABLE row's kind and
    weight shape, and each conv padding 1.
    """

    conv1: ConvLayerParams
    conv2: ConvLayerParams
    conv3: ConvLayerParams
    fc1: FcLayerParams
    fc2: FcLayerParams
    fc3: FcLayerParams
    class_names: ClassVar[tuple[str, ...]] = CLASS_NAMES
    layers: tuple[tuple[str, Layer], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = tuple((name, getattr(self, name)) for name in LAYER_NAMES)
        object.__setattr__(self, "layers", layers)
        for (name, layer), (_, kind, shape) in zip(layers, LAYER_TABLE):
            if not isinstance(layer, kind):
                raise ShapeError(f"{name} must be a {kind.__name__}")
            weight = getattr(layer, kind.weight_name)
            if weight.shape != shape:
                raise ShapeError(
                    f"{name} {kind.weight_name} have shape {weight.shape}, not {shape}"
                )
            if kind is ConvLayerParams and layer.padding != 1:
                raise ShapeError(f"{name} has padding {layer.padding}, not 1")

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All parameter tensors as (dotted name, array), forward order."""
        return [
            (f"{name}.{attr}", getattr(layer, attr))
            for name, layer in self.layers
            for attr in (layer.weight_name, "bias")
        ]

    def replace_tensors(self, tensors: Mapping[str, np.ndarray]) -> "NetworkParams":
        """New params with every tensor swapped for its entry in `tensors`."""
        return NetworkParams(*(
            kind(tensors[f"{name}.{kind.weight_name}"], tensors[f"{name}.bias"])
            for name, kind, _ in LAYER_TABLE
        ))


# ---------------------------------------------------------------------------
# batched primitives (B, C, H, W)

# Output bytes per batch chunk of a conv forward pass: a chunk's sum and the
# tap product added to it stay in cache.  256 KiB ran fastest at batch 16
# and 200.
_CONV_CHUNK_BYTES = 256 * 1024

# Samples per block of an eval-only pass through the conv stages, whose
# outputs then stay in cache; 8 to 32 ran equally fast at batch 200.
_EVAL_BLOCK = 16


def _tap_sum(x, filters, pad, bias=None, reverse=False):
    """Sum over taps (km, kn), in row-major order or its `reverse`, of one
    K=in_ch GEMM each, plus `bias` if given; `pad` is (rows, columns).

    The input is padded once, with a spare zero row below, so each tap's
    window is one flat run of h_out rows of the padded width `wp` that BLAS
    reads in place.  The wp - w_out columns of each output row that wrap
    into the next input row are computed and dropped by the returned view.
    """
    b, c, h, w = x.shape
    out_ch, in_ch, m, n = filters.shape
    if in_ch != c:
        raise ShapeError(f"conv expects {in_ch} channels, input has {c}")
    ph, pw = pad
    h_out = h + 2 * ph - m + 1
    w_out = w + 2 * pw - n + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {m}x{n} does not fit input {h}x{w} with pad {pad}")
    wp = w + 2 * pw
    xp = np.zeros((b, c, h + 2 * ph + 1, wp), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    flat = xp.reshape(b, c, (h + 2 * ph + 1) * wp)
    span = h_out * wp
    y = np.empty((b, out_ch, span), dtype=x.dtype)
    chunk = max(1, _CONV_CHUNK_BYTES // (x.itemsize * out_ch * span))
    product = np.empty((min(chunk, b), out_ch, span), dtype=x.dtype)
    taps = list(np.ndindex(m, n))[:: -1 if reverse else 1]
    for start in range(0, b, chunk):
        acc = y[start : start + chunk]
        part = product[: len(acc)]
        # the first tap is stored, not added to zeros: the two differ only in
        # the sign of an all-zero sum, which a bias other than -0.0 clears
        for i, (km, kn) in enumerate(taps):
            offset = km * wp + kn
            window = flat[start : start + chunk, :, offset : offset + span]
            if i == 0:
                np.matmul(filters[:, :, km, kn], window, out=acc)
            else:
                np.matmul(filters[:, :, km, kn], window, out=part)
                acc += part
        if bias is not None:
            acc += bias[:, None]
    return y.reshape(b, out_ch, h_out, wp)[..., :w_out]


def _conv_batch(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, pad: int):
    """Cross-correlation with the same `pad` on every side, plus bias."""
    return _tap_sum(x, filters, (pad, pad), bias)


def _conv_backward_batch(dy, x, filters, pad, input_grad):
    """(d_filters, d_bias, dx); dx is None when `input_grad` is false.

    dx is the forward's tap loop on dy, padded by m - 1 - pad (or cropped),
    over the filters flipped with their channel axes swapped.  Padding adds
    only +0.0 terms, and reversed taps add each pixel's (km, kn) terms in
    row-major order, as a scatter into dx would."""
    b, c, h, w = x.shape
    out_ch, _, m, n = filters.shape
    h_out, w_out = dy.shape[2], dy.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    span = h_out * w_out
    dy_flat = dy.reshape(b, out_ch, span)
    d_filters = np.zeros_like(filters)
    for km, kn in np.ndindex(m, n):
        patch = xp[:, :, km : km + h_out, kn : kn + w_out].reshape(b, c, span)
        d_filters[:, :, km, kn] = (dy_flat @ patch.transpose(0, 2, 1)).sum(axis=0)
    d_bias = dy.sum(axis=(0, 2, 3))
    if not input_grad:
        return d_filters, d_bias, None
    crop_h, crop_w = max(0, pad + 1 - m), max(0, pad + 1 - n)
    dy = dy[:, :, crop_h : h_out - crop_h, crop_w : w_out - crop_w]
    flipped = filters[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    pad_back = (m - 1 - pad + crop_h, n - 1 - pad + crop_w)
    return d_filters, d_bias, _tap_sum(dy, flipped, pad_back, reverse=True)


def _pool_views(x: np.ndarray, k: int) -> list[np.ndarray]:
    """The k*k strided views x[:, :, i::k, j::k], (i, j) in row-major order:
    view t holds entry t of every k x k block."""
    h, w = x.shape[2:]
    if h % k or w % k:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by pool window {k}")
    return [x[:, :, i::k, j::k] for i, j in np.ndindex(k, k)]


def _pool_batch(x: np.ndarray, k: int, with_idx: bool = True):
    """Block maxima and, when `with_idx`, each block's first (row-major)
    maximum position, which is argmax's pick on finite input."""
    views = _pool_views(x, k)
    y = views[0].copy()
    idx = np.zeros(y.shape, dtype=np.min_scalar_type(k * k - 1)) if with_idx else None
    # idx < t here, so the maximum moves it only where view is strictly
    # greater, and np.maximum keeps y on ties: ties keep the first, +-0.0 too
    for t, view in enumerate(views[1:], 1):
        if with_idx:
            np.maximum(idx, (view > y) * idx.dtype.type(t), out=idx)
        np.maximum(view, y, out=y)
    return y, idx


def _pool_backward_batch(dy, idx, in_shape, k):
    """dy at each block's winner; the k*k views cover dx, so none is unset."""
    dx = np.empty(in_shape, dtype=dy.dtype)
    for t, view in enumerate(_pool_views(dx, k)):
        np.multiply(dy, idx == t, out=view)
    return dx


def _fc_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc expects {weights.shape[1]} inputs, got {x.shape[1]}")
    return x @ weights.T + bias


def _softmax_batch(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _class_labels(labels, rows: int) -> np.ndarray:
    """`labels` as int64, or ValueError unless they are one class index per row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (rows,):
        raise ValueError(f"expected {rows} labels, got shape {labels.shape}")
    if ((labels < 0) | (labels >= len(CLASS_NAMES))).any():
        raise ValueError(f"labels must lie in [0, {len(CLASS_NAMES)})")
    return labels


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """mean_cross_entropy on labels `_class_labels` has passed."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float((lse - picked).mean())


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of a (B, classes) logit batch; raises
    ValueError unless `labels` holds one class index per row."""
    return _cross_entropy(logits, _class_labels(labels, len(logits)))


# ---------------------------------------------------------------------------
# one-sample oracles and the batch API

def conv2d_forward(x: np.ndarray, p: ConvLayerParams) -> np.ndarray:
    """Cross-correlate one (in_ch, H, W) tensor with the layer's filters."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    return _conv_batch(x[None], p.filters, p.bias, p.padding)[0]


def maxpool_forward(x: np.ndarray, spec: PoolSpec) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of one (C, H, W) tensor plus in-block argmax indices."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    y, idx = _pool_batch(x[None], spec.k)
    return y[0], idx[0]


def images_to_batch(cubes: np.ndarray) -> np.ndarray:
    """A (B, 32, 32, 3) uint8 stack of RGB cubes as a (B, 3, 32, 32) batch
    scaled to [0, 1]."""
    if cubes.shape[1:] != (INPUT_SIZE, INPUT_SIZE, 3):
        raise ShapeError(
            f"expected a stack of {INPUT_SIZE}x{INPUT_SIZE} RGB cubes, got shape {cubes.shape}"
        )
    batch = cubes.astype(np.float64)
    batch /= 255.0
    return batch.transpose(0, 3, 1, 2)


def _forward(
    params: NetworkParams,
    x: np.ndarray,
    start: int = 0,
    override: tuple[np.ndarray, np.ndarray] | None = None,
    cache: list | None = None,
    stop: int = len(LAYER_TABLE),
) -> np.ndarray:
    """Output of layers `start` to `stop` - 1 (the logits, by default) on `x`.

    `override` is a (weight, bias) pair used in place of layer `start`'s
    own.  When a `cache` list is given, each layer appends what backward
    needs: its (flattened, for fc) input, its pre-activation and, for
    conv, the pool argmax.  An eval-only pass computes no argmax and runs
    the conv stages in blocks of _EVAL_BLOCK samples; the fc layers always
    see the whole batch, since a GEMM's bytes depend on its row count.
    """
    last = len(params.layers) - 1
    if cache is None and start < _CONV_LAYERS < stop:
        x = np.concatenate([
            _forward(params, x[s : s + _EVAL_BLOCK], start, override, stop=_CONV_LAYERS)
            for s in range(0, max(len(x), 1), _EVAL_BLOCK)
        ])
        start, override = _CONV_LAYERS, None
    for i in range(start, stop):
        layer = params.layers[i][1]
        if override is not None and i == start:
            weight, bias = override
        else:
            weight, bias = getattr(layer, layer.weight_name), layer.bias
        weight = weight.astype(x.dtype, copy=False)
        bias = bias.astype(x.dtype, copy=False)
        if isinstance(layer, ConvLayerParams):
            z = _conv_batch(x, weight, bias, layer.padding)
            a = np.maximum(z, 0.0)
            y, idx = _pool_batch(a, POOL_WINDOW, with_idx=cache is not None)
        else:
            x = x.reshape(len(x), math.prod(x.shape[1:]))
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
        weight = getattr(layer, layer.weight_name).astype(dy.dtype, copy=False)
        if isinstance(layer, ConvLayerParams):
            # the ReLU mask at pooled size: a block's winner has z > 0 exactly
            # when its maximum, the next layer's input, is above 0
            g = dy.reshape(idx.shape) * (cache[i + 1][0].reshape(idx.shape) > 0)
            da = _pool_backward_batch(g, idx, z.shape, POOL_WINDOW)
            d_weight, d_bias, dy = _conv_backward_batch(
                da, x, weight, layer.padding, input_grad=i > 0
            )
        else:
            if i < last:
                dy = dy * (z > 0)
            d_weight, d_bias = dy.T @ x, dy.sum(axis=0)
            dy = dy @ weight
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


def predict_probabilities(xs: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Class probabilities for a prepared (B, 3, 32, 32) batch; raises
    NumericError like `logits`."""
    return _softmax_batch(logits(xs, params))


def loss_and_gradients(
    xs: np.ndarray, labels: np.ndarray, params: NetworkParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its gradients on a prepared batch; raises
    ValueError unless `labels` holds one class index per sample."""
    if len(xs) == 0:
        raise ValueError("batch must be nonempty")
    labels = _class_labels(labels, len(xs))
    cache: list = []
    out = _forward(params, xs, cache=cache)
    return _cross_entropy(out, labels), _backward(params, cache, out, labels)


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


def init_params(seed: int) -> NetworkParams:
    """He-normal weights (std = sqrt(2/fan_in)), zero biases, fixed draw order."""
    rng = Xoshiro256StarStar(seed)
    layers = {}
    for name, kind, shape in LAYER_TABLE:
        fan_in = math.prod(shape[1:])
        weight = rng.normals(math.prod(shape)).reshape(shape)
        layers[name] = kind(weight * math.sqrt(2.0 / fan_in), np.zeros(shape[0]))
    return NetworkParams(**layers)


# ---------------------------------------------------------------------------
# checkpoint serialization

def _layer_header(kind: type, shape: tuple[int, ...]) -> bytes:
    """A layer's kind byte and u32 dimensions: conv 0 with (o, c, m, n) and
    padding 1, fc 1 with (out, in)."""
    if kind is ConvLayerParams:
        return struct.pack("<B5I", 0, *shape, 1)
    return struct.pack("<B2I", 1, *shape)


def save_checkpoint(params: NetworkParams) -> bytes:
    """Serialize all layers: magic, u32 version, u32 layer count, then per
    layer its `_layer_header` and raw little-endian float64 tensors
    (weights then bias, row-major)."""
    out = bytearray(CHECKPOINT_MAGIC)
    out += struct.pack("<II", CHECKPOINT_VERSION, len(LAYER_TABLE))
    for (_, kind, shape), (_, layer) in zip(LAYER_TABLE, params.layers):
        out += _layer_header(kind, shape)
        out += getattr(layer, kind.weight_name).astype("<f8").tobytes()
        out += layer.bias.astype("<f8").tobytes()
    return bytes(out)


def load_checkpoint(data: bytes) -> NetworkParams:
    """Parse checkpoint bytes back into NetworkParams, bit-exactly; raises
    CheckpointError unless every layer header is its LAYER_TABLE row's,
    and NumericError if a tensor overflows float32, in which eval and
    compare score, so that no command scores a checkpoint another rejects."""
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise CheckpointTruncatedError(
                f"needed {count} bytes at offset {pos}, stream has {len(data) - pos}"
            )
        pos += count
        return data[pos - count : pos]

    magic = take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported version {version}")
    (count,) = struct.unpack("<I", take(4))
    if count != len(LAYER_TABLE):
        raise CheckpointError(f"checkpoint has {count} layers, not {len(LAYER_TABLE)}")
    layers: list[Layer] = []
    for name, kind, shape in LAYER_TABLE:
        header = _layer_header(kind, shape)
        if take(len(header)) != header:
            raise CheckpointError(
                f"{name} kind or dimensions differ from the fixed architecture's {shape}"
            )
        weight = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        try:
            layers.append(kind(weight, np.frombuffer(take(8 * shape[0]), dtype="<f8")))
        except ValueError as exc:
            raise CheckpointError(f"{name}: {exc}") from exc
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes")
    params = NetworkParams(*layers)
    with np.errstate(over="ignore"):
        for name, tensor in params.tensors():
            if not np.isfinite(tensor.astype(np.float32)).all():
                raise NumericError(
                    f"{name} overflows float32, so a forward pass would make non-finite logits"
                )
    return params


# ---------------------------------------------------------------------------
# gradient checking

# The finite-difference step. `gradcheck_batch` wants a batch KINK_SAFETY
# steps clear of every kink, so its margin holds only for this step.
GRADCHECK_H = 1e-5
KINK_SAFETY = 2.0
KINK_FREE_TRIES = 64

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
            # each block's largest and second largest, ties counted twice
            top = np.sort(_pool_views(np.maximum(z, 0.0), POOL_WINDOW), axis=0)[-2:]
            gaps = (top[1] - top[0])[top[1] > 0]
            if gaps.size:
                margin = min(margin, float(gaps.min()))
    return margin


def gradcheck_batch(
    seed: int, params: NetworkParams, batch: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic random batch sitting clear of every activation kink.

    Draws candidate batches from streams derived off `seed` and takes the
    first whose kink margin exceeds KINK_SAFETY * GRADCHECK_H, so every
    finite-difference probe stays inside one linear region of the
    ReLU/pool network.
    """
    n = len(params.class_names)
    for attempt in range(1, KINK_FREE_TRIES + 1):
        rng = Xoshiro256StarStar(derive_stream_seed(seed, attempt))
        xs = rng.doubles(batch * 3 * INPUT_SIZE * INPUT_SIZE).reshape(
            batch, 3, INPUT_SIZE, INPUT_SIZE
        )
        labels = rng.integers_below(n, batch)
        if _kink_margin(params, xs) > KINK_SAFETY * GRADCHECK_H:
            return xs, labels
    raise RuntimeError(
        f"no kink-free batch found in {KINK_FREE_TRIES} draws for seed {seed}"
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
    h: float = GRADCHECK_H,
    tolerance: float = 1e-6,
) -> list[GradCheckResult]:
    """Compare every parameter tensor's analytic gradient against central
    finite differences of the mean loss.

    The per-tensor relative error is ||a - n|| / (||a|| + ||n||), the
    usual normalized gradient-check metric.
    """
    labels = _class_labels(labels, len(xs))
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
                hi = _cross_entropy(_forward(params, x, stage, base), labels)
                flat[i] = original - h
                lo = _cross_entropy(_forward(params, x, stage, base), labels)
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
