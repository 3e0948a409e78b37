"""Network math: hand-checked values, naive oracles, and serialization."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcc import net
from rcc.image import Image
from rcc.net import (
    CLASS_NAMES,
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConvLayerParams,
    FcLayerParams,
    PoolSpec,
    ShapeError,
    conv2d_forward,
    fc_forward,
    gradcheck_batch,
    image_to_input,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    maxpool_forward,
    network_backward,
    network_forward,
    relu,
    save_checkpoint,
    sgd_step,
    softmax_cross_entropy,
)
from rcc.rng import Xoshiro256StarStar

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES


def naive_conv(x, filters, bias, pad):
    """Quadruple-loop cross-correlation, the reference implementation."""
    out_ch, in_ch, m, n = filters.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = xp.shape[1] - m + 1
    w_out = xp.shape[2] - n + 1
    y = np.zeros((out_ch, h_out, w_out))
    for o in range(out_ch):
        for yy in range(h_out):
            for xx in range(w_out):
                acc = 0.0
                for c in range(in_ch):
                    for km in range(m):
                        for kn in range(n):
                            acc += filters[o, c, km, kn] * xp[c, yy + km, xx + kn]
                y[o, yy, xx] = acc + bias[o]
    return y


# The per-tap-copy conv and argmax pooling that the copy-free primitives in
# rcc.net replaced.  They define the bytes those primitives must produce.

def oracle_conv_batch(x, filters, bias, pad):
    b, c, h, w = x.shape
    out_ch, in_ch, m, n = filters.shape
    h_out = h + 2 * pad - m + 1
    w_out = w + 2 * pad - n + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    span = h_out * w_out
    y = np.zeros((b, out_ch, span))
    for km in range(m):
        for kn in range(n):
            patch = xp[:, :, km : km + h_out, kn : kn + w_out].reshape(b, c, span)
            y += filters[:, :, km, kn] @ patch
    y += bias[None, :, None]
    return y.reshape(b, out_ch, h_out, w_out)


def _oracle_pool_blocks(x, k):
    b, c, h, w = x.shape
    h_out, w_out = h // k, w // k
    return (
        x.reshape(b, c, h_out, k, w_out, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h_out, w_out, k * k)
    )


def oracle_pool_batch(x, k, with_idx=True):
    """Always returns the argmax; `with_idx` only matches the signature."""
    blocks = _oracle_pool_blocks(x, k)
    idx = blocks.argmax(axis=-1)
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    return y, idx


def oracle_pool_backward_batch(dy, idx, in_shape, k):
    blocks = np.zeros(idx.shape + (k * k,))
    np.put_along_axis(blocks, idx[..., None], dy[..., None], axis=-1)
    return (
        blocks.reshape(idx.shape + (k, k))
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(in_shape)
    )


def _draw(rng, shape, kind):
    """Normal values; or small integers, so pool blocks tie; or mostly
    zeros of both signs, so whole blocks are zero."""
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "ties":
        return rng.integers(-2, 3, shape).astype(np.float64)
    values = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    spikes = rng.random(shape) < 0.05
    values[spikes] = rng.standard_normal(int(spikes.sum()))
    return values


def _layer_cases():
    """(layer, batch) for each conv layer and the batch sizes around its
    chunk size, one chunk, and a full re-evaluation batch."""
    cases = []
    shape = (3, net.INPUT_SIZE, net.INPUT_SIZE)
    for name, kind, weight_shape in net.LAYER_TABLE:
        if kind is not ConvLayerParams:
            break
        out_ch, _, m, n = weight_shape
        wp = shape[2] + 2
        span = (shape[1] + 3 - m) * wp
        chunk = max(1, net._CONV_CHUNK_BYTES // (8 * out_ch * span))
        for batch in sorted({1, max(1, chunk - 1), chunk, chunk + 1, 200}):
            case_id = f"{name}-b{batch}"
            cases.append(pytest.param(weight_shape, shape, batch, id=case_id))
        shape = (out_ch, shape[1] // 2, shape[2] // 2)
    return cases


LAYER_CASES = _layer_cases()
KINDS = st.sampled_from(["normal", "ties", "zeros"])


class TestPrimitivesMatchOracles:
    @pytest.mark.parametrize("weight_shape, in_shape, batch", LAYER_CASES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS)
    def test_conv(self, weight_shape, in_shape, batch, seed, kind):
        rng = np.random.default_rng(seed)
        x = _draw(rng, (batch,) + in_shape, kind)
        filters = _draw(rng, weight_shape, kind)
        bias = _draw(rng, weight_shape[:1], kind)
        got = net._conv_batch(x, filters, bias, 1)
        assert np.array_equal(got, oracle_conv_batch(x, filters, bias, 1))

    @pytest.mark.parametrize("weight_shape, in_shape, batch", LAYER_CASES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS)
    def test_pool_and_pool_backward(self, weight_shape, in_shape, batch, seed, kind):
        rng = np.random.default_rng(seed)
        x = _draw(rng, (batch, weight_shape[0]) + in_shape[1:], kind)
        y, idx = net._pool_batch(x, net.POOL_WINDOW)
        want_y, want_idx = oracle_pool_batch(x, net.POOL_WINDOW)
        assert np.array_equal(y, want_y)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(net._pool_batch(x, net.POOL_WINDOW, False)[0], want_y)
        dy = rng.standard_normal(y.shape)
        assert np.array_equal(
            net._pool_backward_batch(dy, idx, x.shape, net.POOL_WINDOW),
            oracle_pool_backward_batch(dy, want_idx, x.shape, net.POOL_WINDOW),
        )

    def test_logits_equal_the_cached_forward_pass(self):
        params = init_params(0)
        xs = Xoshiro256StarStar(203).doubles(40 * 3 * 32 * 32).reshape(40, 3, 32, 32)
        cached = net._forward(params, xs, cache=[])
        assert net.logits(xs, params).tobytes() == cached.tobytes()


# Trains two steps and takes batch-200 logits with the program, then with the
# oracles patched in; prints both digests.
_KERNEL_SCRIPT = """
import hashlib, importlib.util, sys
from rcc import net
from rcc.rng import Xoshiro256StarStar

spec = importlib.util.spec_from_file_location("oracles", sys.argv[1])
oracles = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracles)

def digest():
    rng = Xoshiro256StarStar(204)
    xs = rng.doubles(200 * 3 * 32 * 32).reshape(200, 3, 32, 32)
    labels = rng.integers_below(6, 200)
    params, velocity = net.init_params(0), None
    h = hashlib.sha256()
    for start in (0, 16):
        loss, grads = net.loss_and_gradients(
            xs[start : start + 16], labels[start : start + 16], params
        )
        params, velocity = net.sgd_step(params, grads, 0.01, 0.9, velocity)
        h.update(repr(loss).encode())
    h.update(net.save_checkpoint(params))
    h.update(net.logits(xs, params).tobytes())
    return h.hexdigest()

program = digest()
net._conv_batch = oracles.oracle_conv_batch
net._pool_batch = oracles.oracle_pool_batch
net._pool_backward_batch = oracles.oracle_pool_backward_batch
print(program, digest())
"""

# OpenBLAS kernel name -> numpy CPU features it needs; the CPU must have
# them, or the forced kernel would hit an illegal instruction.
BLAS_KERNELS = {
    None: (),
    "Haswell": ("AVX2", "FMA3"),
    "Sandybridge": ("AVX",),
    "Nehalem": ("SSE42",),
    "Prescott": ("SSE3",),
}


@pytest.mark.parametrize("coretype", list(BLAS_KERNELS), ids=lambda c: c or "default")
def test_training_and_logits_bytes_match_oracles_under_blas_kernel(coretype):
    """Same bytes as the oracles under each OpenBLAS kernel, not just the
    one this CPU picks: the copy-free conv changes each GEMM's operands
    and width, so equal bytes must not hinge on one kernel's rounding."""
    if not all(CPU_FEATURES.get(f) for f in BLAS_KERNELS[coretype]):
        pytest.skip(f"CPU cannot run the {coretype} kernel")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    src = Path(net.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _KERNEL_SCRIPT, __file__],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    program, oracle = done.stdout.split()
    assert program == oracle


class TestConv:
    def test_hand_case_identity_diagonal_kernel(self):
        x = np.array([[[1, 2, 3], [4, 5, 6], [7, 8, 9]]], dtype=np.float64)
        p = ConvLayerParams(
            filters=np.array([[[[1, 0], [0, 1]]]], dtype=np.float64),
            bias=np.zeros(1),
            padding=0,
        )
        assert conv2d_forward(x, p)[0].tolist() == [[6, 8], [12, 14]]

    def test_padding_grows_output(self):
        x = np.ones((1, 3, 3))
        p = ConvLayerParams(np.ones((1, 1, 3, 3)), np.zeros(1), padding=1)
        y = conv2d_forward(x, p)
        assert y.shape == (1, 3, 3)
        assert y[0, 1, 1] == 9.0
        assert y[0, 0, 0] == 4.0

    def test_matches_naive_oracle_random_shapes(self):
        rng = Xoshiro256StarStar(200)
        for _ in range(10):
            c = int(rng.integers_below(3, 1)[0]) + 1
            h = int(rng.integers_below(6, 1)[0]) + 3
            w = int(rng.integers_below(6, 1)[0]) + 3
            o = int(rng.integers_below(4, 1)[0]) + 1
            m = int(rng.integers_below(3, 1)[0]) + 1
            pad = int(rng.integers_below(2, 1)[0])
            x = rng.normals(c * h * w).reshape(c, h, w)
            filters = rng.normals(o * c * m * m).reshape(o, c, m, m)
            bias = rng.normals(o)
            p = ConvLayerParams(filters, bias, padding=pad)
            assert np.allclose(
                conv2d_forward(x, p), naive_conv(x, filters, bias, pad), atol=1e-9
            )

    def test_channel_mismatch_rejected(self):
        p = ConvLayerParams(np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_forward(np.ones((3, 5, 5)), p)


class TestPool:
    def test_hand_case_ascending_ramp(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        y, idx = maxpool_forward(x, PoolSpec(2))
        assert y[0].tolist() == [[5, 7], [13, 15]]
        assert (idx == 3).all()  # bottom-right of each block

    def test_tie_takes_first_in_row_major_order(self):
        x = np.zeros((1, 2, 2))
        _, idx = maxpool_forward(x, PoolSpec(2))
        assert idx[0, 0, 0] == 0

    def test_matches_blockwise_oracle(self):
        rng = Xoshiro256StarStar(201)
        x = rng.normals(3 * 8 * 6).reshape(3, 8, 6)
        y, _ = maxpool_forward(x, PoolSpec(2))
        for c in range(3):
            for by in range(4):
                for bx in range(3):
                    block = x[c, 2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                    assert y[c, by, bx] == block.max()

    def test_indivisible_input_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_forward(np.zeros((1, 5, 4)), PoolSpec(2))


class TestFcAndLoss:
    def test_fc_hand_case(self):
        p = FcLayerParams(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0]))
        assert fc_forward(np.array([1.0, 1.0]), p).tolist() == [3.0, 8.0]

    def test_relu_clamps_negatives(self):
        assert relu(np.array([-2.0, 0.0, 3.0])).tolist() == [0.0, 0.0, 3.0]

    def test_uniform_logits_give_log_n_loss(self):
        loss, grad = softmax_cross_entropy(np.zeros(6), 2)
        assert loss == pytest.approx(math.log(6.0), abs=1e-12)
        assert grad[2] == pytest.approx(1 / 6 - 1)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_loss_gradient_is_probability_minus_onehot(self):
        logits = np.array([2.0, -1.0, 0.5, 0.0, 1.0, -0.5])
        loss, grad = softmax_cross_entropy(logits, 4)
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        assert loss == pytest.approx(-math.log(probs[4]))
        expected = probs.copy()
        expected[4] -= 1
        assert np.allclose(grad, expected, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, grad = softmax_cross_entropy(np.array([1000.0, 0.0, 0.0]), 0)
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(6), 6)


class TestSgd:
    def test_two_steps_with_unit_gradient(self):
        # v1 = -0.1, v2 = 0.9 * v1 - 0.1 = -0.19, so theta moves by -0.29
        params = init_params(0)
        ones = {name: np.ones_like(t) for name, t in params.tensors()}
        p1, vel = sgd_step(params, ones, lr=0.1, momentum=0.9)
        p2, _ = sgd_step(p1, ones, lr=0.1, momentum=0.9, velocity=vel)
        before = dict(params.tensors())
        for name, after in p2.tensors():
            assert np.allclose(after - before[name], -0.29, atol=1e-12)

    def test_zero_momentum_is_plain_descent(self):
        params = init_params(1)
        grads = {name: np.full_like(t, 2.0) for name, t in params.tensors()}
        stepped, _ = sgd_step(params, grads, lr=0.5, momentum=0.0)
        before = dict(params.tensors())
        for name, after in stepped.tensors():
            assert np.allclose(after - before[name], -1.0)

    def test_invalid_hyperparameters_rejected(self):
        params = init_params(0)
        grads = {name: np.zeros_like(t) for name, t in params.tensors()}
        with pytest.raises(ValueError):
            sgd_step(params, grads, lr=0.0, momentum=0.9)
        with pytest.raises(ValueError):
            sgd_step(params, grads, lr=0.1, momentum=1.0)

    def test_small_step_does_not_increase_loss(self):
        params = init_params(0)
        xs, labels = gradcheck_batch(0, params, batch=4)
        loss0, grads = loss_and_gradients(xs, labels, params)
        stepped, _ = sgd_step(params, grads, lr=1e-4, momentum=0.0)
        loss1, _ = loss_and_gradients(xs, labels, stepped)
        assert loss1 <= loss0 + 1e-9


class TestInit:
    def test_shapes_and_zero_biases(self):
        p = init_params(0)
        assert p.conv1.filters.shape == (8, 3, 3, 3)
        assert p.conv2.filters.shape == (16, 8, 3, 3)
        assert p.conv3.filters.shape == (32, 16, 3, 3)
        assert p.fc1.weights.shape == (64, 512)
        assert p.fc2.weights.shape == (32, 64)
        assert p.fc3.weights.shape == (6, 32)
        for name, layer in p.layers:
            assert not layer.bias.any(), name

    def test_weight_scale_tracks_fan_in(self):
        p = init_params(0)
        for tensor, fan_in in (
            (p.conv1.filters, 27),
            (p.conv2.filters, 72),
            (p.fc1.weights, 512),
            (p.fc2.weights, 64),
        ):
            target = math.sqrt(2.0 / fan_in)
            assert abs(tensor.std() - target) / target < 0.10

    def test_seed_determinism(self):
        a, b = init_params(3), init_params(3)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)
        c = init_params(4)
        assert not np.array_equal(a.conv1.filters, c.conv1.filters)


class TestForward:
    def test_probabilities_normalized(self):
        cube = Image(np.full((32, 32, 3), 90, dtype=np.uint8))
        probs = network_forward(cube, init_params(0))
        assert probs.shape == (6,)
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_input_scaling(self):
        cube = Image(np.full((32, 32, 3), 255, dtype=np.uint8))
        x = image_to_input(cube)
        assert x.shape == (3, 32, 32)
        assert x.max() == 1.0

    def test_wrong_cube_size_rejected(self):
        with pytest.raises(ShapeError):
            image_to_input(Image(np.zeros((16, 16, 3), dtype=np.uint8)))

    def test_batch_gradients_match_per_sample_entry_point(self):
        rng = Xoshiro256StarStar(202)
        pixels = rng.integers_below(256, 2 * 32 * 32 * 3)
        cubes = [
            Image(pixels[i * 3072 : (i + 1) * 3072].reshape(32, 32, 3).astype(np.uint8))
            for i in range(2)
        ]
        params = init_params(0)
        from rcc.net import images_to_batch

        direct = loss_and_gradients(
            images_to_batch(cubes), np.array([1, 4]), params
        )[1]
        wrapped = network_backward([(cubes[0], 1), (cubes[1], 4)], params)
        for name in direct:
            assert np.array_equal(direct[name], wrapped[name])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self):
        params = init_params(0)
        blob = save_checkpoint(params)
        loaded = load_checkpoint(blob)
        for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a, b)
        assert save_checkpoint(loaded) == blob

    def test_bad_magic(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[:4] = b"XXXX"
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[4] = 9
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bytes(blob))

    def test_truncated_stream(self):
        blob = save_checkpoint(init_params(0))
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(blob[: len(blob) // 2])

    def test_trailing_garbage(self):
        blob = save_checkpoint(init_params(0))
        with pytest.raises(CheckpointError):
            load_checkpoint(blob + b"\x00")

    def test_unknown_layer_kind(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[12] = 7  # first layer kind byte
        with pytest.raises(CheckpointError):
            load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("padding", [0, 2])
    def test_conv1_padding_that_cannot_chain_is_rejected(self, padding):
        # conv1 padding 0 or 2 pools to 15x15 or 17x17 maps, which conv2's
        # output cannot tile with the 2x2 pool
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[29:33] = struct.pack("<I", padding)  # kind u8 at 12, then o, c, m, n
        with pytest.raises(CheckpointError, match="conv2 makes"):
            load_checkpoint(bytes(blob))

    def test_error_hierarchy(self):
        assert issubclass(CheckpointMagicError, CheckpointError)
        assert issubclass(CheckpointVersionError, CheckpointError)
        assert issubclass(CheckpointTruncatedError, CheckpointError)


class TestParamValidation:
    def test_class_name_count_must_match_output_width(self):
        params = init_params(0)
        with pytest.raises(ShapeError):
            init_params(0, class_names=CLASS_NAMES[:5])
        assert params.class_names == CLASS_NAMES

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            FcLayerParams(np.array([[np.nan]]), np.zeros(1))

    def test_bias_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ConvLayerParams(np.ones((2, 1, 3, 3)), np.zeros(3))
