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
from rcc.net import (
    CLASS_NAMES,
    CheckpointError,
    ConvLayerParams,
    FcLayerParams,
    ShapeError,
    gradcheck_batch,
    images_to_batch,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    mean_cross_entropy,
    predict_probabilities,
    save_checkpoint,
    sgd_step,
)
from rcc.rng import Xoshiro256StarStar

from oracles import (
    conv2d_forward,
    maxpool_forward,
    relu_then_pool_backward,
    relu_then_pool_forward,
)

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


# The per-tap-copy conv, the scatter-form conv backward and the argmax
# pooling that the copy-free primitives in rcc.net replaced.  They define
# the bytes those primitives must produce.

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


def oracle_conv_backward_batch(dy, x, filters, pad, input_grad):
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

    @pytest.mark.parametrize("weight_shape, in_shape, batch", LAYER_CASES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS)
    def test_conv_backward(self, weight_shape, in_shape, batch, seed, kind):
        rng = np.random.default_rng(seed)
        x = _draw(rng, (batch,) + in_shape, kind)
        filters = _draw(rng, weight_shape, kind)
        dy = _draw(rng, (batch, weight_shape[0]) + in_shape[1:], kind)
        got = net._conv_backward_batch(dy, x, filters, 1, input_grad=True)
        want = oracle_conv_backward_batch(dy, x, filters, 1, input_grad=True)
        for name, a, b in zip(("d_filters", "d_bias", "dx"), got, want):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize(
        "weight_shape, pad",
        [((4, 3, 5, 1), 2), ((4, 3, 1, 3), 1), ((4, 3, 1, 1), 1), ((4, 3, 2, 3), 0)],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"pad{v}",
    )
    def test_conv_backward_other_shapes(self, weight_shape, pad):
        """Filters that are not square, or narrower than the padding, so the
        input gradient needs unequal padding or a crop of dy."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 3, 7, 6))
        filters = rng.standard_normal(weight_shape)
        dy = rng.standard_normal(net._conv_batch(x, filters, np.zeros(4), pad).shape)
        got = net._conv_backward_batch(dy, x, filters, pad, input_grad=True)
        want = oracle_conv_backward_batch(dy, x, filters, pad, input_grad=True)
        assert got[2].shape == x.shape
        for name, a, b in zip(("d_filters", "d_bias", "dx"), got, want):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("k", [3, 17])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS)
    def test_pool_and_pool_backward_wide_windows(self, k, seed, kind):
        """Windows past 2, and past 16, where the index needs two bytes."""
        rng = np.random.default_rng(seed)
        x = _draw(rng, (3, 2, 2 * k, k), kind)
        y, idx = net._pool_batch(x, k)
        want_y, want_idx = oracle_pool_batch(x, k)
        assert idx.dtype == np.min_scalar_type(k * k - 1)
        assert np.array_equal(y, want_y)
        assert np.array_equal(idx, want_idx)
        dy = rng.standard_normal(y.shape)
        assert np.array_equal(
            net._pool_backward_batch(dy, idx, x.shape, k),
            oracle_pool_backward_batch(dy, want_idx, x.shape, k),
        )

    @pytest.mark.parametrize(
        "batch",
        sorted({0, 1, net._EVAL_BLOCK - 1, net._EVAL_BLOCK, net._EVAL_BLOCK + 1, 40, 200}),
        ids=lambda batch: f"b{batch}",
    )
    def test_logits_equal_the_cached_forward_pass(self, batch):
        """The eval-only pass runs the conv stages in blocks; the bytes are
        those of one cached pass over the whole batch, at every block edge."""
        params = init_params(0)
        rng = Xoshiro256StarStar(203)
        xs = rng.doubles(batch * 3 * 32 * 32).reshape(batch, 3, 32, 32)
        cached = net._forward(params, xs, cache=[])
        out = net.logits(xs, params)
        assert out.shape == (batch, len(CLASS_NAMES))
        assert out.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["normal", "ties", "zeros"])
    @pytest.mark.parametrize("batch", [1, 9, 16, 17], ids=lambda batch: f"b{batch}")
    def test_relu_after_pool_matches_relu_then_pool(self, batch, kind, dtype):
        """The ReLU after the pool gives the bytes of ReLU then pool: every
        layer's input, the logits of the eval-only and the cached pass, and
        every gradient.  Every kind draws thousands of blocks whose maximum
        is <= 0, where the two orders' argmaxes differ."""
        rng = np.random.default_rng(batch * 7 + len(kind))
        params = init_params(0)
        params = params.replace_tensors({
            name: _draw(rng, t.shape, kind) * math.sqrt(2.0 / math.prod(t.shape[1:]))
            for name, t in params.tensors()
        })
        xs = _draw(rng, (batch, 3, 32, 32), kind).astype(dtype)
        labels = rng.integers(0, len(CLASS_NAMES), batch)
        ref_cache, cache = [], []
        want = relu_then_pool_forward(params, xs, ref_cache)
        got = net._forward(params, xs, cache=cache)
        for i, ((x, z, _), (want_x, want_z, _)) in enumerate(zip(cache, ref_cache)):
            assert x.tobytes() == want_x.tobytes() and z.tobytes() == want_z.tobytes(), i
        assert got.tobytes() == want.tobytes()
        assert net.logits(xs, params).tobytes() == want.tobytes()
        want_grads = relu_then_pool_backward(params, ref_cache, want, labels)
        grads = net._backward(params, cache, got, labels)
        assert grads.keys() == want_grads.keys() and len(grads) == 12
        for name, grad in grads.items():
            assert grad.tobytes() == want_grads[name].tobytes(), name


# Trains two steps and takes batch-200 logits with the program, then with the
# four oracles patched in; prints both digests.
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
net._conv_backward_batch = oracles.oracle_conv_backward_batch
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
    # the package, and this directory, whose `oracles` this file imports
    paths = (Path(net.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (*map(str, paths), env.get("PYTHONPATH"))))
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
        y, idx = maxpool_forward(x, 2)
        assert y[0].tolist() == [[5, 7], [13, 15]]
        assert (idx == 3).all()  # bottom-right of each block

    def test_tie_takes_first_in_row_major_order(self):
        x = np.zeros((1, 2, 2))
        _, idx = maxpool_forward(x, 2)
        assert idx[0, 0, 0] == 0

    def test_matches_blockwise_oracle(self):
        rng = Xoshiro256StarStar(201)
        x = rng.normals(3 * 8 * 6).reshape(3, 8, 6)
        y, _ = maxpool_forward(x, 2)
        for c in range(3):
            for by in range(4):
                for bx in range(3):
                    block = x[c, 2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                    assert y[c, by, bx] == block.max()

    def test_indivisible_input_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_forward(np.zeros((1, 5, 4)), 2)


def _random_inputs(batch, seed=205):
    rng = Xoshiro256StarStar(seed)
    return rng.doubles(batch * 3 * 32 * 32).reshape(batch, 3, 32, 32)


class TestFcAndLoss:
    """The loss and the fc3 gradient through the batch API; the fc and ReLU
    arithmetic is pinned by test_logits_equal_the_cached_forward_pass."""

    def test_uniform_logits_give_log_n_loss(self):
        loss = mean_cross_entropy(np.zeros((2, 6)), np.array([2, 5]))
        assert loss == pytest.approx(math.log(6.0), abs=1e-12)

    def test_loss_gradient_is_probability_minus_onehot(self):
        params = init_params(0)
        xs, labels = _random_inputs(3), np.array([4, 0, 4])
        loss, grads = loss_and_gradients(xs, labels, params)
        probs = predict_probabilities(xs, params)
        onehot = np.eye(len(CLASS_NAMES))[labels]
        assert loss == pytest.approx(-np.log(probs[np.arange(3), labels]).mean())
        assert np.allclose(grads["fc3.bias"], (probs - onehot).mean(axis=0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        params = init_params(0)
        bias = np.zeros(len(CLASS_NAMES))
        bias[0] = 1000.0
        tensors = {**dict(params.tensors()), "fc3.bias": bias}
        extreme = params.replace_tensors(tensors)
        xs = _random_inputs(2)
        probs = predict_probabilities(xs, extreme)
        assert np.isfinite(probs).all()
        assert probs[:, 0].tolist() == [1.0, 1.0]
        loss, grads = loss_and_gradients(xs, np.array([0, 1]), extreme)
        assert math.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grads.values())

    # a bad label set must fail in both entry points that take labels
    def _assert_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            mean_cross_entropy(np.zeros((2, len(CLASS_NAMES))), labels)
        with pytest.raises(ValueError):
            loss_and_gradients(_random_inputs(2), labels, init_params(0))

    def test_label_out_of_range_rejected(self):
        self._assert_labels_rejected(np.array([0, len(CLASS_NAMES)]))

    def test_negative_label_rejected(self):
        self._assert_labels_rejected(np.array([-1, 0]))

    def test_one_label_per_sample_required(self):
        self._assert_labels_rejected(np.array([3]))


class TestBatchDtype:
    """Every pass runs in its batch's dtype on the float64 params: training,
    eval and compare send float32 batches, detect and gradcheck float64
    ones."""

    # norm-relative distance of a float32 gradient from the float64 one on
    # the same batch: float32 rounds at ~6e-8, and this batch's worst
    # tensor is 3.1e-7 away after six layers
    F32_GRAD_TOLERANCE = 1e-5

    def test_float32_gradients_are_float32_and_near_float64(self):
        params = init_params(0)
        xs, labels = _random_inputs(16), np.arange(16) % len(CLASS_NAMES)
        loss64, grads64 = loss_and_gradients(xs, labels, params)
        loss32, grads32 = loss_and_gradients(xs.astype(np.float32), labels, params)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert sorted(grads32) == sorted(name for name, _ in params.tensors())
        for name, grad in grads32.items():
            assert grad.dtype == np.float32, name
            want = grads64[name]
            error = np.linalg.norm(grad - want) / np.linalg.norm(want)
            assert error <= self.F32_GRAD_TOLERANCE, name

    def test_float32_forward_caches_only_float32(self):
        cache: list = []
        out = net._forward(init_params(0), _random_inputs(3).astype(np.float32), cache=cache)
        assert out.dtype == np.float32
        arrays = [a for entry in cache for a in entry if a is not None]
        assert len(arrays) == 2 * len(net.LAYER_TABLE) + net._CONV_LAYERS
        for a in arrays:
            assert a.dtype == (np.float32 if a.dtype.kind == "f" else np.uint8)

    def test_float32_logits_equal_the_cached_forward_pass(self):
        params = init_params(0)
        xs = _random_inputs(net._EVAL_BLOCK + 1).astype(np.float32)
        out = net.logits(xs, params)
        assert out.dtype == np.float32
        assert out.tobytes() == net._forward(params, xs, cache=[]).tobytes()

    def test_float64_batch_gives_float64_logits(self):
        assert net.logits(_random_inputs(2), init_params(0)).dtype == np.float64


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
        cubes = np.stack([np.full((32, 32, 3), v, dtype=np.uint8) for v in (90, 200)])
        probs = predict_probabilities(images_to_batch(cubes), init_params(0))
        assert probs.shape == (2, 6)
        assert probs.min() >= 0
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_input_scaling(self):
        rng = Xoshiro256StarStar(206)
        pixels = rng.integers_below(256, 32 * 32 * 3).reshape(32, 32, 3)
        cubes = np.stack([np.full((32, 32, 3), 255, dtype=np.uint8), pixels.astype(np.uint8)])
        xs = images_to_batch(cubes)
        assert xs.shape == (2, 3, 32, 32)
        assert (xs[0] == 1.0).all()
        # the same bytes as scaling the one cube on its own
        want = cubes[1].astype(np.float64).transpose(2, 0, 1) / 255.0
        assert xs[1].tobytes() == want.tobytes()

    def test_float32_batch_is_the_float64_one_rounded(self):
        # every uint8 value, each once per cube stack, in the same memory layout
        cubes = np.arange(4 * 32 * 32 * 3).astype(np.uint8).reshape(4, 32, 32, 3)
        xs, want = images_to_batch(cubes, np.float32), images_to_batch(cubes).astype(np.float32)
        assert xs.dtype == np.float32 and xs.strides == want.strides
        assert xs.tobytes() == want.tobytes()

    def test_wrong_cube_size_rejected(self):
        for shape in ((2, 16, 16, 3), (2, 32, 16, 3), (32, 32, 3)):
            with pytest.raises(ShapeError):
                images_to_batch(np.zeros(shape, dtype=np.uint8))


def _raw_checkpoint(conv1_shape=(8, 3, 3, 3), paddings=(1, 1, 1)) -> bytes:
    """init_params(0) in the documented checkpoint format, with the conv
    `paddings` as given and conv1's filters, if `conv1_shape` is not the
    table's, replaced by 0.01 in that shape."""
    out = bytearray(b"RCC1" + struct.pack("<II", 1, 6))
    for i, (_, layer) in enumerate(init_params(0).layers):
        weight = getattr(layer, layer.weight_name)
        if i == 0 and weight.shape != conv1_shape:
            weight = np.full(conv1_shape, 0.01)
        if i < 3:
            out += struct.pack("<B5I", 0, *weight.shape, paddings[i])
        else:
            out += struct.pack("<B2I", 1, *weight.shape)
        out += weight.astype("<f8").tobytes() + layer.bias.astype("<f8").tobytes()
    return bytes(out)


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
        with pytest.raises(CheckpointError, match="^bad magic b'XXXX'$"):
            load_checkpoint(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[4] = 9
        with pytest.raises(CheckpointError, match="^unsupported version 9$"):
            load_checkpoint(bytes(blob))
        # the version is checked before the layer count is read
        with pytest.raises(CheckpointError, match="^unsupported version 9$"):
            load_checkpoint(bytes(blob[:8]))

    def test_truncated_stream(self):
        blob = save_checkpoint(init_params(0))
        with pytest.raises(CheckpointError, match=r"^needed \d+ bytes at offset \d+, stream has \d+$"):
            load_checkpoint(blob[: len(blob) // 2])

    def test_every_prefix_at_a_header_or_tensor_boundary_is_truncated(self):
        # prefixes ending inside the 12-byte file header or a layer header,
        # and one byte either side of each tensor's end
        blob = save_checkpoint(init_params(0))
        cuts = set(range(12))
        pos = 12
        for _, kind, shape in net.LAYER_TABLE:
            header = 21 if kind is ConvLayerParams else 9
            cuts.update(range(pos, pos + header))
            pos += header
            for size in (math.prod(shape), shape[0]):
                pos += 8 * size
                cuts.update((pos - 1, pos + 1))
        assert pos == len(blob)
        for cut in sorted(cuts - {len(blob) + 1}):
            with pytest.raises(CheckpointError, match=r"^needed \d+ bytes at offset \d+, stream has \d+$"):
                load_checkpoint(blob[:cut])

    def test_trailing_garbage(self):
        blob = save_checkpoint(init_params(0))
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(blob + b"\x00")

    def test_unknown_layer_kind(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        blob[12] = 7  # first layer kind byte
        with pytest.raises(CheckpointError, match="^conv1 kind or dimensions differ"):
            load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("conv1_shape, paddings", [
        ((8, 3, 3, 3), (0, 1, 1)),
        ((8, 3, 3, 3), (2, 1, 1)),
        ((8, 3, 5, 5), (2, 1, 1)),
        ((8, 3, 3, 3), (3, 0, 1)),
    ], ids=["pad0", "pad2", "5x5_pad2", "pads_3_0_1"])
    def test_checkpoint_off_the_layer_table_is_rejected(self, conv1_shape, paddings):
        # conv1 padding 0 or 2 pools to 15x15 or 17x17 maps, which conv2's
        # output cannot tile with the 2x2 pool; a 5x5 conv1 with padding 2,
        # or paddings 3, 0 and 1, chain to fc1's 512 inputs all the same
        assert _raw_checkpoint() == save_checkpoint(init_params(0))
        with pytest.raises(CheckpointError, match="conv1 kind or dimensions"):
            load_checkpoint(_raw_checkpoint(conv1_shape, paddings))


class TestTensorOwnership:
    """A layer's tensors are read-only, and no caller can write to them
    through an array it passed in; checkpoint tensors skip that copy."""

    def test_writable_input_is_copied(self):
        weights, bias = np.ones((2, 3)), np.zeros(2)
        layer = FcLayerParams(weights, bias)
        weights[0, 0], bias[1] = 5.0, 7.0
        assert layer.weights[0, 0] == 1.0 and layer.bias[1] == 0.0
        assert not layer.weights.flags.writeable and not layer.bias.flags.writeable

    def test_read_only_view_of_writable_array_is_copied(self):
        weights = np.ones((2, 3))
        view = weights.view()
        view.setflags(write=False)
        layer = FcLayerParams(view, np.zeros(2))
        assert not np.shares_memory(layer.weights, weights)
        weights[0, 0] = 5.0
        assert layer.weights[0, 0] == 1.0

    def test_read_only_view_of_bytes_is_kept(self):
        frozen = np.frombuffer(np.ones(6).tobytes()).reshape(2, 3)
        layer = FcLayerParams(frozen[:1], np.frombuffer(np.zeros(1).tobytes()))
        assert np.shares_memory(layer.weights, frozen)
        # the same values over a writable buffer are copied
        data = bytearray(np.ones(3).tobytes())
        over = np.frombuffer(data).reshape(1, 3)
        over.setflags(write=False)
        assert not np.shares_memory(FcLayerParams(over, np.zeros(1)).weights, over)

    def test_read_only_array_owning_its_memory_is_copied(self):
        """Its owner can make it writable again, so it is no frozen buffer."""
        weights = np.ones((2, 3))
        weights.setflags(write=False)
        layer = FcLayerParams(weights, np.zeros(2))
        assert not np.shares_memory(layer.weights, weights)
        weights.setflags(write=True)
        weights[0, 0] = 5.0
        assert layer.weights[0, 0] == 1.0

    def test_checkpoint_tensors_are_read_only_views_of_one_buffer(self):
        blob = bytearray(save_checkpoint(init_params(0)))
        params = load_checkpoint(blob)
        bases = {id(tensor.base) for _, tensor in params.tensors()}
        assert len(bases) == 1
        for name, tensor in params.tensors():
            assert not tensor.flags.writeable, name
            assert tensor.dtype == np.float64 and tensor.flags.c_contiguous, name
            assert tensor.flags.aligned, name
            with pytest.raises(ValueError):
                tensor.setflags(write=True)
        blob[100:108] = np.float64(9.0).tobytes()  # the caller's bytes change...
        assert save_checkpoint(params) == save_checkpoint(init_params(0))  # ...not the params

    def test_non_finite_tensor_is_named_before_a_later_fault(self):
        """A NaN in fc2's weights names fc2, also when the stream is cut
        short or carries a bad header after it, as when each layer was
        built as it was read."""
        blob = bytearray(save_checkpoint(init_params(0)))
        fc2 = _tensor_offset("fc2")
        blob[fc2 : fc2 + 8] = np.float64(np.nan).tobytes()
        fc3 = _tensor_offset("fc3") - 9  # fc3's header
        for bad in (blob, blob[:-1], blob[:fc3] + b"\x07" + blob[fc3 + 1 :]):
            with pytest.raises(CheckpointError, match="^fc2: weights contains non-finite values$"):
                load_checkpoint(bytes(bad))
        blob[fc3] = 7
        blob[fc2 : fc2 + 8] = np.float64(0.0).tobytes()
        with pytest.raises(CheckpointError, match="^fc3 kind or dimensions differ"):
            load_checkpoint(bytes(blob))


def _tensor_offset(layer: str) -> int:
    """Where `layer`'s weights start in a checkpoint."""
    pos = 12
    for name, kind, shape in net.LAYER_TABLE:
        pos += 21 if kind is ConvLayerParams else 9
        if name == layer:
            return pos
        pos += 8 * (math.prod(shape) + shape[0])
    raise KeyError(layer)


class TestParamValidation:
    def test_class_name_count_must_match_output_width(self):
        params = init_params(0)
        assert params.class_names == CLASS_NAMES
        tensors = dict(params.tensors())
        narrow = {
            "fc3.weights": tensors["fc3.weights"][:5],
            "fc3.bias": tensors["fc3.bias"][:5],
        }
        with pytest.raises(ShapeError, match=r"fc3 weights have shape \(5, 32\)"):
            params.replace_tensors({**tensors, **narrow})

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            FcLayerParams(np.array([[np.nan]]), np.zeros(1))

    def test_bias_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ConvLayerParams(np.ones((2, 1, 3, 3)), np.zeros(3))
