"""Network math: hand-checked values, naive oracles, and serialization."""

import math
import struct

import numpy as np
import pytest

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
