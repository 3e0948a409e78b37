"""Reference helpers that several test modules check the package against."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from rcc import net

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

# numpy's dispatch targets with AVX-512 loops; with them disabled, numpy's
# float64 log, float32 sin and cos and the rest take their AVX2 or SSE loops
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
HAS_AVX512 = all(CPU_FEATURES.get(f) for f in AVX512_TARGETS)
_OFF_AVX512_SCRIPT = """
import sys
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as features
assert not any(features[f] for f in sys.argv[1].split()), "AVX-512 loops still enabled"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def round_half_away(values):
    """Round half away from zero (0.5 -> 1, -0.5 -> -1), as float."""
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)


def second_call_peak(call):
    """The tracemalloc peak, in bytes, of a second `call()`: the first, not
    traced, builds what the package caches on first use (the lane jump
    matrices), so the figure is the call's own working set."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_tests(args, tests, env):
    """Run the pytest node ids `tests` in a subprocess of `python args...`
    from the repository root, under the environment `env` added to this
    one; returns its output once it has passed."""
    done = subprocess.run(
        [sys.executable, *args, *tests],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, **env),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def run_tests_off_avx512(tests):
    """`run_tests` with numpy's AVX-512 loops disabled."""
    targets = " ".join(AVX512_TARGETS)
    return run_tests(["-c", _OFF_AVX512_SCRIPT, targets], tests,
                     {"NPY_DISABLE_CPU_FEATURES": targets})


def conv2d_forward(x, p):
    """Cross-correlate one (in_ch, H, W) tensor with the filters of the
    ConvLayerParams `p`: a one-sample view of the batched conv."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise net.ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    return net._conv_batch(x[None], p.filters, p.bias, p.padding)[0]


def maxpool_forward(x, k):
    """Block maxima of one (C, H, W) tensor over k x k blocks, plus each
    block's argmax: a one-sample view of the batched pool."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise net.ShapeError(f"expected (channels, H, W), got shape {x.shape}")
    y, idx = net._pool_batch(x[None], k)
    return y[0], idx[0]


def relu_then_pool_forward(params, x, cache):
    """The logits of `net._forward` with each conv stage's ReLU taken before
    its pool, over the whole batch in one pass; appends to `cache` each
    layer's (input, pre-activation, argmax of the pooled ReLU output)."""
    last = len(params.layers) - 1
    for i, (_, layer) in enumerate(params.layers):
        weight = getattr(layer, layer.weight_name).astype(x.dtype)
        bias = layer.bias.astype(x.dtype)
        if isinstance(layer, net.ConvLayerParams):
            z = net._conv_batch(x, weight, bias, layer.padding)
            y, idx = net._pool_batch(np.maximum(z, 0.0), net.POOL_WINDOW)
        else:
            x = x.reshape(len(x), -1)
            z = net._fc_batch(x, weight, bias)
            y, idx = (np.maximum(z, 0.0) if i < last else z), None
        cache.append((x, z, idx))
        x = y
    return x


def relu_then_pool_backward(params, cache, logits, labels):
    """Mean-loss gradients from `relu_then_pool_forward`'s cache by the
    textbook chain rule: each pool sends dy to its block's argmax, and
    each ReLU masks the result with z > 0 at full size."""
    batch = len(labels)
    dy = net._softmax_batch(logits)
    dy[np.arange(batch), labels] -= 1.0
    dy /= batch
    grads = {}
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        name, layer = params.layers[i]
        x, z, idx = cache[i]
        weight = getattr(layer, layer.weight_name).astype(dy.dtype)
        if isinstance(layer, net.ConvLayerParams):
            da = net._pool_backward_batch(dy.reshape(idx.shape), idx, z.shape, net.POOL_WINDOW)
            d_weight, d_bias, dy = net._conv_backward_batch(
                da * (z > 0), x, weight, layer.padding, input_grad=i > 0
            )
        else:
            if i < last:
                dy = dy * (z > 0)
            d_weight, d_bias = dy.T @ x, dy.sum(axis=0)
            dy = dy @ weight
        grads[f"{name}.{layer.weight_name}"] = d_weight
        grads[f"{name}.bias"] = d_bias
    return grads
