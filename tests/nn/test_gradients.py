"""Every differentiable op on the autograd tape against central differences.

One table row per op (and per stride / padding / axis variant that takes a
different backward branch).  A row builds its inputs and a function of them; the
test weights the output with a fixed random tensor, runs ``backward`` once and
compares the gradient of *every* input entry with the central difference of the
same weighted sum.  Inputs keep clear of the ops' kinks (ReLU at 0, hardswish at
±3, clip at its bounds, ties in max and max-pool) so the one-sided slopes agree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

EPS = 1e-2

Case = Tuple[Callable[..., Tensor], List[np.ndarray]]


def _normal(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


def _off_zero(rng, *shape) -> np.ndarray:
    """Entries in ±[0.2, 1.5]: at least 20 steps of ``EPS`` away from 0."""
    magnitude = rng.uniform(0.2, 1.5, size=shape)
    return (magnitude * rng.choice([-1.0, 1.0], size=shape)).astype(np.float32)


def _distinct(rng, *shape) -> np.ndarray:
    """A shuffled ladder of values 0.1 apart, so no max is within ``EPS`` of a tie."""
    return (rng.permutation(int(np.prod(shape))).reshape(shape) * 0.1 - 1.0).astype(np.float32)


def _positive(rng, *shape) -> np.ndarray:
    return rng.uniform(0.5, 2.0, size=shape).astype(np.float32)


def _batch_norm(training: bool) -> Callable[[np.random.Generator], Case]:
    def build(rng) -> Case:
        running_var = rng.uniform(0.5, 2.0, size=3)

        def fn(x, gamma, beta):
            # Fresh running statistics per call: training updates them in place.
            return F.batch_norm2d(x, gamma, beta, np.zeros(3), running_var.copy(),
                                  training=training)

        return fn, [_normal(rng, 2, 3, 3, 3), _normal(rng, 3), _normal(rng, 3)]

    return build


def _conv(stride, padding, kernel=(3, 3), bias=True) -> Callable[[np.random.Generator], Case]:
    def build(rng) -> Case:
        arrays = [_normal(rng, 2, 3, 5, 6), _normal(rng, 4, 3, *kernel)]
        if bias:
            arrays.append(_normal(rng, 4))
        return (lambda x, w, b=None: F.conv2d(x, w, b, stride=stride, padding=padding)), arrays

    return build


CASES: Dict[str, Callable[[np.random.Generator], Case]] = {
    # Tensor arithmetic, with the broadcasting operand's gradient summed back.
    "add_broadcast": lambda rng: (lambda a, b: a + b, [_normal(rng, 3, 4), _normal(rng, 4)]),
    "sub_broadcast": lambda rng: (lambda a, b: a - b, [_normal(rng, 3, 4), _normal(rng, 3, 1)]),
    "mul_broadcast": lambda rng: (lambda a, b: a * b, [_normal(rng, 2, 3, 4), _normal(rng, 3, 1)]),
    "div": lambda rng: (lambda a, b: a / b, [_normal(rng, 3, 4), _positive(rng, 3, 4)]),
    "neg": lambda rng: (lambda a: -a, [_normal(rng, 5)]),
    "rsub_scalar": lambda rng: (lambda a: 2.0 - a, [_normal(rng, 5)]),
    "rtruediv_scalar": lambda rng: (lambda a: 3.0 / a, [_positive(rng, 5)]),
    "pow": lambda rng: (lambda a: a ** 3, [_normal(rng, 2, 3)]),
    "matmul": lambda rng: (lambda a, b: a @ b, [_normal(rng, 3, 4), _normal(rng, 4, 2)]),
    "matmul_batched": lambda rng: (lambda a, b: a @ b,
                                   [_normal(rng, 2, 3, 4), _normal(rng, 2, 4, 2)]),
    # Shape ops.
    "reshape": lambda rng: (lambda a: a.reshape(3, 4) * a.reshape(3, 4), [_normal(rng, 2, 6)]),
    "transpose": lambda rng: (lambda a: a.transpose(2, 0, 1), [_normal(rng, 2, 3, 4)]),
    "getitem_slice": lambda rng: (lambda a: a[1:, ::2], [_normal(rng, 3, 5)]),
    "getitem_repeated_index": lambda rng: (lambda a: a[np.array([0, 2, 0])], [_normal(rng, 3, 2)]),
    # Reductions.
    "sum_axis": lambda rng: (lambda a: a.sum(axis=1), [_normal(rng, 3, 4)]),
    "sum_keepdims": lambda rng: (lambda a: a.sum(axis=0, keepdims=True), [_normal(rng, 3, 4)]),
    "mean_axis": lambda rng: (lambda a: a.mean(axis=-1), [_normal(rng, 3, 4)]),
    "mean_all": lambda rng: (lambda a: a.mean(), [_normal(rng, 3, 4)]),
    "max_axis": lambda rng: (lambda a: a.max(axis=1), [_distinct(rng, 3, 4)]),
    "max_all": lambda rng: (lambda a: a.max(), [_distinct(rng, 3, 4)]),
    # Elementwise math.
    "exp": lambda rng: (lambda a: a.exp(), [_normal(rng, 6)]),
    "log": lambda rng: (lambda a: a.log(), [_positive(rng, 6)]),
    "sqrt": lambda rng: (lambda a: a.sqrt(), [_positive(rng, 6)]),
    "abs": lambda rng: (lambda a: a.abs(), [_off_zero(rng, 6)]),
    "clip": lambda rng: (lambda a: (a * 0.25).clip(-0.125, 0.125),
                         [np.array([-1.0, -0.3, 0.1, 0.3, 1.0, -0.1], dtype=np.float32)]),
    # Layers.
    "linear": lambda rng: (F.linear, [_normal(rng, 3, 4), _normal(rng, 5, 4), _normal(rng, 5)]),
    "conv2d_stride1_pad1": _conv(1, 1),
    "conv2d_stride2_pad1": _conv(2, 1),
    "conv2d_stride1_pad0": _conv(1, 0),
    "conv2d_stride2_pad0_no_bias": _conv(2, 0, bias=False),
    "conv2d_pointwise": _conv(1, 0, kernel=(1, 1)),
    "conv2d_rectangular_kernel": _conv((2, 1), (1, 0), kernel=(3, 2)),
    "batch_norm2d_training": _batch_norm(True),
    "batch_norm2d_eval": _batch_norm(False),
    "layer_norm": lambda rng: (F.layer_norm, [_normal(rng, 2, 3, 5), _normal(rng, 5),
                                              _normal(rng, 5)]),
    # Activations.
    "relu": lambda rng: (F.relu, [_off_zero(rng, 2, 5)]),
    "leaky_relu": lambda rng: (lambda a: F.leaky_relu(a, 0.2), [_off_zero(rng, 2, 5)]),
    "sigmoid": lambda rng: (F.sigmoid, [_normal(rng, 2, 5)]),
    "silu": lambda rng: (F.silu, [_normal(rng, 2, 5)]),
    "hardswish": lambda rng: (F.hardswish, [np.array([-4.0, -2.5, -1.0, 0.5, 2.0, 2.9, 4.0],
                                                     dtype=np.float32)]),
    "gelu": lambda rng: (F.gelu, [_normal(rng, 2, 5)]),
    "tanh": lambda rng: (F.tanh, [_normal(rng, 2, 5)]),
    "softmax_last_axis": lambda rng: (F.softmax, [_normal(rng, 3, 4)]),
    "softmax_channel_axis": lambda rng: (lambda a: F.softmax(a, axis=1), [_normal(rng, 2, 3, 2)]),
    # Pooling, resize and merge.
    "max_pool2d_k2_s2": lambda rng: (lambda a: F.max_pool2d(a, 2), [_distinct(rng, 1, 2, 4, 4)]),
    "max_pool2d_k3_s1_p1": lambda rng: (lambda a: F.max_pool2d(a, 3, stride=1, padding=1),
                                        [_distinct(rng, 1, 2, 4, 4)]),
    "max_pool2d_k5_s1_p2": lambda rng: (lambda a: F.max_pool2d(a, 5, stride=1, padding=2),
                                        [_distinct(rng, 1, 1, 5, 5)]),
    "upsample_nearest2d": lambda rng: (lambda a: F.upsample_nearest2d(a, 2),
                                       [_normal(rng, 1, 2, 2, 3)]),
    "concat_channels": lambda rng: (lambda a, b: F.concat([a, b]),
                                    [_normal(rng, 1, 2, 2, 2), _normal(rng, 1, 3, 2, 2)]),
    "concat_last_axis": lambda rng: (lambda a, b: F.concat([a, b], axis=-1),
                                     [_normal(rng, 2, 3), _normal(rng, 2, 1)]),
    "flatten": lambda rng: (lambda a: F.flatten(a) * F.flatten(a), [_normal(rng, 2, 2, 3)]),
    # A chain through several ops, so gradients meet and add on the tape.
    "conv_bn_silu_chain": lambda rng: (
        lambda x, w: F.silu(F.batch_norm2d(F.conv2d(x, w, padding=1), Tensor(np.ones(2)),
                                           Tensor(np.zeros(2)), np.zeros(2), np.ones(2),
                                           training=True)) + x[:, :2],
        [_normal(rng, 2, 3, 4, 4), _normal(rng, 2, 3, 3, 3)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_autograd_matches_central_differences(name):
    rng = np.random.default_rng(0)
    fn, arrays = CASES[name](rng)
    inputs = [Tensor(array, requires_grad=True) for array in arrays]
    out = fn(*inputs)
    weights = rng.standard_normal(out.shape)
    (out * Tensor(weights)).sum().backward()

    def weighted_sum() -> float:
        with no_grad():
            return float((fn(*inputs).data.astype(np.float64) * weights).sum())

    for position, tensor in enumerate(inputs):
        assert tensor.grad is not None and tensor.grad.shape == tensor.shape, position
        numeric = np.empty(tensor.shape)
        for index in np.ndindex(*tensor.shape):
            original = tensor.data[index]
            tensor.data[index] = original + EPS
            upper = weighted_sum()
            tensor.data[index] = original - EPS
            lower = weighted_sum()
            tensor.data[index] = original
            numeric[index] = (upper - lower) / (2 * EPS)
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-2, atol=2e-3,
                                   err_msg=f"{name}: input {position}")
