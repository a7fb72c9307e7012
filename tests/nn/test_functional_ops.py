"""Activations, pooling, normalisation, softmax, concat, upsample."""

import math

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestActivations:
    def test_relu_values_and_grad(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = F.relu(x)
        np.testing.assert_allclose(out.data, [0, 0, 2])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0, 0, 1])

    def test_leaky_relu_negative_slope(self):
        x = Tensor([-2.0, 2.0])
        np.testing.assert_allclose(F.leaky_relu(x, 0.1).data, [-0.2, 2.0], rtol=1e-6)

    def test_sigmoid_range_and_symmetry(self):
        x = Tensor(np.linspace(-5, 5, 11).astype(np.float32))
        out = F.sigmoid(x).data
        assert np.all((out > 0) & (out < 1))
        np.testing.assert_allclose(out + out[::-1], np.ones(11), rtol=1e-5)

    def test_silu_matches_definition(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        expected = x / (1 + np.exp(-x))
        np.testing.assert_allclose(F.silu(Tensor(x)).data, expected, rtol=1e-5)

    def test_silu_gradient_numeric(self):
        x = Tensor([0.7], requires_grad=True)
        F.silu(x).sum().backward()
        eps = 1e-3
        numeric = (F.silu(Tensor([0.7 + eps])).data - F.silu(Tensor([0.7 - eps])).data) / (2 * eps)
        assert abs(numeric[0] - x.grad[0]) < 1e-3

    def test_gelu_tanh_close_to_exact(self):
        x = np.linspace(-3, 3, 13).astype(np.float32)
        exact = np.array([v * 0.5 * (1 + math.erf(v / math.sqrt(2))) for v in x])
        np.testing.assert_allclose(F.gelu(Tensor(x)).data, exact, atol=2e-2)

    def test_hardswish_boundaries(self):
        x = Tensor([-4.0, 0.0, 4.0])
        np.testing.assert_allclose(F.hardswish(x).data, [0.0, 0.0, 4.0], atol=1e-6)

    def test_tanh_gradient(self):
        x = Tensor([0.3], requires_grad=True)
        F.tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, [1 - np.tanh(0.3) ** 2], rtol=1e-5)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        out = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_invariant_to_constant_shift(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(Tensor(x)).data, F.softmax(Tensor(x + 100)).data,
                                   rtol=1e-4, atol=1e-5)

    def test_softmax_gradient_sums_to_zero(self, rng):
        x = Tensor(rng.standard_normal((1, 5)).astype(np.float32), requires_grad=True)
        out = F.softmax(x)
        out[0, 2].backward()
        assert abs(x.grad.sum()) < 1e-5


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_goes_to_max(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad[0, 0, 1, 1] == 1.0
        assert x.grad[0, 0, 0, 0] == 0.0
        assert x.grad.sum() == 4.0

    def test_max_pool_stride_one_with_padding_keeps_size(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        out = F.max_pool2d(x, 5, stride=1, padding=2)
        assert out.shape == (1, 2, 8, 8)

    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((1, 1, 4, 4), 2, None, 0),
        ((2, 3, 5, 7), 3, 2, 1),
        ((1, 2, 6, 6), 3, 1, 1),
        ((1, 1, 7, 5), (3, 2), (2, 1), (1, 0)),
        ((1, 2, 5, 5), 5, 1, 2),
        ((1, 1, 9, 9), 5, 3, 0),
        ((1, 1, 3, 3), 3, 1, 1),
    ])
    def test_max_pool_matches_the_window_loop(self, rng, shape, kernel, stride, padding):
        """Forward: the max of each window, padding never winning.  Backward: each
        window's gradient goes to its (first) max, summed where windows overlap."""
        kh, kw = F._pair(kernel)
        sh, sw = F._pair(stride if stride is not None else kernel)
        ph, pw = F._pair(padding)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        out = F.max_pool2d(x, kernel, stride=stride, padding=padding)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(upstream)

        padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
        out_h = (shape[2] + 2 * ph - kh) // sh + 1
        out_w = (shape[3] + 2 * pw - kw) // sw + 1
        expected = np.empty(shape[:2] + (out_h, out_w), dtype=np.float32)
        grad = np.zeros(padded.shape, dtype=np.float64)
        for n, c, i, j in np.ndindex(*expected.shape):
            window = padded[n, c, i * sh:i * sh + kh, j * sw:j * sw + kw]
            dy, dx = np.unravel_index(np.argmax(window), window.shape)
            expected[n, c, i, j] = window[dy, dx]
            grad[n, c, i * sh + dy, j * sw + dx] += upstream[n, c, i, j]
        assert np.array_equal(out.data, expected)
        np.testing.assert_allclose(x.grad, grad[:, :, ph:ph + shape[2], pw:pw + shape[3]],
                                   rtol=1e-6, atol=1e-6)



class TestNormalisation:
    def test_batch_norm_training_normalises(self, rng):
        x = Tensor(rng.standard_normal((8, 4, 6, 6)).astype(np.float32) * 3 + 2)
        gamma = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        running_mean = np.zeros(4, dtype=np.float32)
        running_var = np.ones(4, dtype=np.float32)
        out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=True)
        assert abs(out.data.mean()) < 1e-2
        assert abs(out.data.std() - 1.0) < 1e-1
        # Running statistics moved towards the batch statistics.
        assert np.all(running_mean != 0)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        running_mean = np.zeros(3, dtype=np.float32)
        running_var = np.ones(3, dtype=np.float32)
        out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=False)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-3, atol=1e-3)

    def test_layer_norm_last_axis(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        gamma = Tensor(np.ones(8, dtype=np.float32))
        beta = Tensor(np.zeros(8, dtype=np.float32))
        out = F.layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros((2, 5)), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones((2, 5)), atol=1e-2)


class TestMergeAndResize:
    def test_concat_and_backward_split(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 5, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (1, 7, 3, 3)
        out.sum().backward()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape

    def test_upsample_nearest_repeats(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32), requires_grad=True)
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == out.data[0, 0, 1, 1] == 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_flatten(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        assert F.flatten(x).shape == (2, 48)
