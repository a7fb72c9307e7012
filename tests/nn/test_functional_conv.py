"""Convolution: forward correctness against a naive reference, gradient checks."""

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def naive_conv2d(x, w, bias=None, stride=1, padding=0):
    """Straightforward quadruple-loop convolution used as ground truth."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w_in + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float32)
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_pad[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
            if bias is not None:
                out[b, o] += bias[o]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_pointwise_conv_equals_matmul(self, rng):
        x = rng.standard_normal((1, 5, 4, 4)).astype(np.float32)
        w = rng.standard_normal((7, 5, 1, 1)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_grouped_conv_shapes_and_independence(self, rng):
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=4)
        assert out.shape == (1, 4, 6, 6)
        # Each output channel only depends on its own input channel.
        single = F.conv2d(Tensor(x[:, 1:2]), Tensor(w[1:2]), stride=1, padding=1)
        np.testing.assert_allclose(out.data[:, 1], single.data[:, 0], rtol=1e-4, atol=1e-5)

    def test_rectangular_kernel(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, 1, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=(0, 1))
        assert out.shape == (1, 3, 8, 8)

    def test_empty_output_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w, stride=1, padding=0)

    def test_empty_output_error_names_the_callers_input(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 2, 7, 7)).astype(np.float32))
        message = (r"conv2d output would be empty for input \(1, 2, 3, 3\), "
                   r"kernel \(7, 7\), stride \(1, 1\), padding \(1, 1\)")
        with pytest.raises(ValueError, match=message):
            F.conv2d(x, w, stride=1, padding=1)

    def test_empty_pool_output_error_names_the_pool(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32))
        message = (r"avg_pool2d output would be empty for input \(1, 2, 3, 3\), "
                   r"kernel \(7, 7\), stride \(1, 1\), padding \(1, 1\)")
        with pytest.raises(ValueError, match=message):
            F.avg_pool2d(x, 7, stride=1, padding=1)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestConvBackward:
    def _numeric_vs_autograd(self, rng, stride, padding, groups=1, check="weight"):
        c_in, c_out = 4, 4
        x = Tensor(rng.standard_normal((1, c_in, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal(
            (c_out, c_in // groups, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.conv2d(x, w, stride=stride, padding=padding, groups=groups)
        out.sum().backward()

        target = w if check == "weight" else x
        index = (1, 0, 1, 2) if check == "weight" else (0, 1, 1, 2)
        eps = 1e-2
        original = target.data[index].copy()
        target.data[index] = original + eps
        upper = F.conv2d(x, w, stride=stride, padding=padding, groups=groups).data.sum()
        target.data[index] = original - eps
        lower = F.conv2d(x, w, stride=stride, padding=padding, groups=groups).data.sum()
        target.data[index] = original
        numeric = (upper - lower) / (2 * eps)
        assert abs(numeric - target.grad[index]) < 5e-2

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_weight_gradient(self, rng, stride, padding):
        self._numeric_vs_autograd(rng, stride, padding, check="weight")

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_input_gradient(self, rng, stride, padding):
        self._numeric_vs_autograd(rng, stride, padding, check="input")

    def test_grouped_gradient(self, rng):
        self._numeric_vs_autograd(rng, 1, 1, groups=2, check="weight")

    def test_bias_gradient_is_output_count(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)
        out = F.conv2d(x, w, b, stride=1, padding=1)
        out.sum().backward()
        np.testing.assert_allclose(b.grad, np.full(5, 2 * 4 * 4), rtol=1e-5)

    def test_pruned_weights_get_gradients_too(self, rng):
        """Masked (zeroed) weights still receive gradients — fine-tuning relies on
        re-applying the mask after each step, not on gradients being blocked."""
        x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32), requires_grad=True)
        w.data[0, 0] = 0.0
        F.conv2d(x, w, stride=1, padding=1).sum().backward()
        assert np.abs(w.grad[0, 0]).sum() > 0


class TestIm2col:
    """The strided-window gather and the per-tap scatter: the same bits as the
    fancy-index gather and ``np.add.at`` scatter kept below as references, and
    no state kept between calls."""

    def test_columns_have_the_fancy_index_layout(self, rng):
        x = rng.standard_normal((3, 2, 7, 9)).astype(np.float32)
        args = ((3, 2), (2, 1), (1, 0), F._output_hw("conv2d", x.shape, (3, 2), (2, 1), (1, 0)))
        cols, expected = F._im2col(x, *args), _reference_im2col(x, *args)
        assert cols.strides == expected.strides
        assert np.array_equal(cols, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_conv2d_matches_the_reference_bit_for_bit(self, data):
        kind = data.draw(st.sampled_from(["dense", "depthwise", "grouped"]))
        groups = data.draw({"dense": st.just(1), "depthwise": st.integers(1, 4),
                            "grouped": st.integers(2, 3)}[kind])
        c_in = groups if kind == "depthwise" else groups * data.draw(st.integers(1, 3))
        c_out = groups * data.draw(st.integers(1, 3))
        x, kernel, stride, padding, seed = data.draw(_geometries(c_in))
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((c_out, c_in // groups) + kernel).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)

        def run():
            tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
            out = F.conv2d(*tensors, stride=stride, padding=padding, groups=groups)
            out.backward(np.random.default_rng(seed).standard_normal(out.shape).astype(np.float32))
            return [out.data] + [t.grad for t in tensors]

        _assert_same_bits(run)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_avg_pool2d_matches_the_reference_bit_for_bit(self, data):
        x, kernel, stride, padding, seed = data.draw(_geometries(data.draw(st.integers(1, 4))))

        def run():
            tensor = Tensor(x.copy(), requires_grad=True)
            out = F.avg_pool2d(tensor, kernel, stride=stride, padding=padding)
            out.backward(np.random.default_rng(seed).standard_normal(out.shape).astype(np.float32))
            return [out.data, tensor.grad]

        _assert_same_bits(run)

    def test_new_geometries_retain_no_memory(self, rng):
        """Columns and index arithmetic live for one call: forward + backward
        over 40 geometries this process never ran leave the traced heap flat."""

        def run(size):
            x = Tensor(rng.standard_normal((1, 3, size, size + 1)).astype(np.float32),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((2, 3, 3, 5)).astype(np.float32), requires_grad=True)
            F.conv2d(x, w, stride=1, padding=(1, 2)).sum().backward()

        run(5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for size in range(41, 81):
                run(size)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, f"{retained} bytes retained across new geometries"


def _reference_indices(c, kernel, stride, out_hw):
    """The int64 gather indices of the fancy-index im2col: (channel, row, column)."""
    (kh, kw), (sh, sw), (out_h, out_w) = kernel, stride, out_hw
    i = np.tile(np.repeat(np.arange(kh), kw), c)[:, None] + sh * np.repeat(np.arange(out_h), out_w)
    j = np.tile(np.arange(kw), kh * c)[:, None] + sw * np.tile(np.arange(out_w), out_h)
    k = np.repeat(np.arange(c), kh * kw)[:, None]
    return k, i, j


def _reference_im2col(x, kernel, stride, padding, out_hw):
    (ph, pw) = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    k, i, j = _reference_indices(x.shape[1], kernel, stride, out_hw)
    return padded[:, k, i, j]


def _reference_col2im(cols, x_shape, kernel, stride, padding, out_hw):
    n, c, h, w = x_shape
    (ph, pw) = padding
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    np.add.at(padded, (slice(None),) + _reference_indices(c, kernel, stride, out_hw), cols)
    return padded[:, :, ph:ph + h, pw:pw + w]


@st.composite
def _geometries(draw, channels):
    """(input, kernel, stride, padding, seed) with a non-empty output."""
    kernel = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    h = max(1, kernel[0] - 2 * padding[0]) + draw(st.integers(0, 8))
    w = max(1, kernel[1] - 2 * padding[1]) + draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    x = np.random.default_rng(seed).standard_normal((draw(st.integers(1, 4)), channels, h, w))
    return x.astype(np.float32), kernel, stride, padding, seed


def _assert_same_bits(run):
    """``run()`` gives the same arrays, bit for bit, with the reference gather
    and scatter patched in."""
    got = run()
    with mock.patch.object(F, "_im2col", _reference_im2col), \
            mock.patch.object(F, "_col2im", _reference_col2im):
        expected = run()
    for name, a, b in zip(["out", "x.grad", "w.grad", "b.grad"], got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
