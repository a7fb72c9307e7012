"""Functional neural-network primitives (forward + backward).

Every function accepts and returns :class:`repro.nn.tensor.Tensor` objects and wires
the operation into the autograd tape.  Convolution is implemented with im2col so both
the forward pass and the weight/input gradients reduce to large matrix multiplies,
which is the only way to get acceptable throughput out of pure numpy.  The columns
are one copy of a strided window view (the way the fused engine gathers them) and the
input gradient is one strided slice-add per kernel tap; nothing is cached between
calls, so the module holds no state.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


# --------------------------------------------------------------------------- im2col
def _output_hw(
    op: str,
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """Output height and width of a sliding-window ``op`` over an NCHW input."""
    h, w = x_shape[2], x_shape[3]
    out_h = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
    out_w = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"{op} output would be empty for input {tuple(x_shape)}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out_h, out_w


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Return columns of shape ``(N, C*kh*kw, out_h*out_w)``.

    One copy of a strided window view.  The copy's memory order is
    ``(C*kh*kw, out_h*out_w, N)``, the layout numpy gives a fancy-index gather
    ``x[:, k, i, j]``, so the ``einsum`` calls that consume it sum in the same
    order as over that gather (the reference the tests compare with).
    """
    n, c = x.shape[0], x.shape[1]
    (kh, kw), (sh, sw), (ph, pw), (out_h, out_w) = kernel, stride, padding, out_hw
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    s0, s1, s2, s3 = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, out_h, out_w, n),
        strides=(s1, s2, s3, s2 * sh, s3 * sw, s0),
    ).copy()
    return cols.reshape(c * kh * kw, out_h * out_w, n).transpose(2, 0, 1)


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add columns back to an image of ``x_shape`` (inverse of im2col).

    One strided slice-add per kernel tap, taps in ``(row, column)`` order: each
    pixel sums its contributions in the order a scatter over the flattened
    column index would.
    """
    n, c, h, w = x_shape
    (kh, kw), (sh, sw), (ph, pw), (out_h, out_w) = kernel, stride, padding, out_hw
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    taps = cols.reshape(n, c, kh, kw, out_h, out_w)
    for r in range(kh):
        for s in range(kw):
            padded[:, :, r:r + sh * out_h:sh, s:s + sw * out_w:sw] += taps[:, :, r, s]
    return padded[:, :, ph:ph + h, pw:pw + w]


# --------------------------------------------------------------------------- conv2d
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    stride = _pair(stride)
    padding = _pair(padding)

    n, c_in, h, w = x.shape
    c_out, c_in_weight, kh, kw = weight.shape
    if c_in != c_in_weight:
        raise ValueError(
            f"weight expects {c_in_weight} input channels but input has {c_in}")
    out_h, out_w = _output_hw("conv2d", x.shape, (kh, kw), stride, padding)

    cols = _im2col(x.data, (kh, kw), stride, padding, (out_h, out_w))
    w_mat = weight.data.reshape(c_out, -1)
    out = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)

    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(n, c_out, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_w = np.einsum("nol,nfl->of", grad, cols, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            w_mat = weight.data.reshape(c_out, -1)
            grad_cols = np.einsum("of,nol->nfl", w_mat, grad, optimize=True)
            grad_x = _col2im(grad_cols, x.shape, (kh, kw), stride, padding, (out_h, out_w))
            x._accumulate(grad_x)

    return Tensor._make(out.astype(np.float32), parents, backward)


# --------------------------------------------------------------------------- linear
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    x = as_tensor(x)
    out = x @ Tensor._make(weight.data.T, (weight,), lambda g: weight._accumulate(g.T))
    if bias is not None:
        out = out + bias
    return out


# --------------------------------------------------------------------------- norm
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.03,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel dimension of NCHW input.

    ``running_mean``/``running_var`` are plain arrays owned by the calling module and
    are updated in place during training (matching the usual framework semantics).
    """
    x = as_tensor(x)
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    mean_b = mean.reshape(1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + eps)
    x_hat = (x.data - mean_b) * inv_std
    out = gamma.data.reshape(1, -1, 1, 1) * x_hat + beta.data.reshape(1, -1, 1, 1)

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, -1, 1, 1)
            if training:
                n_elem = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                grad_xhat = grad * g
                term1 = grad_xhat
                term2 = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
                term3 = x_hat * (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
                del n_elem
                x._accumulate((term1 - term2 - term3) * inv_std)
            else:
                x._accumulate(grad * g * inv_std)

    return Tensor._make(out.astype(np.float32), (x, gamma, beta), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension (used by the DETR transformer)."""
    x = as_tensor(x)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out = gamma.data * x_hat + beta.data

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=tuple(range(grad.ndim - 1))))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        if x.requires_grad:
            d = x.data.shape[-1]
            grad_xhat = grad * gamma.data
            term = (
                grad_xhat
                - grad_xhat.mean(axis=-1, keepdims=True)
                - x_hat * (grad_xhat * x_hat).mean(axis=-1, keepdims=True)
            )
            del d
            x._accumulate(term * inv_std)

    return Tensor._make(out.astype(np.float32), (x, gamma, beta), backward)


# --------------------------------------------------------------------------- activations
def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = (x.data > 0).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.1) -> Tensor:
    x = as_tensor(x)
    slope = np.where(x.data > 0, 1.0, negative_slope).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * slope)

    return Tensor._make(x.data * slope, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return Tensor._make(out.astype(np.float32), (x,), backward)


def silu(x: Tensor) -> Tensor:
    """SiLU / swish, the default activation of YOLOv5."""
    x = as_tensor(x)
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))
    out = x.data * sig

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (sig * (1.0 + x.data * (1.0 - sig))))

    return Tensor._make(out.astype(np.float32), (x,), backward)


def hardswish(x: Tensor) -> Tensor:
    x = as_tensor(x)
    inner = np.clip(x.data + 3.0, 0.0, 6.0)
    out = x.data * inner / 6.0

    def backward(grad: np.ndarray) -> None:
        d_inner = ((x.data > -3.0) & (x.data < 3.0)).astype(x.data.dtype)
        x._accumulate(grad * (inner / 6.0 + x.data * d_inner / 6.0))

    return Tensor._make(out.astype(np.float32), (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU (used by transformer blocks)."""
    x = as_tensor(x)
    c = np.sqrt(2.0 / np.pi).astype(np.float32)
    inner = c * (x.data + 0.044715 * x.data**3)
    tanh = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + tanh)

    def backward(grad: np.ndarray) -> None:
        sech2 = 1.0 - tanh**2
        d_inner = c * (1.0 + 3 * 0.044715 * x.data**2)
        x._accumulate(grad * (0.5 * (1.0 + tanh) + 0.5 * x.data * sech2 * d_inner))

    return Tensor._make(out.astype(np.float32), (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out**2))

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor._make(out.astype(np.float32), (x,), backward)


# --------------------------------------------------------------------------- pooling
def max_pool2d(x: Tensor, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None,
               padding: IntOrPair = 0) -> Tensor:
    """Max pooling over NCHW input."""
    x = as_tensor(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    ph, pw = _pair(padding)

    n, c, h, w = x.shape
    out_h, out_w = _output_hw("max_pool2d", x.shape, (kh, kw), (sh, sw), (ph, pw))
    data = x.data
    if ph or pw:
        data = np.pad(
            data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant",
            constant_values=-np.inf,
        )
    hp, wp = data.shape[2], data.shape[3]

    # Build windows via as_strided for speed; copy to avoid aliasing surprises.
    strides = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw, strides[2], strides[3]),
    )
    windows = windows.reshape(n, c, out_h, out_w, kh * kw)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        grad_padded = np.zeros((n, c, hp, wp), dtype=x.data.dtype)
        ky, kx = np.unravel_index(argmax, (kh, kw))
        oy = np.arange(out_h).reshape(1, 1, out_h, 1) * sh
        ox = np.arange(out_w).reshape(1, 1, 1, out_w) * sw
        rows = (oy + ky).reshape(n, c, -1)
        cols = (ox + kx).reshape(n, c, -1)
        ni = np.arange(n).reshape(n, 1, 1)
        ci = np.arange(c).reshape(1, c, 1)
        np.add.at(grad_padded, (ni, ci, rows, cols), grad.reshape(n, c, -1))
        if ph or pw:
            grad_padded = grad_padded[:, :, ph:hp - ph if ph else hp, pw:wp - pw if pw else wp]
        x._accumulate(grad_padded)

    return Tensor._make(out.astype(np.float32), (x,), backward)


# --------------------------------------------------------------------------- resize / merge
def upsample_nearest2d(x: Tensor, scale_factor: int = 2) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    x = as_tensor(x)
    s = int(scale_factor)
    out = x.data.repeat(s, axis=2).repeat(s, axis=3)
    n, c, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(n, c, h, s, w, s).sum(axis=(3, 5))
        x._accumulate(g)

    return Tensor._make(out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (channel axis by default)."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        offsets = np.cumsum([0] + sizes)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out, tuple(tensors), backward)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    """Flatten all dimensions from ``start_dim`` onwards."""
    shape = x.shape[:start_dim] + (int(np.prod(x.shape[start_dim:])),)
    return x.reshape(*shape)
