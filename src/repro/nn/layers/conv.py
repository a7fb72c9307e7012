"""Convolution layers.

``Conv2d`` is the unit the whole pruning framework operates on: R-TOSS classifies
every Conv2d by kernel size (3x3 pattern pruning, 1x1 transformation, other sizes
left dense) and stores the selected pattern masks on the layer itself so that
fine-tuning and sparsity accounting can see them.

The stored masks are also what the pattern-aware execution engine
(:mod:`repro.engine`) compiles: :meth:`Conv2d.keep_mask` exposes the effective
keep-mask the engine applies to the weight matrix of each plan.  The engine
never rewires the layer: :meth:`Conv2d.forward` below stays the dense autograd
path, and the oracle the engine is tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Conv2d(Module):
    """2-D convolution over NCHW input.

    Parameters
    ----------
    in_channels, out_channels:
        Channel fan-in / fan-out.
    kernel_size, stride, padding:
        Usual convolution hyper-parameters (square kernels supported via int,
        rectangular via tuple).
    bias:
        Whether to add a learnable per-output-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple = 3,
        stride: int | tuple = 1,
        padding: int | tuple | None = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        kh, kw = F._pair(kernel_size)
        if padding is None:
            # "same" padding for odd kernels at stride 1 (the YOLO convention).
            padding = (kh // 2, kw // 2)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)

        weight_shape = (out_channels, in_channels, kh, kw)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng), name="weight")
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")
        else:
            self.bias = None

        # Pruning bookkeeping: a {param_name: bool mask} dict managed by repro.core.masks.
        self.pruning_masks: dict = {}

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
        )

    # ------------------------------------------------------------------ helpers
    @property
    def is_pointwise(self) -> bool:
        """True for 1x1 convolutions (the target of Algorithm 3)."""
        return self.kernel_size == (1, 1)

    @property
    def is_spatial_3x3(self) -> bool:
        """True for 3x3 convolutions (the target of Algorithm 2)."""
        return self.kernel_size == (3, 3)

    def weight_sparsity(self) -> float:
        """Fraction of zero entries in the weight tensor."""
        total = self.weight.size
        return 1.0 - (np.count_nonzero(self.weight.data) / total) if total else 0.0

    def keep_mask(self) -> np.ndarray:
        """Effective boolean keep-mask of the weight tensor.

        When a pruner has registered a mask (via :meth:`repro.core.masks.MaskSet.apply`)
        that mask is returned; otherwise the non-zero map of the weights is used, so
        an unpruned layer reports an all-ones mask.  The execution engine
        (:mod:`repro.engine`) applies this mask to each plan's weight matrix.
        """
        mask = self.pruning_masks.get("weight")
        if mask is not None:
            return np.asarray(mask, dtype=bool)
        return self.weight.data != 0.0

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, "
            f"bias={self.bias is not None}"
        )

