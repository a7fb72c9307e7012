"""Normalisation layers."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class BatchNorm2d(Module):
    """Batch normalisation over NCHW channels.

    The learnable scale ``gamma`` is what Network Slimming (one of the compared
    baselines) uses as its channel-importance score, so it is exposed by name.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.03) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(np.ones(num_features, dtype=np.float32), name="weight")
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def fold_params(self) -> tuple:
        """Per-channel ``(scale, shift)`` of the *eval-mode* affine form.

        Evaluation-time batch norm is a per-channel affine map::

            y = gamma * (x - mean) / sqrt(var + eps) + beta = scale * x + shift

        The execution engine's fusion pass (:mod:`repro.engine.fuse`) folds
        ``scale`` into the packed weight matrix of the preceding convolution
        and ``shift`` into its bias, eliminating the BatchNorm op entirely;
        stand-alone BN ops execute the same two-term form directly.  Computed
        in float64 so the folded float32 weights round once, not twice.
        """
        inv_std = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
        scale = self.weight.data.astype(np.float64) * inv_std
        shift = (self.bias.data.astype(np.float64)
                 - self.running_mean.astype(np.float64) * scale)
        return scale, shift

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer blocks)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = float(eps)
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32), name="weight")
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def extra_repr(self) -> str:
        return f"{self.normalized_shape}, eps={self.eps}"

