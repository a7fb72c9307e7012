"""CSP-style building blocks shared by the YOLO family models.

The block names and shapes follow the ultralytics YOLOv5 v6 architecture
(ConvBNAct ("Conv"), Bottleneck, C3, SPPF, Focus) so that the layer census and
parameter counts of the constructed models match the real detectors the paper
prunes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers.activation import SiLU, build_activation
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.module import Module, ModuleList, Sequential
from repro.nn.tensor import Tensor


def autopad(kernel_size: int, padding: Optional[int] = None) -> int:
    """'Same' padding for odd kernels (the ultralytics convention)."""
    return kernel_size // 2 if padding is None else padding


class ConvBNAct(Module):
    """Conv2d + BatchNorm2d + activation — the 'Conv' block of YOLOv5."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 1,
                 stride: int = 1, padding: Optional[int] = None,
                 act: str = "silu", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.conv = Conv2d(
            in_channels, out_channels, kernel_size, stride,
            autopad(kernel_size, padding), bias=False, rng=rng,
        )
        self.bn = BatchNorm2d(out_channels)
        self.act = build_activation(act)

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))


class Bottleneck(Module):
    """Standard YOLO bottleneck: 1x1 reduce, 3x3 expand, optional residual add."""

    def __init__(self, in_channels: int, out_channels: int, shortcut: bool = True,
                 expansion: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden = int(out_channels * expansion)
        self.cv1 = ConvBNAct(in_channels, hidden, 1, 1, rng=rng)
        self.cv2 = ConvBNAct(hidden, out_channels, 3, 1, rng=rng)
        self.use_shortcut = shortcut and in_channels == out_channels

    def forward(self, x: Tensor) -> Tensor:
        out = self.cv2(self.cv1(x))
        if self.use_shortcut:
            return x + out
        return out


class C3(Module):
    """CSP bottleneck with three 1x1 convolutions (YOLOv5's workhorse block)."""

    def __init__(self, in_channels: int, out_channels: int, depth: int = 1,
                 shortcut: bool = True, expansion: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden = int(out_channels * expansion)
        self.cv1 = ConvBNAct(in_channels, hidden, 1, 1, rng=rng)
        self.cv2 = ConvBNAct(in_channels, hidden, 1, 1, rng=rng)
        self.cv3 = ConvBNAct(2 * hidden, out_channels, 1, 1, rng=rng)
        self.m = Sequential(*[
            Bottleneck(hidden, hidden, shortcut, expansion=1.0, rng=rng)
            for _ in range(depth)
        ])

    def forward(self, x: Tensor) -> Tensor:
        left = self.m(self.cv1(x))
        right = self.cv2(x)
        return self.cv3(F.concat([left, right], axis=1))


class SPPF(Module):
    """Spatial pyramid pooling (fast) — three chained max-pools concatenated."""

    def __init__(self, in_channels: int, out_channels: int, pool_size: int = 5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden = in_channels // 2
        self.cv1 = ConvBNAct(in_channels, hidden, 1, 1, rng=rng)
        self.cv2 = ConvBNAct(hidden * 4, out_channels, 1, 1, rng=rng)
        self.pool = MaxPool2d(pool_size, stride=1, padding=pool_size // 2)

    def forward(self, x: Tensor) -> Tensor:
        x = self.cv1(x)
        y1 = self.pool(x)
        y2 = self.pool(y1)
        y3 = self.pool(y2)
        return self.cv2(F.concat([x, y1, y2, y3], axis=1))


class Focus(Module):
    """Space-to-depth stem used by earlier YOLOv5 releases.

    Kept in the block catalogue because some model variants (YOLOR) still use it;
    it slices the image into 4 pixel-phase sub-images and concatenates them.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.conv = ConvBNAct(in_channels * 4, out_channels, kernel_size, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        patches = [
            x[:, :, ::2, ::2],
            x[:, :, 1::2, ::2],
            x[:, :, ::2, 1::2],
            x[:, :, 1::2, 1::2],
        ]
        return self.conv(F.concat(patches, axis=1))
