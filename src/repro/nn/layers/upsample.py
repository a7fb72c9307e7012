"""Spatial resizing modules."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class Upsample(Module):
    """Nearest-neighbour upsampling by an integer scale factor (YOLO neck)."""

    def __init__(self, scale_factor: int = 2) -> None:
        super().__init__()
        self.scale_factor = int(scale_factor)

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest2d(x, self.scale_factor)

    def extra_repr(self) -> str:
        return f"scale_factor={self.scale_factor}"

