"""YOLOv5 object detector (v6-style architecture) built on the numpy substrate.

The model mirrors the ultralytics YOLOv5 layout: CSPDarknet backbone (Conv / C3 /
SPPF), PANet neck, and a three-scale Detect head.  The ``depth_multiple`` /
``width_multiple`` pair selects the n/s/m/l variants; the paper prunes YOLOv5s
(width 0.50, depth 0.33, ~7.0 M parameters with the 3 KITTI classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.detection.anchors import YOLOV5_ANCHORS, YOLOV5_STRIDES
from repro.models.blocks.csp import C3, SPPF, ConvBNAct
from repro.nn import functional as F
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.upsample import Upsample
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


@dataclass
class YoloV5Config:
    """Architecture hyper-parameters of a YOLOv5 variant."""

    num_classes: int = 3
    depth_multiple: float = 0.33
    width_multiple: float = 0.50
    image_size: int = 640
    anchors: Tuple[Tuple[Tuple[float, float], ...], ...] = YOLOV5_ANCHORS
    strides: Tuple[int, ...] = YOLOV5_STRIDES
    seed: int = 7

    @property
    def num_anchors_per_scale(self) -> int:
        return len(self.anchors[0])


# Named variants (depth_multiple, width_multiple) following the official release.
YOLOV5_VARIANTS: Dict[str, Tuple[float, float]] = {
    "n": (0.33, 0.25),
    "s": (0.33, 0.50),
    "m": (0.67, 0.75),
    "l": (1.00, 1.00),
}


def _scale_channels(channels: int, width_multiple: float, divisor: int = 8) -> int:
    """Scale and round channel counts to a multiple of ``divisor`` (ultralytics rule)."""
    return max(int(round(channels * width_multiple / divisor)) * divisor, divisor)


def _scale_depth(depth: int, depth_multiple: float) -> int:
    return max(int(round(depth * depth_multiple)), 1)


class DetectHead(Module):
    """YOLOv5 Detect head: one 1x1 convolution per detection scale."""

    def __init__(self, in_channels: Sequence[int], num_classes: int, num_anchors: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_classes = int(num_classes)
        self.num_anchors = int(num_anchors)
        self.out_channels = num_anchors * (num_classes + 5)
        self.heads = ModuleList([
            Conv2d(c, self.out_channels, 1, 1, 0, rng=rng) for c in in_channels
        ])

    def forward(self, features: Sequence[Tensor]) -> List[Tensor]:
        return [head(feature) for head, feature in zip(self.heads, features)]


class YoloV5(Module):
    """YOLOv5 detector returning raw multi-scale head outputs.

    The forward pass returns a list of three tensors, one per stride (8, 16, 32),
    each of shape ``(B, A*(5+C), H_s, W_s)``.  Decoding to boxes is done by
    :func:`repro.detection.postprocess.decode_yolo_single_scale` per scale.
    """

    def __init__(self, config: Optional[YoloV5Config] = None) -> None:
        super().__init__()
        self.config = config or YoloV5Config()
        cfg = self.config
        rng = spawn_rng("yolov5", cfg.seed)

        def ch(base: int) -> int:
            return _scale_channels(base, cfg.width_multiple)

        def depth(base: int) -> int:
            return _scale_depth(base, cfg.depth_multiple)

        # ----------------------------------------------------------------- backbone
        self.stem = ConvBNAct(3, ch(64), 6, 2, 2, rng=rng)                 # P1/2
        self.down1 = ConvBNAct(ch(64), ch(128), 3, 2, rng=rng)             # P2/4
        self.c3_1 = C3(ch(128), ch(128), depth(3), rng=rng)
        self.down2 = ConvBNAct(ch(128), ch(256), 3, 2, rng=rng)            # P3/8
        self.c3_2 = C3(ch(256), ch(256), depth(6), rng=rng)
        self.down3 = ConvBNAct(ch(256), ch(512), 3, 2, rng=rng)            # P4/16
        self.c3_3 = C3(ch(512), ch(512), depth(9), rng=rng)
        self.down4 = ConvBNAct(ch(512), ch(1024), 3, 2, rng=rng)           # P5/32
        self.c3_4 = C3(ch(1024), ch(1024), depth(3), rng=rng)
        self.sppf = SPPF(ch(1024), ch(1024), 5, rng=rng)

        # ----------------------------------------------------------------- PAN neck
        # Concatenation inputs are expressed as sums of the actual branch widths so
        # the architecture stays consistent for any width_multiple (channel rounding
        # can make ch(1024) != 2 * ch(512)).
        self.neck_reduce_p5 = ConvBNAct(ch(1024), ch(512), 1, 1, rng=rng)
        self.upsample = Upsample(2)
        self.neck_c3_p4 = C3(ch(512) * 2, ch(512), depth(3), shortcut=False, rng=rng)
        self.neck_reduce_p4 = ConvBNAct(ch(512), ch(256), 1, 1, rng=rng)
        self.neck_c3_p3 = C3(ch(256) * 2, ch(256), depth(3), shortcut=False, rng=rng)
        self.neck_down_p3 = ConvBNAct(ch(256), ch(256), 3, 2, rng=rng)
        self.neck_c3_n4 = C3(ch(256) * 2, ch(512), depth(3), shortcut=False, rng=rng)
        self.neck_down_p4 = ConvBNAct(ch(512), ch(512), 3, 2, rng=rng)
        self.neck_c3_n5 = C3(ch(512) * 2, ch(1024), depth(3), shortcut=False, rng=rng)

        # ----------------------------------------------------------------- head
        self.detect = DetectHead(
            (ch(256), ch(512), ch(1024)),
            cfg.num_classes,
            cfg.num_anchors_per_scale,
            rng=rng,
        )
        self.feature_channels = (ch(256), ch(512), ch(1024))

    # ------------------------------------------------------------------ forward
    def forward(self, x: Tensor) -> List[Tensor]:
        x = self.stem(x)
        x = self.down1(x)
        x = self.c3_1(x)
        x = self.down2(x)
        p3 = self.c3_2(x)
        x = self.down3(p3)
        p4 = self.c3_3(x)
        x = self.down4(p4)
        x = self.c3_4(x)
        p5 = self.sppf(x)

        # Top-down path.
        reduced_p5 = self.neck_reduce_p5(p5)
        up_p5 = self.upsample(reduced_p5)
        merged_p4 = self.neck_c3_p4(F.concat([up_p5, p4], axis=1))
        reduced_p4 = self.neck_reduce_p4(merged_p4)
        up_p4 = self.upsample(reduced_p4)
        out_p3 = self.neck_c3_p3(F.concat([up_p4, p3], axis=1))

        # Bottom-up path.
        down_p3 = self.neck_down_p3(out_p3)
        out_p4 = self.neck_c3_n4(F.concat([down_p3, reduced_p4], axis=1))
        down_p4 = self.neck_down_p4(out_p4)
        out_p5 = self.neck_c3_n5(F.concat([down_p4, reduced_p5], axis=1))

        return self.detect([out_p3, out_p4, out_p5])

    # ------------------------------------------------------------------ metadata
    def describe(self) -> Dict[str, float]:
        """Summary used by the model zoo and the motivation experiment."""
        total = self.num_parameters()
        return {
            "name": "YOLOv5",
            "parameters": total,
            "parameters_millions": total / 1e6,
            "num_classes": self.config.num_classes,
            "image_size": self.config.image_size,
        }


def build_yolov5(variant: str = "s", num_classes: int = 3, image_size: int = 640,
                 seed: int = 7) -> YoloV5:
    """Build a named YOLOv5 variant ('n', 's', 'm' or 'l')."""
    if variant not in YOLOV5_VARIANTS:
        raise ValueError(f"unknown YOLOv5 variant {variant!r}; choose from {sorted(YOLOV5_VARIANTS)}")
    depth_multiple, width_multiple = YOLOV5_VARIANTS[variant]
    config = YoloV5Config(
        num_classes=num_classes,
        depth_multiple=depth_multiple,
        width_multiple=width_multiple,
        image_size=image_size,
        seed=seed,
    )
    return YoloV5(config)


def yolov5s(num_classes: int = 3, image_size: int = 640) -> YoloV5:
    """The YOLOv5s variant evaluated throughout the paper (~7.0 M parameters)."""
    return build_yolov5("s", num_classes=num_classes, image_size=image_size)


def yolov5n(num_classes: int = 3, image_size: int = 64) -> YoloV5:
    """The nano variant — used by fast tests and examples."""
    return build_yolov5("n", num_classes=num_classes, image_size=image_size)
