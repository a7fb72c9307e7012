"""Anchor generation for YOLO-style and RetinaNet-style detectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

# YOLOv5 default anchors (width, height) in pixels per detection scale (P3, P4, P5).
YOLOV5_ANCHORS: Tuple[Tuple[Tuple[float, float], ...], ...] = (
    ((10, 13), (16, 30), (33, 23)),
    ((30, 61), (62, 45), (59, 119)),
    ((116, 90), (156, 198), (373, 326)),
)

# YOLOv5 strides for the three detection scales.
YOLOV5_STRIDES: Tuple[int, ...] = (8, 16, 32)

# RetinaNet pyramid strides (P3..P7).
RETINANET_STRIDES: Tuple[int, ...] = (8, 16, 32, 64, 128)


def grid_centers(feature_height: int, feature_width: int, stride: int) -> np.ndarray:
    """Pixel-space centers of every cell of a feature map, shape (H*W, 2)."""
    ys, xs = np.meshgrid(
        np.arange(feature_height, dtype=np.float32),
        np.arange(feature_width, dtype=np.float32),
        indexing="ij",
    )
    centers = np.stack([(xs + 0.5) * stride, (ys + 0.5) * stride], axis=-1)
    return centers.reshape(-1, 2)


@dataclass
class RetinaAnchorConfig:
    """Anchor configuration of the RetinaNet paper."""

    sizes: Tuple[float, ...] = (32.0, 64.0, 128.0, 256.0, 512.0)
    aspect_ratios: Tuple[float, ...] = (0.5, 1.0, 2.0)
    scales: Tuple[float, ...] = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
    strides: Tuple[int, ...] = RETINANET_STRIDES

    @property
    def num_anchors_per_cell(self) -> int:
        return len(self.aspect_ratios) * len(self.scales)


def retinanet_anchors(image_size: int, config: RetinaAnchorConfig | None = None) -> np.ndarray:
    """All RetinaNet anchors for a square image, as xyxy boxes of shape (N, 4)."""
    config = config or RetinaAnchorConfig()
    all_anchors = []
    for stride, base_size in zip(config.strides, config.sizes):
        fh = fw = max(image_size // stride, 1)
        centers = grid_centers(fh, fw, stride)  # (HW, 2)
        shapes = []
        for ratio in config.aspect_ratios:
            for scale in config.scales:
                area = (base_size * scale) ** 2
                width = np.sqrt(area / ratio)
                height = width * ratio
                shapes.append((width, height))
        shapes = np.asarray(shapes, dtype=np.float32)  # (A, 2)
        centers_rep = np.repeat(centers, shapes.shape[0], axis=0)
        shapes_rep = np.tile(shapes, (centers.shape[0], 1))
        cxcywh = np.concatenate([centers_rep, shapes_rep], axis=1)
        half = shapes_rep / 2.0
        xyxy = np.concatenate([centers_rep - half, centers_rep + half], axis=1)
        del cxcywh
        all_anchors.append(xyxy)
    return np.concatenate(all_anchors, axis=0).astype(np.float32)


def kmeans_anchors(box_sizes: np.ndarray, num_anchors: int = 9, iterations: int = 50,
                   seed: int = 0) -> np.ndarray:
    """Auto-learn anchor shapes from a dataset's box (w, h) statistics.

    This reproduces YOLOv5's "auto-learning bounding box anchors" feature on the
    synthetic dataset.  A 1 - IoU distance k-means over box shapes is used.
    """
    box_sizes = np.asarray(box_sizes, dtype=np.float32).reshape(-1, 2)
    if box_sizes.shape[0] < num_anchors:
        raise ValueError(f"need at least {num_anchors} boxes, got {box_sizes.shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = box_sizes[rng.choice(box_sizes.shape[0], num_anchors, replace=False)].copy()

    def shape_iou(sizes: np.ndarray, cents: np.ndarray) -> np.ndarray:
        inter = np.minimum(sizes[:, None, 0], cents[None, :, 0]) * np.minimum(
            sizes[:, None, 1], cents[None, :, 1]
        )
        union = (sizes[:, 0] * sizes[:, 1])[:, None] + (cents[:, 0] * cents[:, 1])[None, :] - inter
        return inter / np.maximum(union, 1e-9)

    assignment = np.zeros(box_sizes.shape[0], dtype=np.int64)
    for _ in range(iterations):
        distances = 1.0 - shape_iou(box_sizes, centroids)
        new_assignment = distances.argmin(axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in range(num_anchors):
            members = box_sizes[assignment == k]
            if members.shape[0]:
                centroids[k] = members.mean(axis=0)
    # Sort by area so the anchors map naturally onto increasing strides.
    order = np.argsort(centroids[:, 0] * centroids[:, 1])
    return centroids[order]
