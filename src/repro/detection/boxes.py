"""Bounding-box primitives.

Boxes are plain ``numpy`` arrays.  Two formats are used throughout the library:

* ``xyxy`` — ``(x_min, y_min, x_max, y_max)`` in pixels; the canonical format for
  IoU, NMS and mAP computation.
* ``cxcywh`` — ``(center_x, center_y, width, height)``; the format the YOLO head
  predicts and the synthetic dataset stores targets in.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def cxcywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """Convert (..., 4) boxes from center format to corner format."""
    boxes = np.asarray(boxes, dtype=np.float32)
    out = np.empty_like(boxes)
    half_w = boxes[..., 2] / 2.0
    half_h = boxes[..., 3] / 2.0
    out[..., 0] = boxes[..., 0] - half_w
    out[..., 1] = boxes[..., 1] - half_h
    out[..., 2] = boxes[..., 0] + half_w
    out[..., 3] = boxes[..., 1] + half_h
    return out


def xyxy_to_cxcywh(boxes: np.ndarray) -> np.ndarray:
    """Convert (..., 4) boxes from corner format to center format."""
    boxes = np.asarray(boxes, dtype=np.float32)
    out = np.empty_like(boxes)
    out[..., 0] = (boxes[..., 0] + boxes[..., 2]) / 2.0
    out[..., 1] = (boxes[..., 1] + boxes[..., 3]) / 2.0
    out[..., 2] = boxes[..., 2] - boxes[..., 0]
    out[..., 3] = boxes[..., 3] - boxes[..., 1]
    return out


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Area of (..., 4) xyxy boxes (clamped at zero for degenerate boxes)."""
    boxes = np.asarray(boxes, dtype=np.float32)
    width = np.clip(boxes[..., 2] - boxes[..., 0], 0.0, None)
    height = np.clip(boxes[..., 3] - boxes[..., 1], 0.0, None)
    return width * height


def clip_boxes(boxes: np.ndarray, image_size: Tuple[int, int]) -> np.ndarray:
    """Clip xyxy boxes to an image of (height, width)."""
    height, width = image_size
    boxes = np.asarray(boxes, dtype=np.float32).copy()
    boxes[..., 0] = np.clip(boxes[..., 0], 0, width)
    boxes[..., 1] = np.clip(boxes[..., 1], 0, height)
    boxes[..., 2] = np.clip(boxes[..., 2], 0, width)
    boxes[..., 3] = np.clip(boxes[..., 3], 0, height)
    return boxes


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Pairwise IoU between two sets of xyxy boxes.

    Parameters
    ----------
    boxes_a: (N, 4) array.
    boxes_b: (M, 4) array.

    Returns
    -------
    (N, M) array of IoU values in [0, 1].
    """
    boxes_a = np.asarray(boxes_a, dtype=np.float32).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float32).reshape(-1, 4)
    if boxes_a.size == 0 or boxes_b.size == 0:
        return np.zeros((boxes_a.shape[0], boxes_b.shape[0]), dtype=np.float32)

    left = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    top = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    right = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    bottom = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])

    inter = np.clip(right - left, 0.0, None) * np.clip(bottom - top, 0.0, None)
    union = box_area(boxes_a)[:, None] + box_area(boxes_b)[None, :] - inter
    return (inter / (union + eps)).astype(np.float32)


def iou_pairwise(boxes_a: np.ndarray, boxes_b: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Element-wise IoU between aligned box arrays of identical shape (..., 4)."""
    boxes_a = np.asarray(boxes_a, dtype=np.float32)
    boxes_b = np.asarray(boxes_b, dtype=np.float32)
    left = np.maximum(boxes_a[..., 0], boxes_b[..., 0])
    top = np.maximum(boxes_a[..., 1], boxes_b[..., 1])
    right = np.minimum(boxes_a[..., 2], boxes_b[..., 2])
    bottom = np.minimum(boxes_a[..., 3], boxes_b[..., 3])
    inter = np.clip(right - left, 0.0, None) * np.clip(bottom - top, 0.0, None)
    union = box_area(boxes_a) + box_area(boxes_b) - inter
    return inter / (union + eps)


def encode_boxes(gt_boxes: np.ndarray, anchors: np.ndarray,
                 stds: Tuple[float, float, float, float] = (0.1, 0.1, 0.2, 0.2)) -> np.ndarray:
    """Encode ground-truth xyxy boxes relative to anchor xyxy boxes (R-CNN deltas).

    Used by the RetinaNet regression head.
    """
    gt = xyxy_to_cxcywh(gt_boxes)
    an = xyxy_to_cxcywh(anchors)
    deltas = np.empty_like(gt)
    deltas[..., 0] = (gt[..., 0] - an[..., 0]) / np.maximum(an[..., 2], 1e-6)
    deltas[..., 1] = (gt[..., 1] - an[..., 1]) / np.maximum(an[..., 3], 1e-6)
    deltas[..., 2] = np.log(np.maximum(gt[..., 2], 1e-6) / np.maximum(an[..., 2], 1e-6))
    deltas[..., 3] = np.log(np.maximum(gt[..., 3], 1e-6) / np.maximum(an[..., 3], 1e-6))
    return deltas / np.asarray(stds, dtype=np.float32)

