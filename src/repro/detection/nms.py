"""Non-maximum suppression."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.detection.boxes import iou_matrix


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.45) -> np.ndarray:
    """Greedy NMS.

    Parameters
    ----------
    boxes: (N, 4) xyxy boxes.
    scores: (N,) confidence scores.
    iou_threshold: boxes overlapping a kept box by more than this are suppressed.

    Returns
    -------
    Indices of the kept boxes, ordered by decreasing score.
    """
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float32).reshape(-1)
    if boxes.shape[0] == 0:
        return np.zeros((0,), dtype=np.int64)

    order = scores.argsort()[::-1]
    keep: List[int] = []
    ious = iou_matrix(boxes, boxes)
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= ious[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)


def batched_nms(boxes: np.ndarray, scores: np.ndarray, class_ids: np.ndarray,
                iou_threshold: float = 0.45) -> np.ndarray:
    """Class-aware NMS: boxes of different classes never suppress each other."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    class_ids = np.asarray(class_ids).reshape(-1)
    if boxes.shape[0] == 0:
        return np.zeros((0,), dtype=np.int64)
    # Offset boxes per class so they cannot overlap across classes.
    max_extent = float(boxes.max()) + 1.0 if boxes.size else 1.0
    offsets = class_ids.astype(np.float32)[:, None] * max_extent
    return nms(boxes + offsets, scores, iou_threshold)
