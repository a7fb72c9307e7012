"""Decoding raw detector outputs into scored, NMS-filtered detections."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.detection.boxes import clip_boxes, cxcywh_to_xyxy
from repro.detection.metrics import Detection
from repro.detection.nms import batched_nms


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def decode_yolo_single_scale(
    prediction: np.ndarray,
    anchors: np.ndarray,
    image_size: int,
    num_classes: int,
    conf_threshold: float = 0.25,
    iou_threshold: float = 0.45,
    max_detections: int = 300,
) -> List[List[Detection]]:
    """Decode a single-scale YOLO head output into detections per image.

    Parameters
    ----------
    prediction:
        Raw head output ``(B, A*(5+C), H, W)``.
    anchors:
        (A, 2) anchor sizes in pixels.
    image_size:
        Square input resolution; boxes are clipped to it.
    """
    prediction = np.asarray(prediction, dtype=np.float32)
    batch, channels, height, width = prediction.shape
    anchors = np.asarray(anchors, dtype=np.float32).reshape(-1, 2)
    num_anchors = anchors.shape[0]
    per_anchor = 5 + num_classes
    if channels != num_anchors * per_anchor:
        raise ValueError(f"channel mismatch: {channels} vs {num_anchors}x{per_anchor}")
    stride = image_size / height

    pred = prediction.reshape(batch, num_anchors, per_anchor, height, width)
    results: List[List[Detection]] = []
    cols, rows = np.meshgrid(np.arange(width), np.arange(height))

    for b in range(batch):
        boxes_all = []
        scores_all = []
        classes_all = []
        for a in range(num_anchors):
            tx = _sigmoid(pred[b, a, 0])
            ty = _sigmoid(pred[b, a, 1])
            tw = pred[b, a, 2]
            th = pred[b, a, 3]
            obj = _sigmoid(pred[b, a, 4])
            cls_prob = _sigmoid(pred[b, a, 5:])       # (C, H, W)

            cx = (cols + tx) * stride
            cy = (rows + ty) * stride
            bw = np.exp(np.clip(tw, -8, 8)) * anchors[a, 0]
            bh = np.exp(np.clip(th, -8, 8)) * anchors[a, 1]

            class_id = cls_prob.argmax(axis=0)
            class_score = cls_prob.max(axis=0)
            confidence = obj * class_score

            keep = confidence >= conf_threshold
            if not keep.any():
                continue
            boxes = np.stack([cx[keep], cy[keep], bw[keep], bh[keep]], axis=-1)
            boxes_all.append(cxcywh_to_xyxy(boxes))
            scores_all.append(confidence[keep])
            classes_all.append(class_id[keep])

        if not boxes_all:
            results.append([])
            continue
        boxes_cat = clip_boxes(np.concatenate(boxes_all), (image_size, image_size))
        scores_cat = np.concatenate(scores_all)
        classes_cat = np.concatenate(classes_all)
        keep_idx = batched_nms(boxes_cat, scores_cat, classes_cat, iou_threshold)[:max_detections]
        results.append([
            Detection(boxes_cat[i], int(classes_cat[i]), float(scores_cat[i]), image_id=b)
            for i in keep_idx
        ])
    return results
