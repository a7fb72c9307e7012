"""Detection accuracy metrics: precision/recall, AP, mAP and IoU summaries.

The paper reports mAP "with an IoU threshold of 0.5 AP@[.5:.95]"; both AP@0.5 and
the COCO-style AP@[.5:.95] average are implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.detection.boxes import iou_matrix


@dataclass
class Detection:
    """A single predicted box (xyxy pixels) with class id and confidence."""

    box: np.ndarray
    class_id: int
    score: float
    image_id: int = 0

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float32).reshape(4)


@dataclass
class GroundTruth:
    """A single ground-truth box (xyxy pixels) with class id."""

    box: np.ndarray
    class_id: int
    image_id: int = 0
    difficult: bool = False

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=np.float32).reshape(4)


@dataclass
class APResult:
    """Average precision for one class at one IoU threshold."""

    class_id: int
    iou_threshold: float
    ap: float
    precision: np.ndarray = field(default_factory=lambda: np.zeros(0))
    recall: np.ndarray = field(default_factory=lambda: np.zeros(0))
    num_ground_truth: int = 0
    num_detections: int = 0


def _average_precision(recall: np.ndarray, precision: np.ndarray) -> float:
    """101-point interpolated AP (COCO convention)."""
    if recall.size == 0:
        return 0.0
    recall_points = np.linspace(0.0, 1.0, 101)
    # Precision envelope: max precision at recall >= r.
    precision_env = np.zeros_like(recall_points)
    for i, r in enumerate(recall_points):
        mask = recall >= r
        precision_env[i] = precision[mask].max() if mask.any() else 0.0
    return float(precision_env.mean())


def average_precision_for_class(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    class_id: int,
    iou_threshold: float = 0.5,
) -> APResult:
    """Compute AP for one class over a whole dataset (all image ids)."""
    dets = sorted(
        [d for d in detections if d.class_id == class_id],
        key=lambda d: d.score,
        reverse=True,
    )
    gts = [g for g in ground_truths if g.class_id == class_id]
    num_gt = len(gts)
    if num_gt == 0 and len(dets) == 0:
        return APResult(class_id, iou_threshold, 0.0, num_ground_truth=0, num_detections=0)
    if num_gt == 0:
        return APResult(class_id, iou_threshold, 0.0, num_ground_truth=0, num_detections=len(dets))

    gt_by_image: Dict[int, List[GroundTruth]] = {}
    for gt in gts:
        gt_by_image.setdefault(gt.image_id, []).append(gt)
    matched = {image_id: np.zeros(len(group), dtype=bool) for image_id, group in gt_by_image.items()}

    tp = np.zeros(len(dets))
    fp = np.zeros(len(dets))
    for i, det in enumerate(dets):
        candidates = gt_by_image.get(det.image_id, [])
        if not candidates:
            fp[i] = 1.0
            continue
        gt_boxes = np.stack([g.box for g in candidates])
        ious = iou_matrix(det.box[None, :], gt_boxes)[0]
        best = int(ious.argmax())
        if ious[best] >= iou_threshold and not matched[det.image_id][best]:
            tp[i] = 1.0
            matched[det.image_id][best] = True
        else:
            fp[i] = 1.0

    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    recall = tp_cum / max(num_gt, 1)
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-9)
    ap = _average_precision(recall, precision)
    return APResult(class_id, iou_threshold, ap, precision, recall, num_gt, len(dets))


def mean_average_precision(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    num_classes: int,
    iou_threshold: float = 0.5,
) -> Dict[str, float]:
    """mAP at a single IoU threshold; returns per-class APs and the mean."""
    results = {}
    aps = []
    for class_id in range(num_classes):
        result = average_precision_for_class(detections, ground_truths, class_id, iou_threshold)
        if result.num_ground_truth > 0:
            aps.append(result.ap)
        results[f"AP_class_{class_id}"] = result.ap
    results["mAP"] = float(np.mean(aps)) if aps else 0.0
    return results


def detection_counts(
    detections: Sequence[Detection],
    ground_truths: Sequence[GroundTruth],
    iou_threshold: float = 0.5,
    score_threshold: float = 0.25,
) -> Dict[str, float]:
    """True/false positive and miss counts at a fixed operating point.

    Used by the Fig. 8 qualitative comparison (which objects survive pruning).
    """
    kept = [d for d in detections if d.score >= score_threshold]
    tp = 0
    matched_gt = set()
    for det in kept:
        for j, gt in enumerate(ground_truths):
            if j in matched_gt or gt.image_id != det.image_id or gt.class_id != det.class_id:
                continue
            if iou_matrix(det.box[None], gt.box[None])[0, 0] >= iou_threshold:
                tp += 1
                matched_gt.add(j)
                break
    fp = len(kept) - tp
    fn = len(ground_truths) - tp
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    return {
        "true_positives": float(tp),
        "false_positives": float(fp),
        "missed": float(fn),
        "precision": precision,
        "recall": recall,
        "mean_confidence": float(np.mean([d.score for d in kept])) if kept else 0.0,
    }
