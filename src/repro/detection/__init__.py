"""Object-detection toolkit: boxes, anchors, NMS, target assignment, losses, mAP."""

from repro.detection.anchors import (
    RETINANET_STRIDES,
    YOLOV5_ANCHORS,
    YOLOV5_STRIDES,
    RetinaAnchorConfig,
    grid_centers,
    kmeans_anchors,
    retinanet_anchors,
)
from repro.detection.boxes import (
    box_area,
    clip_boxes,
    cxcywh_to_xyxy,
    encode_boxes,
    iou_matrix,
    iou_pairwise,
    xyxy_to_cxcywh,
)
from repro.detection.losses import RetinaLoss, YoloLoss, YoloLossWeights
from repro.detection.metrics import (
    APResult,
    Detection,
    GroundTruth,
    average_precision_for_class,
    detection_counts,
    mean_average_precision,
)
from repro.detection.nms import batched_nms, nms
from repro.detection.postprocess import decode_yolo_single_scale
from repro.detection.targets import (
    RetinaTargets,
    YoloTargets,
    assign_retinanet_targets,
    assign_yolo_targets,
)

__all__ = [
    "RETINANET_STRIDES", "YOLOV5_ANCHORS", "YOLOV5_STRIDES", "RetinaAnchorConfig",
    "grid_centers", "kmeans_anchors", "retinanet_anchors",
    "box_area", "clip_boxes", "cxcywh_to_xyxy", "encode_boxes",
    "iou_matrix", "iou_pairwise", "xyxy_to_cxcywh",
    "RetinaLoss", "YoloLoss", "YoloLossWeights",
    "APResult", "Detection", "GroundTruth", "average_precision_for_class",
    "detection_counts", "mean_average_precision",
    "batched_nms", "nms",
    "decode_yolo_single_scale",
    "RetinaTargets", "YoloTargets", "assign_retinanet_targets", "assign_yolo_targets",
]
