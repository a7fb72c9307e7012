"""Fig. 8: qualitative detection comparison on a KITTI-style scene.

The paper's Fig. 8 shows detections of RetinaNet pruned with NP, PD and the R-TOSS
variants on one KITTI image, highlighting that R-TOSS-2EP keeps detecting a tiny
distant car and with higher confidence.  The reproduction runs the measured
pipeline: a trained TinyDetector is pruned by each framework (NP, PD, R-TOSS-3EP,
R-TOSS-2EP), fine-tuned, and evaluated on held-out scenes that contain at least one
tiny object; the per-framework recall on those tiny objects and the mean detection
confidence are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.detection.metrics import Detection, GroundTruth, detection_counts
from repro.detection.postprocess import decode_yolo_single_scale
from repro.experiments.training import (
    PruneFinetuneOutcome,
    TinyTrainingConfig,
    TinyTrainingResult,
    evaluate_tiny_map,
    prune_and_finetune,
    train_tiny_detector,
)
from repro.nn.tensor import Tensor
from repro.pruning.neural_pruning import NeuralPruner
from repro.pruning.patdnn import PatDNNPruner


@dataclass
class Fig8Row:
    """Qualitative metrics for one framework on the tiny-object scenes."""

    framework: str
    map_after_finetune: float
    tiny_object_recall: float
    mean_confidence: float
    missed_objects: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "Framework": self.framework,
            "mAP@0.5 (measured)": round(self.map_after_finetune, 3),
            "Tiny-object recall": round(self.tiny_object_recall, 3),
            "Mean confidence": round(self.mean_confidence, 3),
            "Missed objects": self.missed_objects,
        }


def _framework_pruners() -> Dict[str, object]:
    return {
        "NP": NeuralPruner(filter_ratio=0.25, weight_sparsity=0.30),
        "PD": PatDNNPruner(entries=4, connectivity_ratio=0.30),
        "R-TOSS-3EP": RTOSSPruner(RTOSSConfig(entries=3)),
        "R-TOSS-2EP": RTOSSPruner(RTOSSConfig(entries=2)),
    }


def _tiny_object_scenes(result: TinyTrainingResult, size_fraction: float = 0.12) -> List[int]:
    """Validation scenes containing at least one object smaller than the threshold."""
    threshold = result.config.image_size * size_fraction
    indices = []
    for index in result.val_indices:
        scene = result.dataset[index]
        if any(min(o.width, o.height) < threshold for o in scene.objects):
            indices.append(index)
    return indices


def _qualitative_metrics(result: TinyTrainingResult, model, scene_indices: List[int],
                         size_fraction: float = 0.12) -> Dict[str, float]:
    """Recall on tiny objects + mean confidence over the selected scenes."""
    config = result.config
    threshold = config.image_size * size_fraction
    detections: List[Detection] = []
    tiny_gt: List[GroundTruth] = []
    all_gt: List[GroundTruth] = []
    for index in scene_indices:
        scene = result.dataset[index]
        prediction = model(Tensor(scene.image[None]))
        decoded = decode_yolo_single_scale(
            prediction.numpy(), model.anchors, config.image_size, config.num_classes,
            conf_threshold=config.conf_threshold,
        )[0]
        for det in decoded:
            det.image_id = scene.image_id
            detections.append(det)
        for obj, box in zip(scene.objects, scene.boxes_xyxy):
            record = GroundTruth(box, obj.class_id, image_id=scene.image_id)
            all_gt.append(record)
            if min(obj.width, obj.height) < threshold:
                tiny_gt.append(record)

    overall = detection_counts(detections, all_gt, score_threshold=config.conf_threshold)
    tiny = detection_counts(detections, tiny_gt, score_threshold=config.conf_threshold)
    return {
        "tiny_object_recall": tiny["recall"],
        "mean_confidence": overall["mean_confidence"],
        "missed_objects": overall["missed"],
    }


def run_fig8(training: Optional[TinyTrainingResult] = None,
             training_config: Optional[TinyTrainingConfig] = None) -> List[Fig8Row]:
    """Regenerate the Fig. 8 comparison with measured TinyDetector detections."""
    training = training or train_tiny_detector(training_config)
    baseline = evaluate_tiny_map(training)["mAP"]
    scenes = _tiny_object_scenes(training)
    if not scenes:
        scenes = list(training.val_indices)

    rows: List[Fig8Row] = []
    for name, pruner in _framework_pruners().items():
        outcome: PruneFinetuneOutcome = prune_and_finetune(training, pruner, baseline, name)
        metrics = _qualitative_metrics(training, outcome.model, scenes)
        rows.append(Fig8Row(
            framework=name,
            map_after_finetune=outcome.map_after_finetune,
            tiny_object_recall=metrics["tiny_object_recall"],
            mean_confidence=metrics["mean_confidence"],
            missed_objects=metrics["missed_objects"],
        ))
    return rows


def fig8_checks(rows: List[Fig8Row]) -> Dict[str, bool]:
    """Qualitative claims of Fig. 8 (R-TOSS keeps tiny objects and confidence)."""
    by_name = {row.framework: row for row in rows}
    rtoss_best = max(by_name["R-TOSS-2EP"].tiny_object_recall,
                     by_name["R-TOSS-3EP"].tiny_object_recall)
    prior_best = max(by_name["NP"].tiny_object_recall, by_name["PD"].tiny_object_recall)
    return {
        "rtoss_tiny_recall_at_least_priors": rtoss_best >= prior_best,
        "rtoss_map_at_least_priors": max(by_name["R-TOSS-2EP"].map_after_finetune,
                                         by_name["R-TOSS-3EP"].map_after_finetune)
        >= max(by_name["NP"].map_after_finetune, by_name["PD"].map_after_finetune),
    }
