"""Training / fine-tuning pipeline for the measured-mAP experiments.

The TinyDetector is small enough to train with the numpy substrate in seconds.
This module provides the three building blocks the Fig. 5 / Fig. 8 style
experiments and the examples need:

* :func:`train_tiny_detector` — train a TinyDetector on synthetic KITTI,
* :func:`evaluate_tiny_map`   — measured mAP@0.5 on the held-out split,
* :func:`prune_and_finetune`  — apply any pruner, fine-tune with the masks pinned,
  and report the measured mAP before/after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.masks import MaskSet
from repro.core.report import PruningReport
from repro.data.dataset import DataLoader, DetectionDataset
from repro.data.synthetic_kitti import SyntheticKitti, SyntheticKittiConfig
from repro.detection.losses import YoloLoss
from repro.detection.metrics import Detection, GroundTruth, mean_average_precision
from repro.detection.postprocess import decode_yolo_single_scale
from repro.detection.targets import assign_yolo_targets
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.logging import get_logger

logger = get_logger("experiments.training")


@dataclass
class TinyTrainingConfig:
    """Hyper-parameters of the TinyDetector training runs."""

    num_scenes: int = 48
    image_size: int = 64
    base_channels: int = 8
    num_classes: int = 3
    batch_size: int = 8
    train_steps: int = 40
    finetune_steps: int = 15
    learning_rate: float = 2e-3
    conf_threshold: float = 0.20
    seed: int = 0


@dataclass
class TinyTrainingResult:
    """A trained TinyDetector together with its data splits and training history."""

    model: TinyDetector
    dataset: SyntheticKitti
    train_indices: List[int]
    val_indices: List[int]
    config: TinyTrainingConfig
    loss_history: List[float] = field(default_factory=list)

    def example_input(self) -> Tensor:
        size = self.config.image_size
        return Tensor(np.zeros((1, 3, size, size), dtype=np.float32))


def _new_detector(config: TinyTrainingConfig) -> TinyDetector:
    """The untrained TinyDetector a training config describes."""
    return TinyDetector(TinyDetectorConfig(
        num_classes=config.num_classes, image_size=config.image_size,
        base_channels=config.base_channels, seed=29 + config.seed,
    ))


def _build_dataset(config: TinyTrainingConfig) -> SyntheticKitti:
    return SyntheticKitti(
        config.num_scenes,
        SyntheticKittiConfig(image_size=config.image_size, num_classes=config.num_classes,
                             seed=1234 + config.seed),
    )


def _train_loop(model: TinyDetector, loader: DataLoader, loss_fn: YoloLoss,
                steps: int, learning_rate: float,
                masks: Optional[MaskSet] = None) -> List[float]:
    """Run ``steps`` optimisation steps (cycling over the loader), return the losses."""
    optimizer = Adam(model.parameters(), lr=learning_rate)
    grid = model.config.grid_size
    image_size = model.config.image_size
    anchors = model.anchors
    history: List[float] = []
    step = 0
    model.train()
    while step < steps:
        for batch in loader:
            if step >= steps:
                break
            targets = assign_yolo_targets(batch.boxes, batch.class_ids, image_size, grid,
                                          anchors, model.config.num_classes)
            prediction = model(Tensor(batch.images))
            losses = loss_fn(prediction, targets)
            optimizer.zero_grad()
            losses["total"].backward()
            optimizer.step()
            if masks is not None:
                masks.reapply(model)
            history.append(float(losses["total"].data))
            step += 1
    model.eval()
    return history


def train_tiny_detector(config: Optional[TinyTrainingConfig] = None) -> TinyTrainingResult:
    """Train a TinyDetector from scratch on synthetic KITTI (60:40 split)."""
    config = config or TinyTrainingConfig()
    dataset = _build_dataset(config)
    train_idx, val_idx = dataset.split(0.6)

    model = _new_detector(config)
    loader = DataLoader(DetectionDataset(dataset, train_idx), batch_size=config.batch_size,
                        shuffle=True, seed=config.seed)
    loss_fn = YoloLoss(config.num_classes, model.config.num_anchors)
    history = _train_loop(model, loader, loss_fn, config.train_steps, config.learning_rate)
    logger.info("TinyDetector trained: loss %.3f -> %.3f", history[0], history[-1])
    return TinyTrainingResult(model, dataset, list(train_idx), list(val_idx), config, history)


def evaluate_tiny_map(result: TinyTrainingResult, model: Optional[TinyDetector] = None,
                      iou_threshold: float = 0.5) -> Dict[str, float]:
    """Measured mAP@0.5 (and detection counts) of a TinyDetector on the val split."""
    model = model if model is not None else result.model
    config = result.config
    model.eval()

    detections: List[Detection] = []
    ground_truths: List[GroundTruth] = []
    loader = DataLoader(DetectionDataset(result.dataset, result.val_indices),
                        batch_size=config.batch_size, shuffle=False)
    for batch in loader:
        prediction = model(Tensor(batch.images))
        decoded = decode_yolo_single_scale(
            prediction.numpy(), model.anchors, config.image_size, config.num_classes,
            conf_threshold=config.conf_threshold,
        )
        for position, per_image in enumerate(decoded):
            image_id = batch.image_ids[position]
            for det in per_image:
                det.image_id = image_id
                detections.append(det)
        for position in range(len(batch)):
            image_id = batch.image_ids[position]
            boxes = batch.boxes[position]
            classes = batch.class_ids[position]
            for box, cls in zip(boxes, classes):
                half_w, half_h = box[2] / 2, box[3] / 2
                xyxy = np.asarray([box[0] - half_w, box[1] - half_h,
                                   box[0] + half_w, box[1] + half_h], dtype=np.float32)
                ground_truths.append(GroundTruth(xyxy, int(cls), image_id=image_id))

    metrics = mean_average_precision(detections, ground_truths, config.num_classes,
                                     iou_threshold)
    metrics["num_detections"] = float(len(detections))
    metrics["num_ground_truth"] = float(len(ground_truths))
    return metrics


@dataclass
class PruneFinetuneOutcome:
    """Measured result of pruning + fine-tuning a trained TinyDetector."""

    framework: str
    report: PruningReport
    map_before_finetune: float
    map_after_finetune: float
    baseline_map: float
    #: The pruned, fine-tuned detector that ``map_after_finetune`` measured.
    model: TinyDetector


def prune_and_finetune(result: TinyTrainingResult, pruner, baseline_map: float,
                       framework_name: Optional[str] = None) -> PruneFinetuneOutcome:
    """Prune a *copy* of the trained TinyDetector, fine-tune, and measure mAP.

    The original trained model in ``result`` is left untouched.
    """
    config = result.config
    clone = _new_detector(config)
    clone.load_state_dict(result.model.state_dict())

    report = pruner.prune(clone, result.example_input(), "tiny")
    if framework_name:
        report.framework = framework_name
    map_before = evaluate_tiny_map(result, clone)["mAP"]

    loader = DataLoader(DetectionDataset(result.dataset, result.train_indices),
                        batch_size=config.batch_size, shuffle=True, seed=config.seed + 1)
    loss_fn = YoloLoss(config.num_classes, clone.config.num_anchors)
    _train_loop(clone, loader, loss_fn, config.finetune_steps, config.learning_rate / 2,
                masks=report.masks)
    map_after = evaluate_tiny_map(result, clone)["mAP"]

    logger.info("%s on TinyDetector: mAP %.3f -> %.3f (baseline %.3f)",
                report.framework, map_before, map_after, baseline_map)
    return PruneFinetuneOutcome(report.framework, report, map_before, map_after, baseline_map,
                                clone)
