"""Datasets (synthetic KITTI substitute) and batching."""

from repro.data.dataset import Batch, DataLoader, DetectionDataset, collate
from repro.data.synthetic_kitti import (
    KITTI_CLASSES,
    Scene,
    SceneObject,
    SyntheticKitti,
    SyntheticKittiConfig,
)

__all__ = [
    "Batch", "DataLoader", "DetectionDataset", "collate",
    "KITTI_CLASSES", "Scene", "SceneObject", "SyntheticKitti", "SyntheticKittiConfig",
]
