"""Dataset views and batching.

``DetectionDataset`` wraps a scene source (synthetic KITTI) plus an index subset;
``DataLoader`` batches scenes into the dense arrays the training loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.data.synthetic_kitti import Scene


@dataclass
class Batch:
    """A batch of scenes ready for the detector.

    Attributes
    ----------
    images: (B, C, H, W) float32 array.
    boxes: list of per-image (N_i, 4) cxcywh arrays.
    class_ids: list of per-image (N_i,) integer arrays.
    image_ids: original dataset indices of the scenes.
    """

    images: np.ndarray
    boxes: List[np.ndarray]
    class_ids: List[np.ndarray]
    image_ids: List[int]

    def __len__(self) -> int:
        return self.images.shape[0]


class DetectionDataset:
    """Index-subset view over a scene source."""

    def __init__(self, source, indices: Optional[Sequence[int]] = None) -> None:
        self.source = source
        self.indices = list(indices) if indices is not None else list(range(len(source)))

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, position: int) -> Scene:
        return self.source[self.indices[position]]


class DataLoader:
    """Minimal batching iterator (sequential or shuffled)."""

    def __init__(self, dataset: DetectionDataset, batch_size: int = 8,
                 shuffle: bool = False, seed: int = 0) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.seed = int(seed)
        self._epoch = 0

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            rng.shuffle(order)
        self._epoch += 1

        for start in range(0, len(order), self.batch_size):
            positions = order[start:start + self.batch_size]
            scenes = [self.dataset[int(p)] for p in positions]
            yield collate(scenes)


def collate(scenes: Sequence[Scene]) -> Batch:
    """Stack scenes into a dense batch (all scenes must share a resolution)."""
    shapes = {scene.image.shape for scene in scenes}
    if len(shapes) != 1:
        raise ValueError(f"cannot collate scenes with mixed shapes: {shapes}")
    images = np.stack([scene.image for scene in scenes]).astype(np.float32)
    boxes = [scene.boxes_cxcywh for scene in scenes]
    class_ids = [scene.class_ids for scene in scenes]
    image_ids = [scene.image_id for scene in scenes]
    return Batch(images, boxes, class_ids, image_ids)
