"""Non-maximum suppression variants."""

import numpy as np

from repro.detection.nms import batched_nms, nms


def _boxes():
    return np.array([
        [0, 0, 10, 10],
        [1, 1, 11, 11],      # heavy overlap with the first
        [50, 50, 60, 60],    # far away
    ], dtype=np.float32)


class TestNMS:
    def test_suppresses_overlapping_lower_score(self):
        keep = nms(_boxes(), np.array([0.9, 0.8, 0.7]), iou_threshold=0.5)
        assert list(keep) == [0, 2]

    def test_keeps_highest_score_first(self):
        keep = nms(_boxes(), np.array([0.5, 0.95, 0.7]), iou_threshold=0.5)
        assert keep[0] == 1

    def test_high_threshold_keeps_everything(self):
        keep = nms(_boxes(), np.array([0.9, 0.8, 0.7]), iou_threshold=0.99)
        assert len(keep) == 3

    def test_empty_input(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)).shape == (0,)

    def test_single_box(self):
        keep = nms(np.array([[0, 0, 5, 5]], dtype=np.float32), np.array([0.3]))
        assert list(keep) == [0]


class TestBatchedNMS:
    def test_different_classes_do_not_suppress(self):
        keep = batched_nms(_boxes(), np.array([0.9, 0.8, 0.7]),
                           np.array([0, 1, 0]), iou_threshold=0.5)
        assert len(keep) == 3

    def test_same_class_still_suppresses(self):
        keep = batched_nms(_boxes(), np.array([0.9, 0.8, 0.7]),
                           np.array([0, 0, 0]), iou_threshold=0.5)
        assert len(keep) == 2

    def test_empty(self):
        assert batched_nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0)).shape == (0,)
