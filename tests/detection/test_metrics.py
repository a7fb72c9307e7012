"""mAP / AP computation on hand-constructed cases."""

import numpy as np
import pytest

from repro.detection.metrics import (
    Detection,
    GroundTruth,
    average_precision_for_class,
    detection_counts,
    mean_average_precision,
)


def _gt(box, cls=0, image=0):
    return GroundTruth(np.asarray(box, dtype=np.float32), cls, image_id=image)


def _det(box, score, cls=0, image=0):
    return Detection(np.asarray(box, dtype=np.float32), cls, score, image_id=image)


class TestAveragePrecision:
    def test_perfect_detection_gives_ap_one(self):
        gts = [_gt([0, 0, 10, 10]), _gt([20, 20, 30, 30])]
        dets = [_det([0, 0, 10, 10], 0.9), _det([20, 20, 30, 30], 0.8)]
        result = average_precision_for_class(dets, gts, class_id=0)
        assert result.ap == pytest.approx(1.0, abs=1e-3)

    def test_no_detections_gives_zero(self):
        gts = [_gt([0, 0, 10, 10])]
        result = average_precision_for_class([], gts, class_id=0)
        assert result.ap == 0.0
        assert result.num_ground_truth == 1

    def test_false_positive_lowers_ap(self):
        gts = [_gt([0, 0, 10, 10])]
        perfect = average_precision_for_class([_det([0, 0, 10, 10], 0.9)], gts, 0).ap
        with_fp = average_precision_for_class(
            [_det([50, 50, 60, 60], 0.95), _det([0, 0, 10, 10], 0.9)], gts, 0).ap
        assert with_fp < perfect

    def test_duplicate_detection_is_a_false_positive(self):
        gts = [_gt([0, 0, 10, 10])]
        dets = [_det([0, 0, 10, 10], 0.9), _det([0, 0, 10, 10], 0.8)]
        result = average_precision_for_class(dets, gts, 0)
        # The second (duplicate) detection cannot match the already-claimed ground
        # truth: the running precision drops to 0.5 even though AP (interpolated at
        # full recall) stays 1.0 — the COCO convention.
        assert result.precision[-1] == pytest.approx(0.5)
        assert result.ap == pytest.approx(1.0, abs=1e-3)

    def test_iou_threshold_matters(self):
        gts = [_gt([0, 0, 10, 10])]
        dets = [_det([3, 3, 13, 13], 0.9)]     # IoU ~ 0.32
        loose = average_precision_for_class(dets, gts, 0, iou_threshold=0.3).ap
        strict = average_precision_for_class(dets, gts, 0, iou_threshold=0.5).ap
        assert loose > strict == 0.0

    def test_detections_matched_within_image_only(self):
        gts = [_gt([0, 0, 10, 10], image=0)]
        dets = [_det([0, 0, 10, 10], 0.9, image=1)]
        assert average_precision_for_class(dets, gts, 0).ap == 0.0


class TestMeanAveragePrecision:
    def test_map_averages_over_present_classes(self):
        gts = [_gt([0, 0, 10, 10], cls=0), _gt([20, 20, 30, 30], cls=1)]
        dets = [_det([0, 0, 10, 10], 0.9, cls=0)]        # class 1 entirely missed
        result = mean_average_precision(dets, gts, num_classes=3)
        assert result["mAP"] == pytest.approx(0.5, abs=1e-3)

    def test_absent_classes_do_not_dilute(self):
        gts = [_gt([0, 0, 10, 10], cls=0)]
        dets = [_det([0, 0, 10, 10], 0.9, cls=0)]
        result = mean_average_precision(dets, gts, num_classes=5)
        assert result["mAP"] == pytest.approx(1.0, abs=1e-3)

    def test_empty_everything(self):
        assert mean_average_precision([], [], 3)["mAP"] == 0.0


class TestDetectionCounts:
    def test_counts(self):
        gts = [_gt([0, 0, 10, 10]), _gt([20, 20, 30, 30])]
        dets = [_det([0, 0, 10, 10], 0.9), _det([50, 50, 60, 60], 0.8)]
        counts = detection_counts(dets, gts)
        assert counts["true_positives"] == 1
        assert counts["false_positives"] == 1
        assert counts["missed"] == 1
        assert counts["precision"] == pytest.approx(0.5)
        assert counts["recall"] == pytest.approx(0.5)

    def test_score_threshold_filters(self):
        gts = [_gt([0, 0, 10, 10])]
        dets = [_det([0, 0, 10, 10], 0.1)]
        counts = detection_counts(dets, gts, score_threshold=0.25)
        assert counts["true_positives"] == 0 and counts["missed"] == 1
