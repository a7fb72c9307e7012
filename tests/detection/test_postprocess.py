"""Decoding raw detector outputs into detections."""

import numpy as np

from repro.detection.postprocess import decode_yolo_single_scale

ANCHORS = np.array([[12, 12], [30, 30], [50, 40]], dtype=np.float32)


def _raw_prediction(grid=8, num_classes=3, num_anchors=3, fill=-10.0):
    return np.full((1, num_anchors * (5 + num_classes), grid, grid), fill, dtype=np.float32)


class TestDecodeYolo:
    def test_no_detections_when_objectness_low(self):
        pred = _raw_prediction()
        out = decode_yolo_single_scale(pred, ANCHORS, 64, 3)
        assert out == [[]]

    def test_single_confident_cell_decodes_to_expected_box(self):
        pred = _raw_prediction()
        grid = 8
        per_anchor = 8
        # Anchor 1 (30x30) at cell (row 2, col 3), centred, class 2 confident.
        base = 1 * per_anchor
        pred[0, base + 0, 2, 3] = 0.0        # tx -> sigmoid 0.5
        pred[0, base + 1, 2, 3] = 0.0        # ty -> sigmoid 0.5
        pred[0, base + 2, 2, 3] = 0.0        # tw -> exp(0) * 30
        pred[0, base + 3, 2, 3] = 0.0
        pred[0, base + 4, 2, 3] = 8.0        # objectness
        pred[0, base + 7, 2, 3] = 8.0        # class 2
        out = decode_yolo_single_scale(pred, ANCHORS, 64, 3, conf_threshold=0.5)
        assert len(out[0]) == 1
        det = out[0][0]
        assert det.class_id == 2
        cx = (det.box[0] + det.box[2]) / 2
        cy = (det.box[1] + det.box[3]) / 2
        assert abs(cx - (3 + 0.5) * 8) < 1e-3
        assert abs(cy - (2 + 0.5) * 8) < 1e-3
        assert abs((det.box[2] - det.box[0]) - 30) < 1e-3

    def test_nms_merges_duplicates_across_anchors(self):
        pred = _raw_prediction()
        for anchor in range(3):
            base = anchor * 8
            pred[0, base + 4, 4, 4] = 8.0
            pred[0, base + 5, 4, 4] = 8.0
        out = decode_yolo_single_scale(pred, ANCHORS, 64, 3, conf_threshold=0.5,
                                       iou_threshold=0.4)
        # The three anchor boxes at the same cell have different sizes; NMS keeps the
        # non-overlapping ones but never more than three.
        assert 1 <= len(out[0]) <= 3

    def test_batch_dimension(self):
        pred = np.concatenate([_raw_prediction(), _raw_prediction()], axis=0)
        out = decode_yolo_single_scale(pred, ANCHORS, 64, 3)
        assert len(out) == 2
